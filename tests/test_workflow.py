"""The CI workflow names only tests that exist.

A hosted runner alone runs .github/workflows/tier1.yml, so a test it names
that was renamed or deleted would drop out of its job unnoticed. The
workflow is read as text: PyYAML is not a test dependency.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def defined_tests(path):
    """The node-id names, (function,) or (class, method), of the tests the
    file `path` defines."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            names.add((node.name,))
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            names |= {(node.name, f.name) for f in node.body
                      if isinstance(f, ast.FunctionDef) and f.name.startswith("test")}
    return names


def test_the_workflow_names_only_tests_that_exist():
    nodes = re.findall(r"\btests/[\w/]+\.py(?:::\w+)*", WORKFLOW.read_text())
    assert "tests/test_rng.py" in nodes  # the rng-numpy-floor job's tests
    for node in nodes:
        path, *names = node.split("::")
        assert (ROOT / path).is_file(), node
        assert not names or tuple(names) in defined_tests(ROOT / path), node
