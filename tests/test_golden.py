"""Golden report digests: the SHA-256 of the CLI's stdout bytes for six
seeded commands and two deterministic ones.

The Monte Carlo rank on the reference network and the wide-row simulate
were recorded before the posterior-draw engine was batched (one
standard_gamma call per iteration, chunked solves); the plug-in rank on a
layered network and the wide-row Monte Carlo sweep were recorded before
sweeps were batched (all increments of a stakeholder in one stacked build
and solve); the plug-in sweep on a layered network was recorded before
plug-in sweeps left their interior points unsolved until the curve is
read; the posterior-mean evaluations on the reference and wide-row
networks were recorded before the posterior-mean row was computed from the
compiled row's alpha; the 200-iteration simulate on the reference network
was recorded before streams were derived 64 at a time. The two plug-in
digests on layered networks were re-recorded once, when plug-in chains
began to be solved as Monte Carlo draws are, over only the stakeholders
the start reaches (42 of 50 and 49 of 60 here): a smaller solve rounds
differently, so numbers moved by at most 1.1e-16, and the ranking order
did not change. They and their CSV digests were re-recorded again when
plug-in sweeps and rankings began to read their endpoints, impact ratios
and curves off one solve of the base chain in closed form: endpoints and
curve points moved by at most 1.1e-16, and impact ratios, no longer a
difference of nearly equal endpoints, by up to 2.0e-9 relative (6.5e-19
absolute); the ranking order did not change. They were re-recorded a
third time when the base solve began to read the raw rows as
build_canonical stores them, each divided by its sum, so that raw evaluate
reads the same solve: endpoints and curve points moved by at most 1.1e-16
and impact ratios by at most 9.4e-16 relative, and the ranking order did
not change. They were re-recorded a fourth time when the closed form
began to read the zero-discard row as the raw row without its DI share,
renormalised, rather than apply a rank-one update for their difference:
zero-discard endpoints and curve points moved by at most 5.6e-17 and
impact ratios by at most 4.4e-16 relative, total-discard endpoints did not
move, and the ranking order did not change. All were recorded with numpy 2.4.6 on OpenBLAS 0.3.31
(scipy-openblas, x86-64), and every later engine must reproduce them bit
for bit. The wide-row network has rows of 8 to 12 targets, where a change
in how a row is summed shows in the last bits. A different numpy or BLAS
may legitimately round differently; re-record only from a commit whose
draws are known to be right.

The CSV digests pin the `--format csv` bytes of the same commands on the
same networks and seeds, one per table layout (simulate, sweep, rank,
evaluate, and validate on a network with violations, whose report exits
1). They were recorded before the CSV writer read every command's rows
from one table, and a repr-precision float or a quoted field that changes
shows in them.
"""

import hashlib
import json

import pytest
from helpers import document_bytes, layered_network, wide_row_network

import infoflow
from infoflow.cli import cli_main

GOLDEN = {
    "rank-mc-reference": "db2917b33833a8b73f98647cbb14ecd2586da4d93bb233c909838447267eef24",
    "simulate-wide-row": "1547742a7e2e8e5cd13983723962f81c7c45d234ca36804f1397d755a898efcc",
    "rank-plugin-layered": "279ba83be6f11d6eab86fe42335665e21709f489dd1051605844bfd1c81c8474",
    "sweep-mc-wide-row": "a207add13a0725325dae29cae47b299fbcf5bac44178a71b6f6c7510cb13d5e1",
    "sweep-plugin-layered": "337c149acbe67ac858fa2e6b9d84ecef1912f891752b1561a9cda7494063c772",
    "evaluate-posterior-mean-reference": "e6fc1a8992254be6f3f5fca3f862b2c7a7bcdffef4051c25fdb794b3c0dee11c",
    "evaluate-posterior-mean-wide-row": "e09582f2f198a094d15f011d8dffe2022d0aaae057f058d27912794a48c82216",
    "simulate-reference-200": "7c13707e404e3ad3c190fc4d78c170e92c11422ccc254044a8be2e23e43ae54e",
}

GOLDEN_CSV = {
    "simulate-wide-row": "6be1cd01a1456f97e46c598e235bccecf9ca189acf8ab07821ff25ea8c728f09",
    "sweep-mc-wide-row": "a9ecb1e9da9aa285e001fbe55a31366b5acc1d9a8e7caa1ec5618a9b8658dafc",
    "sweep-plugin-layered": "27fab39e20f1808ab12db74f0ded4019d87646e371352c02c8fa035b06730c46",
    "rank-mc-reference": "c447a0c19fea87b827ce034567ac784fc230066ae213545dcdb035ed18d8c51f",
    "rank-plugin-layered": "2c273ce5cda7278cb5cf6f39bfde91dc9c81922d60b0f68b3db3eed65352bc24",
    "evaluate-posterior-mean-wide-row": "d807bd4333b505ca3a2a360c1296f32f4efe7e53d8581a5160b94a73f720d748",
    "validate-invalid": "eb9ea4c19052b6d2848b74d59880ec5945198386be0279e1e6576e929227bc07",
}


@pytest.fixture()
def wide_row_path(tmp_path):
    path = tmp_path / "wide_row_network.json"
    path.write_bytes(document_bytes(wide_row_network()))
    return path


def stdout_digest(argv, capsys, code=0):
    assert cli_main(argv) == code
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_rank_mc_on_reference_network(capsys):
    argv = ["rank", "--mode", "mc", "--iterations", "60", "--seed", "101",
            str(infoflow.reference_network_path())]
    assert stdout_digest(argv, capsys) == GOLDEN["rank-mc-reference"]


def test_simulate_across_stream_blocks_on_reference_network(capsys):
    # 200 iterations span four of rng's 64-stream blocks, the last partly
    # used, under the largest seed.
    argv = ["simulate", "--iterations", "200", "--seed", str(2**64 - 1),
            str(infoflow.reference_network_path())]
    assert stdout_digest(argv, capsys) == GOLDEN["simulate-reference-200"]


def test_simulate_on_wide_row_network(wide_row_path, capsys):
    argv = ["simulate", "--iterations", "50", "--seed", "101", str(wide_row_path)]
    assert stdout_digest(argv, capsys) == GOLDEN["simulate-wide-row"]


def test_rank_plugin_on_layered_network(tmp_path, capsys):
    path = tmp_path / "layered_network.json"
    path.write_bytes(document_bytes(layered_network(50, 7)))
    argv = ["rank", "--mode", "plugin", "--iterations", "1", "--seed", "101", str(path)]
    assert stdout_digest(argv, capsys) == GOLDEN["rank-plugin-layered"]


def test_sweep_mc_on_wide_row_network(wide_row_path, capsys):
    argv = ["sweep", "--mode", "mc", "--stakeholder", "W05", "--iterations", "30",
            "--seed", "101", str(wide_row_path)]
    assert stdout_digest(argv, capsys) == GOLDEN["sweep-mc-wide-row"]


def test_sweep_plugin_on_layered_network(tmp_path, capsys):
    path = tmp_path / "layered_network.json"
    path.write_bytes(document_bytes(layered_network(60, 4)))
    argv = ["sweep", "--mode", "plugin", "--stakeholder", "N035", "--iterations", "1",
            "--seed", "101", str(path)]
    assert stdout_digest(argv, capsys) == GOLDEN["sweep-plugin-layered"]


def test_evaluate_posterior_mean_on_reference_network(capsys):
    argv = ["evaluate", "--mode", "posterior-mean", str(infoflow.reference_network_path())]
    assert stdout_digest(argv, capsys) == GOLDEN["evaluate-posterior-mean-reference"]


def test_evaluate_posterior_mean_on_wide_row_network(wide_row_path, capsys):
    argv = ["evaluate", "--mode", "posterior-mean", str(wide_row_path)]
    assert stdout_digest(argv, capsys) == GOLDEN["evaluate-posterior-mean-wide-row"]


# A network with four violations; the id with a comma and a double quote
# makes the CSV writer quote its violation lines.
_INVALID = {
    "stakeholders": [{"id": "A", "level": "federal"},
                     {"id": 'X, "depot"', "level": "county"}],
    "start": "A",
    "flows": [{"from": "A", "to": 'X, "depot"', "frequency": 5},
              {"from": "A", "to": 'X, "depot"', "frequency": 1},
              {"from": 'X, "depot"', "to": "Q", "frequency": -2},
              {"from": "A", "to": "S", "frequency": 1}],
}


def _wide():
    return document_bytes(wide_row_network())


_CSV_CASES = [
    ("simulate-wide-row", ["simulate", "--iterations", "50", "--seed", "101"], _wide, 0),
    ("sweep-mc-wide-row", ["sweep", "--mode", "mc", "--stakeholder", "W05",
                           "--iterations", "30", "--seed", "101"], _wide, 0),
    ("sweep-plugin-layered", ["sweep", "--mode", "plugin", "--stakeholder", "N035",
                              "--iterations", "1", "--seed", "101"],
     lambda: document_bytes(layered_network(60, 4)), 0),
    ("rank-mc-reference", ["rank", "--mode", "mc", "--iterations", "60", "--seed", "101"],
     infoflow.reference_network_path().read_bytes, 0),
    ("rank-plugin-layered", ["rank", "--mode", "plugin", "--iterations", "1", "--seed", "101"],
     lambda: document_bytes(layered_network(50, 7)), 0),
    ("evaluate-posterior-mean-wide-row", ["evaluate", "--mode", "posterior-mean"], _wide, 0),
    ("validate-invalid", ["validate"], lambda: json.dumps(_INVALID).encode("utf-8"), 1),
]


@pytest.mark.parametrize("name, argv, network, code", _CSV_CASES,
                         ids=[case[0] for case in _CSV_CASES])
def test_csv_report(tmp_path, capsys, name, argv, network, code):
    # `network` makes the document's bytes.
    path = tmp_path / "network.json"
    path.write_bytes(network())
    argv = [*argv, "--format", "csv", str(path)]
    assert stdout_digest(argv, capsys, code) == GOLDEN_CSV[name]
