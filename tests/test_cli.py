import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infoflow
from infoflow.cli import cli_main


@pytest.fixture(scope="module")
def net_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "reference_network.json"
    path.write_bytes(infoflow.reference_network_path().read_bytes())
    return path


@pytest.fixture()
def bad_net(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "stakeholders": [
            {"id": "A", "level": "federal"},
            {"id": "X", "level": "local"},
        ],
        "start": "A",
        "flows": [{"from": "A", "to": "X", "frequency": 5}],
    }))
    return path


class TestValidateCommand:
    def test_ok_network(self, net_path, capsys):
        assert cli_main(["validate", str(net_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["command"] == "validate"
        assert out["result"] == {"ok": True, "violations": []}

    def test_dead_end_network(self, bad_net, capsys):
        assert cli_main(["validate", str(bad_net)]) == 1
        captured = capsys.readouterr()
        assert "dead-end transient state" in captured.err
        assert json.loads(captured.out)["result"]["ok"] is False

    def test_missing_file(self, tmp_path):
        assert cli_main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_duplicate_id_document_gets_a_full_report(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "stakeholders": [{"id": "A", "level": "federal"}, {"id": "A", "level": "moon"}],
            "start": "A",
            "flows": [{"from": "A", "to": "Z", "frequency": 5}],
        }))
        violations = [
            "duplicate stakeholder id 'A'",
            "unknown level 'moon' for stakeholder 'A'",
            "flow to unknown state 'Z'",
        ]
        assert cli_main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["result"] == {"ok": False, "violations": violations}
        assert captured.err.splitlines() == [f"violation: {v}" for v in violations]
        assert cli_main(["evaluate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {v}" for v in violations]

    def test_overflowing_frequency_is_a_violation(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text(
            '{"stakeholders": [{"id": "A", "level": "federal"}], "start": "A",'
            ' "flows": [{"from": "A", "to": "S", "frequency": 1e999}]}'
        )
        assert cli_main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "violation: non-finite frequency inf on flow A->S\n"
        assert json.loads(captured.out)["result"]["ok"] is False


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert cli_main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_option(self, net_path, capsys):
        assert cli_main(["simulate", str(net_path), "--seed", "1"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        capsys.readouterr()


class TestEvaluateCommand:
    def test_raw_mode(self, net_path, capsys):
        assert cli_main(["evaluate", str(net_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["p_s"] == pytest.approx(0.50, abs=1e-12)
        assert out["result"]["mode"] == "raw"

    def test_posterior_mean_mode(self, net_path, capsys):
        assert cli_main(["evaluate", str(net_path), "--mode", "posterior-mean"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["p_s"] == pytest.approx(0.4803, abs=1e-3)

    def test_csv_format(self, net_path, capsys):
        assert cli_main(["evaluate", str(net_path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "start,p_di,p_s,p_us"
        assert lines[1].startswith("A,")


class TestSimulateCommand:
    def test_repeat_runs_are_byte_identical(self, net_path, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code = cli_main([
                "simulate", str(net_path),
                "--iterations", "200", "--seed", "7", "--output", str(out),
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_contents(self, net_path, tmp_path):
        out = tmp_path / "sim.json"
        cli_main(["simulate", str(net_path), "--iterations", "150", "--seed", "3",
                  "--bins", "20", "--output", str(out)])
        report = json.loads(out.read_text())
        assert report["iterations"] == 150 and report["seed"] == 3
        assert len(report["result"]["samples"]) == 150
        assert len(report["result"]["histogram"]["counts"]) == 20
        assert sum(report["result"]["histogram"]["counts"]) == 150
        assert len(report["input_digest"]) == 64

    def test_csv_lists_samples(self, net_path, tmp_path):
        out = tmp_path / "sim.csv"
        cli_main(["simulate", str(net_path), "--iterations", "10", "--seed", "3",
                  "--format", "csv", "--output", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iteration,p_di,p_s,p_us"
        assert len(lines) == 11


class TestSweepCommand:
    def test_plugin_sweep_csv(self, net_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli_main(["sweep", str(net_path), "--stakeholder", "D",
                         "--iterations", "1", "--seed", "0",
                         "--mode", "plugin", "--format", "csv", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n_di,mean_p_di,mean_p_s,mean_p_us"
        assert len(lines) == 32  # 0..30 inclusive
        p_s = [float(line.split(",")[2]) for line in lines[1:]]
        assert p_s == sorted(p_s, reverse=True)

    def test_unknown_stakeholder_is_input_error(self, net_path, capsys):
        assert cli_main(["sweep", str(net_path), "--stakeholder", "Z",
                         "--iterations", "1", "--seed", "0", "--mode", "plugin"]) == 1
        assert "unknown stakeholder" in capsys.readouterr().err


class TestRankCommand:
    def test_ranking_starts_with_most_critical(self, net_path, tmp_path):
        out = tmp_path / "rank.json"
        code = cli_main(["rank", str(net_path), "--iterations", "200",
                         "--seed", "7", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        order = [row["stakeholder"] for row in report["result"]["ranking"]]
        assert order[0] == "E"
        assert set(order) == {"B", "C", "D", "E"}

    def test_rank_csv_layout(self, net_path, tmp_path):
        out = tmp_path / "rank.csv"
        cli_main(["rank", str(net_path), "--iterations", "1", "--seed", "0",
                  "--mode", "plugin", "--format", "csv", "--output", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "stakeholder,n_di_min,n_di_max,p_s_min,p_s_max,impact_ratio"
        assert lines[1].startswith("E,")


def test_module_entry_point(net_path):
    # The child imports the same infoflow this test imported.
    src = str(Path(infoflow.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "infoflow", "evaluate", str(net_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["p_s"] == pytest.approx(0.5)
