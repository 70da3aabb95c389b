import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    cyclic_spec,
    document_bytes,
    layered_network,
    reachable_plug_in_absorption,
    sum_order_spec,
    unreached_spec,
    wide_row_network,
)

import infoflow
from infoflow import network, sensitivity, simulation
from infoflow.cli import cli_main
from infoflow.documents import network_to_document
from infoflow.errors import SingularSystemError
from infoflow.markov import absorption_probabilities
from infoflow.network import plug_in_chain
from infoflow.rng import stream


@pytest.fixture(scope="module")
def net_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "reference_network.json"
    path.write_bytes(infoflow.reference_network_path().read_bytes())
    return path


UNDERFLOW_NETWORK = {
    "stakeholders": [{"id": s, "level": "local"} for s in "ABCE"],
    "start": "A",
    "flows": [{"from": a, "to": b, "frequency": f} for a, b, f in [
        ("A", "B", 1), ("A", "S", 1), ("B", "C", 5e-324), ("B", "E", 2), ("C", "S", 1),
        ("E", "B", 1)]],
}


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

    def test_a_flow_whose_share_underflows_to_zero_is_no_flow(self, tmp_path, capsys):
        # B -> C is positive, but 5e-324 / 2 rounds to 0, so the raw-frequency
        # chain has no B -> C cell and B and E only pass flow to each other.
        path = tmp_path / "underflow.json"
        path.write_bytes(document_bytes(UNDERFLOW_NETWORK))
        unreached = [f"no absorbing state reachable from stakeholder '{s}'" for s in "BE"]
        assert cli_main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"violation: {v}" for v in unreached]
        assert json.loads(captured.out)["result"] == {"ok": False, "violations": unreached}
        assert cli_main(["evaluate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {v}" for v in unreached]

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["evaluate"],
        ["simulate", "--iterations", "3", "--seed", "1"],
        ["sweep", "--mode", "plugin", "--stakeholder", "A", "--iterations", "1", "--seed", "1"],
    ], ids=["validate", "evaluate", "simulate", "sweep-plugin"])
    def test_overflowing_total_outflow_is_a_violation(self, tmp_path, capsys, argv):
        # Both frequencies are finite; their sum is not. Refused before any
        # computation, so no numpy warning reaches stderr.
        path = tmp_path / "overflow.json"
        path.write_text(
            '{"stakeholders": [{"id": "A", "level": "federal"}, {"id": "B", "level": "state"}],'
            ' "start": "A", "flows": [{"from": "A", "to": "B", "frequency": 1e308},'
            ' {"from": "A", "to": "S", "frequency": 1e308}, {"from": "B", "to": "S", "frequency": 1}]}'
        )
        assert cli_main([*argv, str(path)]) == 1
        captured = capsys.readouterr()
        prefix = "violation" if argv == ["validate"] else "error"
        assert captured.err == f"{prefix}: non-finite total outflow inf of stakeholder 'A'\n"

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["evaluate"],
        ["simulate", "--iterations", "3", "--seed", "1"],
        ["sweep", "--stakeholder", "B", "--iterations", "1", "--seed", "1"],
        ["rank", "--mode", "plugin", "--iterations", "1", "--seed", "1"],
    ], ids=["validate", "evaluate", "simulate", "sweep", "rank-plugin"])
    def test_a_row_total_is_summed_as_its_chain_divides_by_it(self, tmp_path, capsys, argv):
        path = tmp_path / "sum-order.json"
        path.write_bytes(document_bytes(network_to_document(sum_order_spec())))
        unreached = [f"no absorbing state reachable from stakeholder '{s}'"
                     for s in ["B", "E1", "E2", "E3", "E4"]]
        assert cli_main([*argv, str(path)]) == 1
        captured = capsys.readouterr()
        if argv == ["validate"]:
            assert captured.err.splitlines() == [f"violation: {v}" for v in unreached]
            assert json.loads(captured.out)["result"] == {"ok": False, "violations": unreached}
        else:
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: {v}" for v in unreached]


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

    @pytest.mark.parametrize("argv", [
        ["simulate", "--iterations", "0", "--seed", "1"],
        ["simulate", "--iterations", "5", "--seed", "1", "--bins", "0"],
        ["sweep", "--stakeholder", "D", "--iterations", "0", "--seed", "1"],
        ["sweep", "--mode", "plugin", "--stakeholder", "D", "--iterations", "-1", "--seed", "1"],
        ["rank", "--mode", "mc", "--iterations", "-3", "--seed", "1"],
        ["rank", "--mode", "plugin", "--iterations", "0", "--seed", "1"],
    ], ids=["simulate-iterations", "simulate-bins", "sweep-mc", "sweep-plugin",
            "rank-mc", "rank-plugin"])
    def test_count_below_one_is_a_usage_error(self, net_path, capsys, argv):
        assert cli_main([*argv, str(net_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be a positive integer" in captured.err
        assert "Traceback" not in captured.err

    def test_non_integer_count_is_a_usage_error(self, net_path, capsys):
        assert cli_main(["simulate", "--iterations", "x", "--seed", "1", str(net_path)]) == 2
        assert "argument --iterations: invalid int value: 'x'" in capsys.readouterr().err


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

    @pytest.mark.parametrize("mode", ["raw", "posterior-mean"])
    @pytest.mark.parametrize("network", ["reference", "cyclic", "wide_row", "layered"])
    def test_equals_the_public_chain_bit_for_bit(self, tmp_path, capsys, network, mode):
        # The report's floats round-trip through JSON exactly.
        doc = {
            "reference": lambda: json.loads(infoflow.reference_network_path().read_bytes()),
            "cyclic": lambda: network_to_document(cyclic_spec()),
            "wide_row": wide_row_network,
            "layered": lambda: layered_network(60, 4),
        }[network]()
        path = tmp_path / "net.json"
        path.write_bytes(document_bytes(doc))
        assert cli_main(["evaluate", "--mode", mode, str(path)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        spec = infoflow.parse_network(path.read_bytes())
        got = [result["p_di"], result["p_s"], result["p_us"]]
        # Exactly the chain restricted to the stakeholders the start reaches
        # (49 of 60 on the layered network, all on the others), and within
        # rounding of the whole chain.
        assert np.array_equal(got, reachable_plug_in_absorption(spec, mode))
        whole = absorption_probabilities(plug_in_chain(spec, mode)).row(spec.start)
        np.testing.assert_allclose(got, whole, rtol=0, atol=1e-15)


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
        code = cli_main(["simulate", str(net_path), "--iterations", "150", "--seed", "3",
                         "--bins", "20", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["iterations"] == 150 and report["seed"] == 3
        assert len(report["result"]["samples"]) == 150
        assert len(report["result"]["histogram"]["counts"]) == 20
        assert sum(report["result"]["histogram"]["counts"]) == 150
        assert len(report["input_digest"]) == 64

    def test_csv_lists_samples(self, net_path, tmp_path):
        out = tmp_path / "sim.csv"
        code = cli_main(["simulate", str(net_path), "--iterations", "10", "--seed", "3",
                         "--format", "csv", "--output", str(out)])
        assert code == 0
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

    def test_a_refused_plugin_curve_is_one_error_line(self, net_path, capsys, monkeypatch):
        # A plug-in sweep checks its endpoints, then its curve as the report
        # is built; the summary line is printed only once both pass.
        real, calls = sensitivity._checked, []

        def checked(triples):
            calls.append(len(triples))
            if len(calls) == 2:
                raise SingularSystemError("I - Q is singular")
            return real(triples)

        monkeypatch.setattr(sensitivity, "_checked", checked)
        assert cli_main(["sweep", "--mode", "plugin", "--stakeholder", "D",
                         "--iterations", "1", "--seed", "1", str(net_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: I - Q is singular"]
        assert calls == [2, 31]  # the endpoints, then the curve over n_di 0..30

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

    def test_plugin_ranking_orders_every_stakeholder_by_its_endpoints(self, net_path, capsys):
        # Each ratio is computed in closed form, not as the endpoints'
        # difference, yet agrees with it.
        assert cli_main(["rank", "--mode", "plugin", "--iterations", "1", "--seed", "1",
                         str(net_path)]) == 0
        ranking = json.loads(capsys.readouterr().out)["result"]["ranking"]
        assert [entry["stakeholder"] for entry in ranking] == ["E", "C", "D", "B"]
        for entry in ranking:
            drop = (entry["p_s_max"] - entry["p_s_min"]) / entry["n_di_max"]
            assert abs(entry["impact_ratio"] - drop) <= 1e-12, entry

    def test_rank_csv_layout(self, net_path, tmp_path):
        out = tmp_path / "rank.csv"
        code = cli_main(["rank", str(net_path), "--iterations", "1", "--seed", "0",
                         "--mode", "plugin", "--format", "csv", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "stakeholder,n_di_min,n_di_max,p_s_min,p_s_max,impact_ratio"
        assert lines[1].startswith("E,")

    def test_monte_carlo_ranking_of_stakeholders_the_start_cannot_reach(self, tmp_path, capsys):
        # The start Z reaches C only. A and B total about 1e17, a discard
        # grid that cannot be built; only zero discard is drawn for them, so
        # their ratio is exactly 0. C's entry is a lone sweep's.
        path = tmp_path / "unreached.json"
        path.write_bytes(document_bytes(network_to_document(unreached_spec())))
        args = ["--iterations", "5", "--seed", "1", str(path)]
        assert cli_main(["rank", *args]) == 0
        ranking = json.loads(capsys.readouterr().out)["result"]["ranking"]
        entries = {entry["stakeholder"]: entry for entry in ranking}
        for sid in "AB":
            assert entries[sid]["impact_ratio"] == 0.0
            assert entries[sid]["p_s_min"] == entries[sid]["p_s_max"]
        assert cli_main(["sweep", "--stakeholder", "C", *args]) == 0
        alone = json.loads(capsys.readouterr().out)["result"]
        for key in ("p_s_max", "p_s_min", "impact_ratio"):
            assert entries["C"][key] == alone[key]

    @pytest.mark.parametrize("mode, name", [("mc", "monte-carlo"), ("plugin", "plug-in")])
    def test_empty_ranking_reports_the_canonical_mode(self, tmp_path, capsys, mode, name):
        # The start is the only stakeholder, so nothing is swept.
        path = tmp_path / "lone.json"
        path.write_text(json.dumps({
            "stakeholders": [{"id": "A", "level": "state"}],
            "start": "A",
            "flows": [{"from": "A", "to": "S", "frequency": 3}],
        }))
        assert cli_main(["rank", "--mode", mode, "--iterations", "2", "--seed", "1",
                         str(path)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result == {"mode": name, "ranking": []}


def _write(tmp_path, name, flows):
    # Start A feeds X and S; `flows` are X's outflows.
    path = tmp_path / name
    path.write_text(json.dumps({
        "stakeholders": [{"id": "A", "level": "federal"}, {"id": "X", "level": "local"}],
        "start": "A",
        "flows": [{"from": "A", "to": "X", "frequency": 3},
                  {"from": "A", "to": "S", "frequency": 2}, *flows],
    }))
    return path


class TestRefusedComputations:
    # Each run asks numpy for more than 64 PiB (2.08 EiB of samples, or a
    # 711 PiB discard grid for X's total outflow of 1e17), which no machine
    # grants, or for more than numpy's size limit (9.6e18 bytes of samples
    # for 4e17 iterations, 1e19 grid points, or 1e20 + 1 histogram edges),
    # which numpy refuses with a ValueError; so nothing is allocated. A
    # length that rounds to 2**63 (2**63 - 1 to 2**63 + 1 histogram edges,
    # 2**63 grid points), which np.linspace and np.arange would wrap to an
    # empty array, is refused before numpy is asked.
    @pytest.mark.parametrize("argv, outflow, message", [
        (["simulate", "--iterations", "100000000000000000", "--seed", "1"], None,
         "Unable to allocate "),
        (["sweep", "--stakeholder", "X", "--iterations", "1", "--seed", "1"], 1e17,
         "Unable to allocate "),
        (["rank", "--iterations", "1", "--seed", "1"], 1e17, "Unable to allocate "),
        (["simulate", "--iterations", "400000000000000000", "--seed", "1"], None,
         "array is too big"),
        (["sweep", "--mode", "plugin", "--stakeholder", "X", "--iterations", "1",
          "--seed", "1"], 1e19, "Maximum allowed size exceeded"),
        (["simulate", "--iterations", "3", "--seed", "1", "--bins", "100000000000000000000"],
         None, "Maximum allowed size exceeded"),
        (["simulate", "--iterations", "3", "--seed", "1", "--bins", "9223372036854775806"],
         None, "Maximum allowed size exceeded"),
        (["simulate", "--iterations", "3", "--seed", "1", "--bins", "9223372036854775807"],
         None, "Maximum allowed size exceeded"),
        (["simulate", "--iterations", "3", "--seed", "1", "--bins", "9223372036854775808"],
         None, "Maximum allowed size exceeded"),
        (["simulate", "--iterations", "3", "--seed", "1", "--bins", str(10**400)],
         None, "Maximum allowed size exceeded"),
        (["sweep", "--stakeholder", "X", "--iterations", "1", "--seed", "1"], 2.0**63,
         "Maximum allowed size exceeded"),
        (["sweep", "--mode", "plugin", "--stakeholder", "X", "--iterations", "1",
          "--seed", "1"], 2.0**63, "Maximum allowed size exceeded"),
    ], ids=["simulate", "sweep", "rank", "simulate-size-limit", "sweep-size-limit",
            "bins-size-limit", "bins-2**63-2", "bins-2**63-1", "bins-2**63", "bins-10**400",
            "sweep-2**63-points", "sweep-plugin-2**63-points"])
    def test_out_of_memory_is_one_error_line(
        self, net_path, tmp_path, capsys, argv, outflow, message
    ):
        if outflow is None:
            path = net_path
        else:
            path = _write(tmp_path, "huge.json", [{"from": "X", "to": "S", "frequency": outflow}])
        assert cli_main([*argv, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: out of memory: {message}")

    def test_an_impossible_histogram_is_refused_before_any_draw(
        self, net_path, capsys, monkeypatch
    ):
        calls = []

        def counted(*path):
            calls.append(path)
            return stream(*path)

        monkeypatch.setattr(simulation, "stream", counted)
        assert cli_main(["simulate", "--iterations", "3", "--seed", "1",
                         "--bins", "100000000000000000000", str(net_path)]) == 1
        assert capsys.readouterr().err.startswith("error: out of memory: ")
        assert calls == []

    @pytest.mark.parametrize("bins", [2**50, 2**60 - 66, 2**60, 2**62, 2**63 - 514],
                             ids=["2**50", "2**60-66", "2**60", "2**62", "2**63-514"])
    def test_histogram_bytes_past_the_size_limit_are_refused_before_any_draw(
        self, net_path, capsys, monkeypatch, bins
    ):
        # bins + 1 edges fit np.intp, but their 8 * (bins + 1) bytes do not
        # fit numpy's size limit (2**60 and up) or any memory (8 PiB for
        # 2**50, 8 EiB for 2**60 - 66). The edges are built before the first
        # draw, so either refusal comes first.
        calls = []

        def counted(*path):
            calls.append(path)
            return stream(*path)

        monkeypatch.setattr(simulation, "stream", counted)
        assert cli_main(["simulate", "--iterations", "300", "--seed", "1",
                         "--bins", str(bins), str(net_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: out of memory: ")
        assert calls == []

    def test_plug_in_rank_never_builds_the_discard_grid(self, tmp_path, capsys):
        # X's total outflow of 1e12 makes a 7.28 TiB grid, but a plug-in
        # ranking reads its endpoints off one base solve and never builds it.
        path = _write(tmp_path, "wide.json", [{"from": "X", "to": "S", "frequency": 5e11},
                                              {"from": "X", "to": "US", "frequency": 5e11}])
        assert cli_main(["rank", "--mode", "plugin", "--iterations", "1", "--seed", "1",
                         str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["X: impact ratio 0.00000"]
        [entry] = json.loads(captured.out)["result"]["ranking"]
        assert (entry["stakeholder"], entry["n_di_min"], entry["n_di_max"]) == ("X", 0.0, 1e12)
        assert entry["p_s_max"] == pytest.approx(0.7) and entry["p_s_min"] == pytest.approx(0.4)
        assert entry["impact_ratio"] == pytest.approx(0.3 / 1e12)

    @pytest.mark.parametrize("argv", [
        ["rank", "--mode", "plugin"], ["rank", "--mode", "mc"],
        ["sweep", "--mode", "plugin", "--stakeholder", "X"],
        ["sweep", "--mode", "mc", "--stakeholder", "X"],
    ], ids=["rank-plugin", "rank-mc", "sweep-plugin", "sweep-mc"])
    def test_a_tiny_total_outflow_still_sweeps(self, tmp_path, capsys, argv):
        # X's total outflow of 2e-10 is within 1e-9 of one increment of 0,
        # but its discard grid still runs from 0 to it.
        path = _write(tmp_path, "tiny.json", [{"from": "X", "to": "S", "frequency": 1e-10},
                                              {"from": "X", "to": "US", "frequency": 1e-10}])
        assert cli_main([*argv, "--iterations", "2", "--seed", "1", str(path)]) == 0
        captured = capsys.readouterr()
        result = json.loads(captured.out)["result"]
        if argv[0] == "sweep":
            assert result["n_di_values"] == [0.0, 2e-10]
        else:
            [entry] = result["ranking"]
            assert (entry["n_di_min"], entry["n_di_max"]) == (0.0, 2e-10)
        if argv[:3] == ["rank", "--mode", "plugin"]:  # (0.7 - 0.4) / 2e-10
            assert captured.err.splitlines() == ["X: impact ratio 1500000000.00000"]

    @pytest.mark.parametrize("mode", ["mc", "plugin"])
    @pytest.mark.parametrize("flows, reason", [
        ([], "counts contain no non-DI entries"),
        ([{"from": "X", "to": "S", "frequency": 0}, {"from": "X", "to": "US", "frequency": 0}],
         "all outflow is already discarded; nothing to scale back up"),
    ], ids=["di-only", "zero-others"])
    def test_rank_names_a_discard_only_stakeholder(self, tmp_path, capsys, flows, reason, mode):
        path = _write(tmp_path, "di.json", [{"from": "X", "to": "DI", "frequency": 4}, *flows])
        assert cli_main(["simulate", "--iterations", "2", "--seed", "1", str(path)]) == 0
        capsys.readouterr()
        assert cli_main(["rank", "--mode", mode, "--iterations", "2", "--seed", "1",
                         str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: stakeholder 'X': {reason}"]


_RANK_MC = ["E: impact ratio 0.00753", "C: impact ratio 0.00634",
            "D: impact ratio 0.00587", "B: impact ratio 0.00481"]
_RANK_PLUGIN = ["E: impact ratio 0.00778", "C: impact ratio 0.00636",
                "D: impact ratio 0.00600", "B: impact ratio 0.00555"]
_BAD_NET_VIOLATIONS = [
    "violation: dead-end transient state 'X' (no positive outflow)",
    "violation: no absorbing state reachable from stakeholder 'A'",
    "violation: no absorbing state reachable from stakeholder 'X'",
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv, code, err", [
    (["validate"], 0, ["OK: 5 stakeholders, 13 flows"]),
    (["validate", "bad"], 1, _BAD_NET_VIOLATIONS),
    (["evaluate"], 0, ["A: P_DI=0.300 P_S=0.500 P_US=0.200 (raw plug-in)"]),
    (["evaluate", "--mode", "posterior-mean"], 0,
     ["A: P_DI=0.318 P_S=0.480 P_US=0.201 (posterior-mean plug-in)"]),
    (["simulate", "--iterations", "20", "--seed", "1"], 0,
     ["mean P_S = 0.474 over 20 iterations (seed 1)"]),
    (["sweep", "--stakeholder", "D", "--iterations", "5", "--seed", "1"], 0,
     ["D: P_S 0.518 -> 0.316 over n_di 0..30, impact ratio 0.00673"]),
    (["sweep", "--stakeholder", "D", "--iterations", "5", "--seed", "1", "--mode", "plugin"],
     0, ["D: P_S 0.530 -> 0.350 over n_di 0..30, impact ratio 0.00600"]),
    (["rank", "--iterations", "3", "--seed", "1"], 0, _RANK_MC),
    (["rank", "--iterations", "1", "--seed", "1", "--mode", "plugin"], 0, _RANK_PLUGIN),
], ids=["validate", "validate-invalid", "evaluate-raw", "evaluate-posterior-mean",
        "simulate", "sweep-mc", "sweep-plugin", "rank-mc", "rank-plugin"])
def test_every_command_reports_through_one_tail(
    net_path, bad_net, tmp_path, capsys, argv, code, err, fmt
):
    # Exit code, exact stderr summary, and the same report bytes on stdout
    # and in --output; seed and iterations only for the commands that take
    # them. An argv of ["validate", "bad"] validates the invalid network.
    command, *rest = argv
    path, rest = (bad_net, []) if rest == ["bad"] else (net_path, rest)
    args = [command, *rest, "--format", fmt, str(path)]
    assert cli_main(args) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == err
    out = tmp_path / f"report.{fmt}"
    assert cli_main([*args, "--output", str(out)]) == code
    again = capsys.readouterr()
    assert again.out == ""
    assert again.err == captured.err
    assert out.read_bytes() == captured.out.encode("utf-8")
    if fmt == "json":
        report = json.loads(captured.out)
        assert report["command"] == command
        if command in ("validate", "evaluate"):
            assert report["seed"] is None and report["iterations"] is None
        else:
            assert report["seed"] == int(rest[rest.index("--seed") + 1])
            assert report["iterations"] == int(rest[rest.index("--iterations") + 1])


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["evaluate"],
    ["simulate", "--iterations", "3", "--seed", "1"],
    ["sweep", "--stakeholder", "D", "--iterations", "1", "--seed", "1"],
    ["rank", "--iterations", "1", "--seed", "1"],
], ids=["validate", "evaluate", "simulate", "sweep", "rank"])
def test_every_command_validates_its_network_once(net_path, monkeypatch, capsys, argv):
    # Parsing the document validates the spec; compiling it must not again.
    network._compiled.cache_clear()  # an earlier test may have compiled this spec
    validate, calls = network.validate, []
    monkeypatch.setattr(network, "validate", lambda spec: calls.append(spec) or validate(spec))
    assert cli_main([*argv, str(net_path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


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


def test_validate_leaves_numpy_random_unimported(net_path):
    # Only a command that draws a stream imports numpy.random (10-15 ms).
    src = str(Path(infoflow.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import infoflow\n"
        "from infoflow.cli import cli_main\n"
        "assert 'numpy.random' not in sys.modules, 'imported by import infoflow'\n"
        f"assert cli_main(['validate', {str(net_path)!r}]) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'imported by validate'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
