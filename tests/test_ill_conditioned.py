"""Absorption probabilities whose reported rows miss a sum of 1 are refused.

On a loop whose flow almost never leaves it, I - Q is so ill-conditioned
that the solve loses digits while every entry of B stays finite. The
public absorption_probabilities checks every row of B it returns against
markov.ROW_SUM_TOL and raises SingularSystemError. The program itself
solves only the stakeholders the start reaches and checks only the start
stakeholder's triples: Monte Carlo and plug-in evaluate through the
simulation engine's staged solve, plug-in sweeps and rankings through
closed forms read off one solve of the reached raw-frequency chain. So a
sticky loop the start cannot reach never stops it, even where its I - Q
is exactly singular; one the start reaches is refused.
"""

import json

import numpy as np
import pytest
from helpers import document_bytes, reachable_plug_in_absorption

import infoflow
from infoflow.cli import cli_main
from infoflow.errors import SingularSystemError
from infoflow.markov import absorption_probabilities
from infoflow.network import plug_in_chain
from infoflow.sensitivity import sweep_ineffective
from infoflow.simulation import draw_samples

STICKY = 1e12  # sums miss 1 by about 1e-5
SINGULAR = 1e17  # q_AB * q_BA rounds to 1, so I - Q is exactly singular
LOOSE = 1e3  # sums miss 1 by about 1e-13


def sticky_loop(frequency):
    """A and B pass information to each other `frequency` times for each
    time A satisfies it or B leaves it unsatisfied."""
    return {
        "stakeholders": [{"id": "A", "level": "state"}, {"id": "B", "level": "local"}],
        "start": "A",
        "flows": [
            {"from": "A", "to": "B", "frequency": frequency},
            {"from": "B", "to": "A", "frequency": frequency},
            {"from": "A", "to": "S", "frequency": 1},
            {"from": "B", "to": "US", "frequency": 1},
        ],
    }


def spec(frequency):
    return infoflow.parse_network(document_bytes(sticky_loop(frequency)))


class TestStickyLoopIsRefused:
    def test_simulate(self):
        with pytest.raises(
            SingularSystemError,
            match=r"^iteration 0: absorption probabilities sum to \S+, not 1; "
            r"I - Q is too ill-conditioned$",
        ):
            draw_samples(spec(STICKY), 20, 1)

    @pytest.mark.parametrize("mode", ["raw", "posterior-mean"])
    def test_plug_in_evaluate(self, mode):
        with pytest.raises(
            SingularSystemError,
            match=r"^absorption probabilities of row 0 \('A'\) sum to \S+, not 1; "
            r"I - Q is too ill-conditioned$",
        ):
            absorption_probabilities(plug_in_chain(spec(STICKY), mode))

    @pytest.mark.parametrize("mode", ["raw", "posterior-mean"])
    def test_plug_in_evaluate_cli_refuses_a_singular_loop(self, tmp_path, capsys, mode):
        path = tmp_path / "singular.json"
        path.write_bytes(document_bytes(sticky_loop(SINGULAR)))
        assert cli_main(["evaluate", "--mode", mode, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: I - Q is singular"]

    @pytest.mark.parametrize("mode", ["plugin", "mc"])
    def test_sweep(self, mode):
        # Zero discard keeps the loop; four increments keep the grid small.
        with pytest.raises(SingularSystemError, match="I - Q is too ill-conditioned$"):
            sweep_ineffective(spec(STICKY), "B", 5, 1, mode, increment=STICKY / 4)

    def test_cli_exits_1_with_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "sticky.json"
        path.write_bytes(document_bytes(sticky_loop(STICKY)))
        assert cli_main(["simulate", "--iterations", "20", "--seed", "1", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: iteration 0: ")


class TestLooseLoopPasses:
    def test_simulate(self):
        samples = draw_samples(spec(LOOSE), 200, 1)
        np.testing.assert_allclose(samples.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["raw", "posterior-mean"])
    def test_plug_in_evaluate(self, mode):
        b = absorption_probabilities(plug_in_chain(spec(LOOSE), mode)).b
        np.testing.assert_allclose(b.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["plugin", "mc"])
    def test_sweep(self, mode):
        sw = sweep_ineffective(spec(LOOSE), "B", 5, 1, mode, increment=LOOSE / 4)
        np.testing.assert_allclose(sw.means.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_cli(self, tmp_path, capsys):
        path = tmp_path / "loose.json"
        path.write_bytes(document_bytes(sticky_loop(LOOSE)))
        assert cli_main(["simulate", "--iterations", "20", "--seed", "1", str(path)]) == 0
        assert "error" not in capsys.readouterr().err


def unreachable_loop(frequency=SINGULAR):
    """Start Z reaches only C; the sticky A-B loop is valid but unreachable."""
    doc = sticky_loop(frequency)
    doc["stakeholders"] += [{"id": "Z", "level": "federal"}, {"id": "C", "level": "state"}]
    doc["start"] = "Z"
    doc["flows"] += [
        {"from": "Z", "to": "C", "frequency": 3},
        {"from": "Z", "to": "DI", "frequency": 1},
        {"from": "C", "to": "S", "frequency": 2},
        {"from": "C", "to": "US", "frequency": 1},
    ]
    return doc


class TestUnreachableLoopIsNotSolved:
    @pytest.mark.parametrize("argv, key", [
        (["simulate"], "samples"),
        (["sweep", "--mode", "mc", "--stakeholder", "C"], "means"),
    ], ids=["simulate", "sweep-mc"])
    def test_monte_carlo_cli(self, tmp_path, capsys, argv, key):
        path = tmp_path / "unreachable.json"
        path.write_bytes(document_bytes(unreachable_loop()))
        assert cli_main([*argv, "--iterations", "20", "--seed", "1", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "error" not in err
        triples = np.array(json.loads(out)["result"][key])
        np.testing.assert_allclose(triples.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("argv", [
        ["evaluate"],
        ["sweep", "--stakeholder", "C", "--iterations", "5", "--seed", "1", "--format", "csv"],
    ], ids=["evaluate", "sweep-mc-csv"])
    def test_a_loop_declared_after_the_reached_rows(self, tmp_path, capsys, argv):
        # Z and C come first, so C, swept without a flow to DI, is a row in
        # the middle of the plan, which the sweep's layout plan gives a DI
        # cell; the singular loop's rows follow it.
        doc = unreachable_loop()
        doc["stakeholders"] = doc["stakeholders"][2:] + doc["stakeholders"][:2]
        path = tmp_path / "unreached.json"
        path.write_bytes(document_bytes(doc))
        assert cli_main([*argv, str(path)]) == 0
        out, err = capsys.readouterr()
        assert "error" not in err
        if argv == ["evaluate"]:
            result = json.loads(out)["result"]
            triples = np.array([[result["p_di"], result["p_s"], result["p_us"]]])
            np.testing.assert_allclose(triples, [[0.25, 0.5, 0.25]], rtol=0, atol=1e-15)
        else:
            header, *rows = out.splitlines()
            assert header == "n_di,mean_p_di,mean_p_s,mean_p_us"
            triples = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
            assert len(triples) == 4  # n_di 0..3
        np.testing.assert_allclose(triples.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_plug_in_evaluate_still_refuses(self, tmp_path, capsys):
        # Without its exits to S and US the unreached loop is stuck, not
        # sticky: validation refuses the network before anything is solved.
        doc = unreachable_loop()
        doc["flows"] = [f for f in doc["flows"]
                        if f["from"] not in ("A", "B") or f["to"] in ("A", "B")]
        path = tmp_path / "stuck.json"
        path.write_bytes(document_bytes(doc))
        assert cli_main(["evaluate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: no absorbing state reachable from stakeholder '{sid}'" for sid in "AB"]

    @pytest.mark.parametrize("frequency", [STICKY, SINGULAR], ids=["sticky", "singular"])
    @pytest.mark.parametrize("mode", ["raw", "posterior-mean"])
    def test_plug_in_evaluate_solves_around_a_sticky_loop(self, tmp_path, capsys, mode, frequency):
        # Only Z and C are solved, so the loop's I - Q, ill-conditioned at
        # 1e12 and exactly singular at 1e17, never is.
        path = tmp_path / "unreachable.json"
        path.write_bytes(document_bytes(unreachable_loop(frequency)))
        assert cli_main(["evaluate", "--mode", mode, str(path)]) == 0
        out, err = capsys.readouterr()
        assert "error" not in err
        result = json.loads(out)["result"]
        got = [result["p_di"], result["p_s"], result["p_us"]]
        loop = infoflow.parse_network(path.read_bytes())
        assert np.array_equal(got, reachable_plug_in_absorption(loop, mode))
        assert sum(got) == pytest.approx(1, abs=1e-12)

    def test_plug_in_rank_solves_around_a_sticky_loop(self, tmp_path, capsys):
        path = tmp_path / "unreachable.json"
        path.write_bytes(document_bytes(unreachable_loop(STICKY)))
        assert cli_main(["rank", "--mode", "plugin", "--iterations", "1", "--seed", "1",
                         str(path)]) == 0
        out, err = capsys.readouterr()
        assert "error" not in err
        assert [e["stakeholder"] for e in json.loads(out)["result"]["ranking"]] == ["C", "A", "B"]
        # The ranked sweeps' chains, on grids of a few points each.
        loop = infoflow.parse_network(document_bytes(unreachable_loop(STICKY)))
        for sid in ("A", "B", "C"):
            total = sum(f.frequency for f in loop.flows if f.source == sid)
            sw = sweep_ineffective(loop, sid, 1, 1, "plugin", increment=total / 4)
            np.testing.assert_allclose(sw.means.sum(axis=1), 1.0, rtol=0, atol=1e-12)
