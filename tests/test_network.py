import numpy as np
import pytest
from helpers import enumerate_paths_absorption

from infoflow import dirichlet
from infoflow.errors import UnknownStakeholderError, ValidationError
from infoflow.markov import ABSORBING_ORDER, absorption_probabilities, build_canonical
from infoflow.network import (
    FlowRecord,
    NetworkSpec,
    Stakeholder,
    counts_for,
    plug_in_chain,
    sampled_chain,
    validate,
)
from infoflow.rng import stream


def spec_of(flows, ids=None, start=None, levels=None):
    names = ids or sorted({f[0] for f in flows} | {f[1] for f in flows if f[1] not in ("DI", "S", "US")})
    levels = levels or {}
    stakeholders = tuple(Stakeholder(n, levels.get(n, "state")) for n in names)
    records = tuple(FlowRecord(*f) for f in flows)
    return NetworkSpec(stakeholders, records, start or names[0])


class TestValidate:
    def test_reference_network_is_clean(self, reference_spec):
        assert validate(reference_spec).ok

    def test_dead_end_transient_state(self):
        spec = spec_of([("A", "X", 5.0)], ids=["A", "X"])
        report = validate(spec)
        assert any("dead-end transient state" in v for v in report.violations)

    def test_negative_frequency(self):
        spec = spec_of([("A", "S", -3.0)], ids=["A"])
        report = validate(spec)
        assert any("negative frequency" in v for v in report.violations)

    def test_self_loop(self):
        spec = spec_of([("A", "A", 2.0), ("A", "S", 1.0)], ids=["A"])
        assert any("self-loop" in v for v in validate(spec).violations)

    def test_duplicate_flow(self):
        spec = spec_of([("A", "S", 2.0), ("A", "S", 3.0)], ids=["A"])
        assert any("duplicate flow" in v for v in validate(spec).violations)

    def test_unknown_endpoint(self):
        spec = spec_of([("A", "Z", 2.0)], ids=["A"])
        assert any("unknown state 'Z'" in v for v in validate(spec).violations)

    def test_missing_start(self):
        spec = NetworkSpec((Stakeholder("A", "federal"),),
                           (FlowRecord("A", "S", 1.0),), "Q")
        assert any("start" in v for v in validate(spec).violations)

    def test_absorption_unreachable_cycle(self):
        spec = spec_of([("A", "B", 1.0), ("B", "A", 1.0)], ids=["A", "B"])
        assert any("no absorbing state reachable" in v for v in validate(spec).violations)

    def test_disconnected_component_with_absorption_is_fine(self):
        spec = spec_of([("A", "S", 1.0), ("F", "US", 2.0)], ids=["A", "F"], start="A")
        assert validate(spec).ok


@pytest.mark.parametrize("frequency", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_frequency_is_a_violation(frequency):
    spec = spec_of([("A", "B", frequency), ("B", "S", 1.0)], ids=["A", "B"])
    assert validate(spec).violations == (f"non-finite frequency {frequency} on flow A->B",)


def test_validate_matches_a_graph_walk_on_random_networks():
    # Reference: a forward walk from each stakeholder over positive flows.
    rng = np.random.default_rng(5)
    for _ in range(300):
        ids = [f"N{i}" for i in range(int(rng.integers(1, 8)))]
        flows = [
            (a, b, float(rng.choice([0.0, 0.0, 1.0, 3.5])))
            for a in ids
            for b in ids + list(ABSORBING_ORDER)
            if a != b and rng.random() < 0.3
        ]
        out = {a: [b for x, b, c in flows if x == a and c > 0] for a in ids}

        def absorbs(sid):
            seen, todo = set(), [sid]
            while todo:
                s = todo.pop()
                if s in ABSORBING_ORDER:
                    return True
                if s not in seen:
                    seen.add(s)
                    todo.extend(out[s])
            return False

        expected = [f"dead-end transient state '{s}' (no positive outflow)" for s in ids if not out[s]]
        expected += [f"no absorbing state reachable from stakeholder '{s}'" for s in ids if not absorbs(s)]
        assert validate(spec_of(flows, ids=ids)).violations == tuple(expected)


class TestCountsFor:
    def test_reference_b(self, reference_spec):
        cv = counts_for(reference_spec, "B")
        assert cv.labels == ("D", "E", "DI")
        assert cv.counts.tolist() == [30.0, 20.0, 10.0]

    def test_reference_c(self, reference_spec):
        cv = counts_for(reference_spec, "C")
        assert cv.labels == ("E", "DI")
        assert cv.counts.tolist() == [35.0, 5.0]

    def test_single_flow(self):
        spec = spec_of([("A", "S", 7.0)], ids=["A"])
        cv = counts_for(spec, "A")
        assert cv.labels == ("S",)
        assert cv.counts.tolist() == [7.0]

    def test_unknown_stakeholder(self, reference_spec):
        with pytest.raises(UnknownStakeholderError):
            counts_for(reference_spec, "Z")

    def test_label_order_follows_declaration_not_flow_order(self):
        # E declared after D, so D comes first even though its flow is listed last.
        spec = NetworkSpec(
            (Stakeholder("A", "federal"), Stakeholder("D", "local"), Stakeholder("E", "local")),
            (
                FlowRecord("A", "DI", 1.0),
                FlowRecord("A", "E", 2.0),
                FlowRecord("A", "D", 3.0),
                FlowRecord("D", "S", 1.0),
                FlowRecord("E", "S", 1.0),
            ),
            "A",
        )
        assert counts_for(spec, "A").labels == ("D", "E", "DI")
        assert counts_for(spec, "A").counts.tolist() == [3.0, 2.0, 1.0]


class TestPlugInChain:
    def test_raw_row_b(self, reference_spec):
        tm = plug_in_chain(reference_spec, "raw")
        i = tm.state_order.index("B")
        assert tm.q[i, tm.state_order.index("D")] == pytest.approx(0.5)
        assert tm.q[i, tm.state_order.index("E")] == pytest.approx(1 / 3)
        assert tm.r[i, 0] == pytest.approx(1 / 6)  # DI column

    def test_posterior_mean_row_b(self, reference_spec):
        tm = plug_in_chain(reference_spec, "posterior-mean")
        i = tm.state_order.index("B")
        assert tm.q[i, tm.state_order.index("D")] == pytest.approx(31 / 63)
        assert tm.q[i, tm.state_order.index("E")] == pytest.approx(21 / 63)
        assert tm.r[i, 0] == pytest.approx(11 / 63)

    def test_raw_absorption_from_start(self, reference_spec):
        # Closed-form check: with flow-conserving frequencies the raw chain
        # delivers exactly (satisfied outflow of D + of E) / 100.
        row = absorption_probabilities(plug_in_chain(reference_spec, "raw")).row("A")
        np.testing.assert_allclose(row, [0.30, 0.50, 0.20], atol=1e-12)
        np.testing.assert_allclose(row, enumerate_paths_absorption(reference_spec), atol=1e-12)

    def test_state_order_is_declaration_plus_absorbing(self, reference_spec):
        tm = plug_in_chain(reference_spec, "raw")
        assert tm.state_order == ("A", "B", "C", "D", "E", "DI", "S", "US")

    def test_raw_approaches_posterior_mean_under_scaling(self, reference_spec):
        scaled = NetworkSpec(
            reference_spec.stakeholders,
            tuple(FlowRecord(f.source, f.target, f.frequency * 1e6)
                  for f in reference_spec.flows),
            reference_spec.start,
        )
        raw = plug_in_chain(scaled, "raw")
        post = plug_in_chain(scaled, "posterior-mean")
        np.testing.assert_allclose(raw.q, post.q, atol=1e-5)
        np.testing.assert_allclose(raw.r, post.r, atol=1e-5)

    def test_invalid_spec_raises_validation_error(self):
        spec = spec_of([("A", "X", 5.0)], ids=["A", "X"])
        with pytest.raises(ValidationError):
            plug_in_chain(spec, "raw")

    def test_unknown_mode_rejected(self, reference_spec):
        with pytest.raises(ValueError):
            plug_in_chain(reference_spec, "magic")

    def test_bidirectional_flow_produces_cyclic_chain(self):
        spec = spec_of(
            [("X", "Y", 4.0), ("Y", "X", 2.0), ("X", "DI", 1.0), ("Y", "S", 3.0)],
            ids=["X", "Y"],
        )
        tm = plug_in_chain(spec, "raw")
        assert tm.q[0, 1] > 0 and tm.q[1, 0] > 0
        b = absorption_probabilities(tm).b
        np.testing.assert_allclose(b.sum(axis=1), 1.0, atol=1e-12)


class TestSampledChain:
    def test_deterministic_given_seed(self, reference_spec):
        a = sampled_chain(reference_spec, np.random.default_rng(9))
        b = sampled_chain(reference_spec, np.random.default_rng(9))
        assert np.array_equal(a.q, b.q) and np.array_equal(a.r, b.r)

    def test_single_interacting_state_is_degenerate(self):
        spec = spec_of([("A", "S", 5.0)], ids=["A"])
        for seed in range(20):
            tm = sampled_chain(spec, np.random.default_rng(seed))
            assert tm.r[0, 1] == 1.0

    def test_rows_sum_to_one_over_many_draws(self, reference_spec):
        rng = stream(123)
        for _ in range(10_000):
            tm = sampled_chain(reference_spec, rng)
            sums = tm.q.sum(axis=1) + tm.r.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-9

    @staticmethod
    def assert_rows_are_dirichlet_draws(spec, seed):
        # Independent of the engine: one dirichlet.sample per stakeholder, in
        # declaration order, from the same stream, assembled by the public
        # build_canonical (which renormalises each row once more), gives the
        # same chain bit for bit.
        tm = sampled_chain(spec, stream(seed))
        rng = stream(seed)
        n = len(spec.ids)
        qr = np.zeros((n, n + len(ABSORBING_ORDER)))
        for i, sid in enumerate(spec.ids):
            cv = counts_for(spec, sid)
            theta = dirichlet.sample(dirichlet.noninformative_posterior(cv), rng).theta
            for label, p in zip(cv.labels, theta):
                qr[i, tm.state_order.index(label)] = p
        want = build_canonical(qr[:, :n], qr[:, n:], tm.state_order)
        assert np.array_equal(tm.q, want.q) and np.array_equal(tm.r, want.r)

    def test_rows_are_dirichlet_draws_in_declaration_order(self, reference_spec):
        self.assert_rows_are_dirichlet_draws(reference_spec, 5)

    @pytest.mark.parametrize("seed", [5, 6, -7])
    def test_wide_rows_are_dirichlet_draws(self, wide_row_spec, seed):
        # Rows of 8, 9 and 12 targets: a sum that is not numpy's pairwise sum
        # of the row alone rounds differently here.
        assert {len(counts_for(wide_row_spec, s)) for s in wide_row_spec.ids} == {3, 8, 9, 12}
        self.assert_rows_are_dirichlet_draws(wide_row_spec, seed)
