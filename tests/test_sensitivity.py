from fractions import Fraction

import numpy as np
import pytest
from helpers import document_bytes, layered_network
from hypothesis import example, given
from hypothesis import strategies as st

import infoflow
from infoflow import dirichlet, simulation
from infoflow.dirichlet import CountVector
from infoflow.errors import (
    DegenerateRangeError,
    ExceedsTotalError,
    NegativeEntryError,
    NoNonDiTargetsError,
    SingularSystemError,
    UnknownStakeholderError,
    ValidationError,
)
from infoflow.markov import ABSORBING_ORDER, absorption_probabilities, build_canonical
from infoflow.network import (
    FlowRecord,
    NetworkSpec,
    Stakeholder,
    _compiled,
    counts_for,
    plug_in_chain,
    validate,
)
from infoflow.rng import stream
from infoflow.sensitivity import (
    _di_grid,
    impact_ratio,
    rank_details,
    reallocate,
    sweep_ineffective,
)
from infoflow.simulation import draw_samples


def d_counts():
    return CountVector(("S", "US", "DI"), [15.0, 10.0, 5.0])


class TestReallocate:
    def test_zero_discard_redistributes_proportionally(self):
        out = reallocate(d_counts(), 0)
        assert out.labels == ("S", "US", "DI")
        assert out.counts.tolist() == [18.0, 12.0, 0.0]

    def test_original_value_is_identity(self):
        out = reallocate(d_counts(), 5)
        assert out.counts.tolist() == [15.0, 10.0, 5.0]

    def test_full_discard(self):
        out = reallocate(d_counts(), 30)
        assert out.counts.tolist() == [0.0, 0.0, 30.0]

    def test_exceeding_total_rejected(self):
        with pytest.raises(ExceedsTotalError):
            reallocate(d_counts(), 31)

    def test_negative_rejected(self):
        with pytest.raises(NegativeEntryError):
            reallocate(d_counts(), -1)

    def test_missing_di_entry_is_created_in_label_order(self):
        out = reallocate(CountVector(("X", "S"), [6.0, 4.0]), 2)
        assert out.labels == ("X", "DI", "S")
        assert out.counts.tolist() == pytest.approx([4.8, 2.0, 3.2])

    def test_no_non_di_targets_rejected(self):
        with pytest.raises(NoNonDiTargetsError):
            reallocate(CountVector(("DI",), [5.0]), 2)

    def test_all_mass_already_discarded(self):
        stuck = CountVector(("S", "DI"), [0.0, 5.0])
        with pytest.raises(NoNonDiTargetsError):
            reallocate(stuck, 2)
        assert reallocate(stuck, 5).counts.tolist() == [0.0, 5.0]

    @given(
        st.lists(st.integers(1, 50), min_size=1, max_size=4),
        st.integers(0, 60),
        st.integers(0, 60),
    )
    def test_preserves_total_and_ratios(self, non_di, orig_di, di_value):
        # Rational-arithmetic mirror: the reallocation formula preserves the
        # total and the non-DI proportions exactly; the float implementation
        # must track the exact values to rounding error.
        total = sum(non_di) + orig_di
        if di_value > total:
            di_value = total
        labels = tuple(f"x{i}" for i in range(len(non_di))) + ("DI",)
        out = reallocate(CountVector(labels, [*non_di, float(orig_di)]), di_value)
        scale = Fraction(total - di_value, sum(non_di))
        exact = [Fraction(c) * scale for c in non_di] + [Fraction(di_value)]
        assert sum(exact) == total
        for got, want in zip(out.counts, exact):
            assert got == pytest.approx(float(want), rel=1e-12, abs=1e-12)


class TestImpactRatio:
    def test_reported_values(self):
        assert impact_ratio(0.507, 0.345, 30, 0) == pytest.approx(0.00540, abs=5e-5)
        assert impact_ratio(0.554, 0.154, 55, 0) == pytest.approx(0.00727, abs=5e-5)

    def test_flat_sweep_gives_zero(self):
        assert impact_ratio(0.5, 0.5, 10, 0) == 0.0

    def test_degenerate_range_rejected(self):
        with pytest.raises(DegenerateRangeError):
            impact_ratio(0.5, 0.4, 10, 10)


def two_hop_spec():
    return NetworkSpec(
        (Stakeholder("A", "federal"), Stakeholder("X", "state")),
        (FlowRecord("A", "X", 10.0), FlowRecord("X", "S", 10.0)),
        "A",
    )


class TestSweep:
    def test_grid_covers_zero_to_total_outflow(self, reference_spec):
        sw = sweep_ineffective(reference_spec, "D", 1, 0, "plug-in")
        assert sw.n_di_values == tuple(float(v) for v in range(31))
        assert sw.n_di_min == 0.0 and sw.n_di_max == 30.0

    def test_custom_increment_still_reaches_endpoint(self, reference_spec):
        sw = sweep_ineffective(reference_spec, "D", 1, 0, "plug-in", increment=7)
        assert sw.n_di_values == (0.0, 7.0, 14.0, 21.0, 28.0, 30.0)

    def test_plug_in_discard_probability_is_linear(self):
        # Sweeping A in a chain where A only feeds X makes P_DI exactly d/10.
        sw = sweep_ineffective(two_hop_spec(), "A", 1, 0, "plug-in")
        for d, (p_di, p_s, p_us) in zip(sw.n_di_values, sw.means):
            assert p_di == pytest.approx(d / 10, abs=1e-12)
            assert p_s == pytest.approx(1 - d / 10, abs=1e-12)
            assert p_us == pytest.approx(0.0, abs=1e-12)

    def test_plug_in_d_sweep_matches_flow_conservation(self, reference_spec):
        # Closed form for the reference network: every piece through D lands
        # on S with D's satisfied share, plus E's fixed 35 satisfied pieces.
        sw = sweep_ineffective(reference_spec, "D", 1, 0, "plug-in")
        for d, (_, p_s, _) in zip(sw.n_di_values, sw.means):
            assert p_s == pytest.approx((0.6 * (30 - d) + 35) / 100, abs=1e-9)

    def test_plug_in_monotone(self, reference_spec):
        for sid in ("A", "B", "C", "D", "E"):
            sw = sweep_ineffective(reference_spec, sid, 1, 0, "plug-in")
            di, s = sw.means[:, 0], sw.means[:, 1]
            assert np.all(np.diff(di) >= -1e-12)
            assert np.all(np.diff(s) <= 1e-12)

    def test_monte_carlo_deterministic(self, reference_spec):
        a = sweep_ineffective(reference_spec, "D", 40, 3, "mc")
        b = sweep_ineffective(reference_spec, "D", 40, 3, "monte-carlo")
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.samples, b.samples)

    def test_monte_carlo_increments_conserve_probability(self, reference_spec):
        sw = sweep_ineffective(reference_spec, "D", 40, 3, "mc")
        np.testing.assert_allclose(sw.means.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(sw.samples.sum(axis=2), 1.0, atol=1e-9)

    def test_sweeping_stakeholder_without_di_edge(self, reference_spec):
        sw = sweep_ineffective(reference_spec, "A", 1, 0, "plug-in")
        assert sw.n_di_max == 100.0
        # At zero discard the created DI edge carries nothing: baseline intact.
        assert sw.means[0, 1] == pytest.approx(0.50, abs=1e-12)

    def test_unknown_stakeholder(self, reference_spec):
        with pytest.raises(UnknownStakeholderError):
            sweep_ineffective(reference_spec, "Z", 1, 0, "plug-in")

    def test_unknown_mode(self, reference_spec):
        with pytest.raises(ValueError):
            sweep_ineffective(reference_spec, "D", 1, 0, "bogus")


def symmetric_spec():
    # Dyadic frequencies keep the two branches bit-for-bit identical.
    return NetworkSpec(
        (Stakeholder("A", "federal"), Stakeholder("X", "state"), Stakeholder("Y", "state")),
        (
            FlowRecord("A", "X", 8.0),
            FlowRecord("A", "Y", 8.0),
            FlowRecord("X", "S", 4.0),
            FlowRecord("X", "DI", 4.0),
            FlowRecord("Y", "S", 4.0),
            FlowRecord("Y", "DI", 4.0),
        ),
        "A",
    )


def _plug_in_ranking(spec):
    return [(sw.stakeholder, sw.impact_ratio) for sw in rank_details(spec, 1, 0, "plug-in")]


class TestRank:
    def test_plug_in_ranking_on_reference(self, reference_spec):
        ranking = _plug_in_ranking(reference_spec)
        assert [sid for sid, _ in ranking] == ["E", "C", "D", "B"]
        ratios = [r for _, r in ranking]
        assert ratios == sorted(ratios, reverse=True)

    def test_start_is_excluded(self, reference_spec):
        ranking = _plug_in_ranking(reference_spec)
        assert "A" not in [sid for sid, _ in ranking]

    def test_singleton(self):
        ranking = _plug_in_ranking(two_hop_spec())
        assert len(ranking) == 1 and ranking[0][0] == "X"

    def test_symmetric_stakeholders_tie_and_order_by_id(self):
        ranking = _plug_in_ranking(symmetric_spec())
        assert [sid for sid, _ in ranking] == ["X", "Y"]
        assert ranking[0][1] == ranking[1][1]


def _with_reallocated(spec, stakeholder, cv):
    """The spec one sweep increment describes, rebuilt from scratch."""
    kept = tuple(f for f in spec.flows if f.source != stakeholder)
    new = tuple(
        FlowRecord(stakeholder, label, float(v)) for label, v in zip(cv.labels, cv.counts)
    )
    return NetworkSpec(spec.stakeholders, kept + new, spec.start)


def rebuilt_sweep(spec, stakeholder, iterations, seed, mode):
    """Oracle for sweep_ineffective: a fresh spec per increment, evaluated by
    the public per-spec functions. Monte Carlo mode returns the samples
    (increments, iterations, 3), plug-in mode the means (increments, 3)."""
    s_idx = spec.ids.index(stakeholder)
    base = counts_for(spec, stakeholder)
    out = []
    for i, di in enumerate(_di_grid(base.total, 1.0)):
        modified = _with_reallocated(spec, stakeholder, reallocate(base, di))
        if mode == "mc":
            out.append(draw_samples(modified, iterations, seed, key=(s_idx, i)))
        else:
            out.append(absorption_probabilities(plug_in_chain(modified, "raw")).row(spec.start))
    return np.array(out)


def cyclic_spec():
    # X and Y feed each other; each also has its own absorbing exits.
    return NetworkSpec(
        (Stakeholder("A", "federal"), Stakeholder("X", "state"), Stakeholder("Y", "local")),
        (
            FlowRecord("A", "X", 6.0),
            FlowRecord("A", "Y", 4.0),
            FlowRecord("A", "DI", 1.0),
            FlowRecord("X", "Y", 5.0),
            FlowRecord("X", "S", 3.0),
            FlowRecord("X", "DI", 2.0),
            FlowRecord("Y", "X", 2.0),
            FlowRecord("Y", "S", 4.0),
            FlowRecord("Y", "US", 3.0),
        ),
        "A",
    )


def dead_loop_spec():
    # X's only route to absorption is its DI flow; at zero discard all of
    # X's flow goes to Y, which only returns it to X.
    return NetworkSpec(
        (Stakeholder("A", "federal"), Stakeholder("X", "state"), Stakeholder("Y", "local")),
        (
            FlowRecord("A", "X", 4.0),
            FlowRecord("A", "S", 1.0),
            FlowRecord("X", "Y", 5.0),
            FlowRecord("X", "DI", 5.0),
            FlowRecord("Y", "X", 3.0),
        ),
        "A",
    )


class TestSweepOverride:
    """A sweep overrides one row of the compiled base plan per increment and
    evaluates all increments as one batch; it must match, bit for bit, a
    sweep that rebuilds the spec every time."""

    @pytest.mark.parametrize("stakeholder", ["B", "C", "D", "E"])
    @pytest.mark.parametrize("mode", ["mc", "plugin"])
    def test_reference_network(self, reference_spec, stakeholder, mode):
        self.check(reference_spec, stakeholder, mode)

    @pytest.mark.parametrize("stakeholder", ["X", "Y"])
    @pytest.mark.parametrize("mode", ["mc", "plugin"])
    def test_cyclic_network(self, stakeholder, mode):
        self.check(cyclic_spec(), stakeholder, mode)

    # Rows of 8-12 targets, and 60-stakeholder rows, are where a stacked row
    # sum that is not the row's own pairwise sum rounds differently.
    @pytest.mark.parametrize("stakeholder", ["W03", "W05"])
    @pytest.mark.parametrize("mode", ["mc", "plugin"])
    def test_wide_row_network(self, wide_row_spec, stakeholder, mode):
        self.check(wide_row_spec, stakeholder, mode)

    @pytest.mark.parametrize("stakeholder", ["N009", "N035"])  # both also flow back
    @pytest.mark.parametrize("mode", ["mc", "plugin"])
    def test_layered_network(self, stakeholder, mode):
        spec = infoflow.parse_network(document_bytes(layered_network(60, 4)))
        self.check(spec, stakeholder, mode)

    @staticmethod
    def check(spec, stakeholder, mode):
        sw = sweep_ineffective(spec, stakeholder, 40, 11, mode)
        want = rebuilt_sweep(spec, stakeholder, 40, 11, mode)
        if mode == "mc":
            assert np.array_equal(sw.samples, want)
            assert np.array_equal(sw.means, want.mean(axis=1))
        else:
            assert np.array_equal(sw.means, want)

    # Only the raw-frequency chain can lose its route to absorption; Monte
    # Carlo mode accepts this point (test_monte_carlo_zero_discard_absorbs).
    @pytest.mark.parametrize("mode", ["plugin"])
    def test_zero_discard_that_cuts_absorption_is_rejected(self, mode):
        spec = dead_loop_spec()
        rebuilt = validate(_with_reallocated(spec, "X", reallocate(counts_for(spec, "X"), 0)))
        assert not rebuilt.ok
        with pytest.raises(ValidationError) as exc:
            sweep_ineffective(spec, "X", 5, 0, mode)
        assert exc.value.report.violations == rebuilt.violations

    def test_monte_carlo_zero_discard_absorbs(self):
        # At zero discard X's raw-frequency chain cannot absorb, but every
        # flat-prior draw puts mass on the DI label reallocate gives X. The
        # draws are per-row dirichlet.sample draws from stream (seed, s, 0, t)
        # in declaration order, assembled by the public build_canonical.
        spec = dead_loop_spec()
        sw = sweep_ineffective(spec, "X", 6, 3, "mc")
        np.testing.assert_allclose(sw.samples.sum(axis=2), 1.0, atol=1e-9)
        zero = _with_reallocated(spec, "X", reallocate(counts_for(spec, "X"), 0))
        states = zero.ids + ABSORBING_ORDER
        n = len(zero.ids)
        for t in range(6):
            rng = stream(3, zero.ids.index("X"), 0, t)
            qr = np.zeros((n, len(states)))
            for i, sid in enumerate(zero.ids):
                cv = counts_for(zero, sid)
                theta = dirichlet.sample(dirichlet.noninformative_posterior(cv), rng).theta
                qr[i, [states.index(label) for label in cv.labels]] = theta
            tm = build_canonical(qr[:, :n], qr[:, n:], states)
            assert np.array_equal(sw.samples[0, t], absorption_probabilities(tm).row("A"))

    @staticmethod
    def set_chunk(monkeypatch, spec, draws):
        """Make chunks hold `draws` stacked [Q | R] blocks of `spec`."""
        n = len(spec.ids)
        monkeypatch.setattr(simulation, "CHUNK_BYTES", draws * 8 * n * (n + 3))
        assert simulation._chunk_size(_compiled(spec), 10_000) == draws

    @pytest.mark.parametrize("mode", ["mc", "plugin"])
    def test_chunks_straddle_increments(self, wide_row_spec, monkeypatch, mode):
        # 7 divides neither the 20 iterations of an increment nor the 197
        # increments, so chunks hold the end of one increment and the start
        # of the next.
        want = sweep_ineffective(wide_row_spec, "W05", 20, 4, mode)
        self.set_chunk(monkeypatch, wide_row_spec, 7)
        got = sweep_ineffective(wide_row_spec, "W05", 20, 4, mode)
        assert np.array_equal(got.means, want.means)
        if mode == "mc":
            assert np.array_equal(got.samples, want.samples)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_singular_draw_names_its_iteration_within_its_increment(
        self, reference_spec, monkeypatch
    ):
        # Increment 2, iteration 5 is draw 45 of D's sweep: the fourth draw
        # of the seventh chunk of 7.
        self.set_chunk(monkeypatch, reference_spec, 7)
        real = simulation.stream

        class Overflowing:
            def standard_gamma(self, alpha):
                return np.full(len(alpha), np.inf)  # rows become inf / inf = nan

        def broken_at_2_5(seed, *path):
            return Overflowing() if path[-2:] == (2, 5) else real(seed, *path)

        monkeypatch.setattr(simulation, "stream", broken_at_2_5)
        with pytest.raises(SingularSystemError, match="^iteration 5: I - Q is singular$"):
            sweep_ineffective(reference_spec, "D", 20, 4, "mc")


_FREQUENCIES = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 5.0])


@st.composite
def valid_networks(draw):
    """Valid networks with cycles, zero-frequency flows and a first row of at
    least 8 targets; the other rows are sparse, so that a row's DI flow is
    often its only route to absorption. Stakeholder i has a positive flow to
    DI or to an earlier stakeholder, so every stakeholder reaches
    absorption."""
    ids = [f"s{i}" for i in range(draw(st.integers(6, 9)))]
    flows = []
    for i, sid in enumerate(ids):
        states = [t for t in ids if t != sid] + list(ABSORBING_ORDER)
        size = (8, len(states)) if i == 0 else (1, 3)
        targets = draw(st.lists(
            st.sampled_from(states), min_size=size[0], max_size=size[1], unique=True))
        row = {t: draw(_FREQUENCIES) for t in targets}
        row[draw(st.sampled_from(["DI"] + ids[:i]))] = draw(st.sampled_from([1.0, 4.0, 9.0]))
        flows += [FlowRecord(sid, t, f) for t, f in row.items()]
    return NetworkSpec(tuple(Stakeholder(s, "local") for s in ids), tuple(flows), ids[0])


@given(valid_networks())
@example(dead_loop_spec())
def test_reallocated_rows_keep_a_valid_network_valid(spec):
    # Every grid point with positive discard gives a valid spec, so sweeps
    # need not revalidate it; at zero discard the swept plan's own check
    # reports exactly what validate reports for the rebuilt spec.
    assert validate(spec).ok
    plan = _compiled(spec)
    for s_idx, sid in enumerate(spec.ids):
        base = counts_for(spec, sid)
        for di in _di_grid(base.total, 1.0):
            try:
                cv = reallocate(base, di)
            except NoNonDiTargetsError:
                continue  # all outflow already discarded: the sweep stops here
            report = validate(_with_reallocated(spec, sid, cv))
            assert report.ok or di == 0
            try:
                plan.override(s_idx, cv).require_valid()
                got = ()
            except ValidationError as exc:
                got = exc.report.violations
            assert got == report.violations
