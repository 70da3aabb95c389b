import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    cyclic_spec,
    dirichlet_sample,
    document_bytes,
    exact_rows,
    exact_start_absorption,
    flow_counts,
    layered_network,
    reachable_plug_in_absorption,
    wide_row_network,
)
from helpers import with_reallocated as _with_reallocated
from hypothesis import assume, example, given
from hypothesis import strategies as st

import infoflow
from infoflow import network, sensitivity, simulation
from infoflow.dirichlet import CountVector, noninformative_posterior
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
from infoflow.simulation import draw_samples, plug_in_start


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

    def test_nan_rejected(self):
        # NaN passes every comparison, so it once gave counts that were all NaN.
        with pytest.raises(ValueError):
            reallocate(CountVector(("B", "S"), [3, 1]), float("nan"))

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

    # (labels, counts, di_value, expected): expected is (labels, counts as
    # float64 bytes in hex) or (exception type, exact message), recorded
    # while reallocate still had an implementation of its own.
    _D = (("S", "US", "DI"), [15.0, 10.0, 5.0])
    _WIDE = (tuple(f"T{i}" for i in range(8)) + ("S",),
             [16.6, 9.6, 58.2, 31.0, 7.0, 37.4, 46.6, 36.8, 55.0])  # total 298.20000000000005
    _PINNED = {
        "nan": (*_D, float("nan"), (ValueError, "di_value must be a number, got nan")),
        "negative": (*_D, -1, (NegativeEntryError, "di_value must be >= 0, got -1.0")),
        "negative-zero": (*_D, -0.0, (
            ("S", "US", "DI"), "000000000000324000000000000028400000000000000080")),
        "negative-zero-zero-total": (("T0", "DI"), [0.0, 0.0], -0.0, (
            ("T0", "DI"), "0000000000000000" + "0000000000000080")),
        "above-total": (*_D, 31, (
            ExceedsTotalError, "di_value 31.0 exceeds total outflow 30.0")),
        "above-tolerance": (*_D, 30.0000000001, (
            ExceedsTotalError, "di_value 30.0000000001 exceeds total outflow 30.0")),
        "total": (*_D, 30, (
            ("S", "US", "DI"), "000000000000000000000000000000000000000000003e40")),
        "numpy-scalar": (*_D, np.float32(2.5), (
            ("S", "US", "DI"), "000000000080304000000000000026400000000000000440")),
        "di-only": (("DI",), [5.0], 2, (
            NoNonDiTargetsError, "counts contain no non-DI entries")),
        "all-discarded-below-total": (("S", "DI"), [0.0, 5.0], 2, (
            NoNonDiTargetsError, "all outflow is already discarded; nothing to scale back up")),
        "all-discarded-at-total": (("S", "DI"), [0.0, 5.0], 5, (
            ("S", "DI"), "00000000000000000000000000001440")),
        "missing-di": (("X", "S"), [6.0, 4.0], 2, (
            ("X", "DI", "S"), "343333333333134000000000000000409a99999999990940")),
        # The CountVector total, 298.20000000000005, not Python's sum 298.2:
        # discarding all of it leaves nothing to clamp, and DI is that total.
        "clamped": (*_WIDE, 298.20000000000005, (
            _WIDE[0][:8] + ("DI", "S"), "00" * 64 + "3433333333a37240" + "00" * 8)),
        # One ulp above the total is within tolerance and clamped to it.
        "clamped-above-total": (*_WIDE, 298.2000000000001, (
            _WIDE[0][:8] + ("DI", "S"), "00" * 64 + "3433333333a37240" + "00" * 8)),
        # Python's sum of these counts is 7.6000000000000005, their total 7.6,
        # the sweep grid's end: discarding it leaves every other count 0, so
        # a Monte Carlo sweep draws that point with alphas exactly 1.
        "total-below-python-sum": (
            _WIDE[0], [0.3, 0.2, 1.1, 0.2, 0.6, 0.6, 0.6, 3.3, 0.7], 7.6, (
                _WIDE[0][:8] + ("DI", "S"), "00" * 64 + "6666666666661e40" + "00" * 8)),
    }

    @pytest.mark.parametrize("labels, counts, di_value, expected",
                             list(_PINNED.values()), ids=list(_PINNED))
    def test_pinned_outputs_and_messages(self, labels, counts, di_value, expected):
        base = CountVector(labels, counts)
        if isinstance(expected[0], type):
            error, message = expected
            with pytest.raises(error) as exc:
                reallocate(base, di_value)
            assert type(exc.value) is error and str(exc.value) == message
        else:
            out = reallocate(base, di_value)
            assert (out.labels, out.counts.tobytes().hex()) == expected

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


@st.composite
def count_rows(draw):
    """A stakeholder's positive-total outflow counts as a compiled row labels
    them (transient targets, then DI, S, US), up to 13 entries, with or
    without DI, zero entries, and integer or fractional frequencies."""
    labels = [f"T{i}" for i in range(draw(st.integers(0, 10)))]
    labels += [label for label in ABSORBING_ORDER if draw(st.booleans())]
    value = st.one_of(
        st.sampled_from([0.0, 1.0, 4.0, 30.0]),
        st.floats(0.0, 60.0, allow_subnormal=False),
    )
    counts = draw(st.lists(value, min_size=len(labels), max_size=len(labels)))
    assume(labels and sum(counts) > 0)
    return CountVector(tuple(labels), counts)


@given(count_rows(), st.sampled_from([1.0, 0.7, 2.5]))
@example(d_counts(), 1.0)
@example(CountVector(("T0", "S"), [3.5, 2.25]), 1.0)  # no DI; the total 5.75 is appended
# Python's sum of these counts, 298.2, misses their total 298.20000000000005, the grid's end.
@example(CountVector(tuple(f"T{i}" for i in range(8)) + ("S",),
                     [16.6, 9.6, 58.2, 31.0, 7.0, 37.4, 46.6, 36.8, 55.0]), 1.0)
@example(CountVector(("DI", "S", "US"), [4.0, 0.0, 0.0]), 1.0)  # all outflow discarded
@example(CountVector(("DI",), [4.0]), 1.0)  # nothing but DI
def test_sweep_counts_are_reallocate_at_every_grid_point(base, increment):
    # The sweep's (increments, k) count matrix, its alphas 1 + counts and its
    # raw frequencies counts / row sum are, bit for bit, what reallocate
    # gives at each grid point; it fails exactly where reallocate does.
    grid = _di_grid(base.total, increment)
    if "DI" in base.labels:
        k, values = base.labels.index("DI"), base.counts
    else:  # a compiled row's DI entry goes after its transient targets
        k = sum(label.startswith("T") for label in base.labels)
        values = np.insert(base.counts, k, 0.0)
    try:
        counts = sensitivity._reallocated(values, k, base.total, grid)
    except NoNonDiTargetsError as exc:
        with pytest.raises(NoNonDiTargetsError) as first:
            reallocate(base, grid[0])
        assert str(first.value) == str(exc)
        return
    assert counts.shape == (len(grid), len(values))
    alphas = 1.0 + counts
    frequencies = counts / counts.sum(axis=1, keepdims=True)
    for i, di in enumerate(grid):
        cv = reallocate(base, di)
        assert len(cv.labels) == len(values) and cv.labels[k] == "DI"
        assert counts[i].tobytes() == cv.counts.tobytes()
        assert alphas[i].tobytes() == noninformative_posterior(cv).alpha.tobytes()
        assert frequencies[i].tobytes() == (cv.counts / cv.total).tobytes()


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
        assert np.array_equal(sw.n_di_values, [float(v) for v in range(31)])
        assert sw.n_di_values.dtype == np.float64 and not sw.n_di_values.flags.writeable
        assert sw.n_di_min == 0.0 and sw.n_di_max == 30.0

    def test_custom_increment_still_reaches_endpoint(self, reference_spec):
        sw = sweep_ineffective(reference_spec, "D", 1, 0, "plug-in", increment=7)
        assert np.array_equal(sw.n_di_values, [0.0, 7.0, 14.0, 21.0, 28.0, 30.0])

    @pytest.mark.parametrize("mode", ["mc", "plugin"])
    @pytest.mark.parametrize("increment", [0.0, -1.0, float("nan"), float("inf")])
    def test_increment_must_be_positive_and_finite(self, reference_spec, mode, increment):
        # NaN and inf once passed `increment <= 0`: Monte Carlo then failed
        # building the grid, and plug-in on the first read of n_di_values.
        with pytest.raises(ValueError, match="increment must be positive and finite"):
            sweep_ineffective(reference_spec, "D", 1, 0, mode, increment=increment)

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
        # The draws behind the means are the rebuilt specs' from the same
        # streams (seed, s, i, t).
        draws = rebuilt_sweep(reference_spec, "D", 40, 3, "mc")
        assert np.array_equal(a.means, draws.mean(axis=1))

    def test_monte_carlo_increments_conserve_probability(self, reference_spec):
        sw = sweep_ineffective(reference_spec, "D", 40, 3, "mc")
        np.testing.assert_allclose(sw.means.sum(axis=1), 1.0, atol=1e-6)
        draws = rebuilt_sweep(reference_spec, "D", 40, 3, "mc")  # the means' own draws
        assert np.array_equal(sw.means, draws.mean(axis=1))
        np.testing.assert_allclose(draws.sum(axis=2), 1.0, atol=1e-9)

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

    @pytest.mark.parametrize("mode", ["mc", "plugin"])
    @pytest.mark.parametrize("zeros, reason", [
        ((), "counts contain no non-DI entries"),
        (("S", "US"), "all outflow is already discarded; nothing to scale back up"),
    ], ids=["di-only", "zero-others"])
    def test_discard_only_stakeholder_is_named(self, zeros, reason, mode):
        spec = NetworkSpec(
            (Stakeholder("A", "federal"), Stakeholder("X", "local")),
            (FlowRecord("A", "X", 3.0), FlowRecord("A", "S", 2.0), FlowRecord("X", "DI", 4.0),
             *(FlowRecord("X", to, 0.0) for to in zeros)),
            "A",
        )
        assert validate(spec).ok
        with pytest.raises(NoNonDiTargetsError, match=rf"^stakeholder 'X': {reason}$"):
            sweep_ineffective(spec, "X", 2, 1, mode)


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

    def test_unknown_mode_is_refused_with_nothing_to_sweep(self):
        # The start is the only stakeholder, so the ranking is empty.
        spec = NetworkSpec((Stakeholder("A", "state"),), (FlowRecord("A", "S", 1.0),), "A")
        assert rank_details(spec, 1, 0, "plugin") == []
        with pytest.raises(ValueError, match="unknown sweep mode"):
            rank_details(spec, 1, 0, "bogus")

    def test_symmetric_stakeholders_tie_and_order_by_id(self):
        ranking = _plug_in_ranking(symmetric_spec())
        assert [sid for sid, _ in ranking] == ["X", "Y"]
        assert ranking[0][1] == ranking[1][1]


def rebuilt_sweep(spec, stakeholder, iterations, seed, mode):
    """Oracle for sweep_ineffective: a fresh spec per increment, evaluated by
    the public draw_samples or, in plug-in mode, by the restricted-chain
    oracle reachable_plug_in_absorption. Monte Carlo mode returns the
    draws (increments, iterations, 3), whose mean(axis=1) a sweep's means
    must equal bit for bit; plug-in mode the means (increments, 3). Plug-in
    mode reads every row once and replaces only the swept one at each point,
    by the row flow_counts reads off that point's rebuilt spec."""
    s_idx = spec.ids.index(stakeholder)
    base = flow_counts(spec, stakeholder)
    rows = {sid: flow_counts(spec, sid) for sid in spec.ids}
    out = []
    for i, di in enumerate(_di_grid(base.total, 1.0)):
        cv = reallocate(base, di)
        if mode == "mc":
            modified = _with_reallocated(spec, stakeholder, cv)
            out.append(draw_samples(modified, iterations, seed, key=(s_idx, i)))
        else:
            out.append(reachable_plug_in_absorption(spec, rows={**rows, stakeholder: cv}))
    return np.array(out)


def stuck_unreached_spec():
    # At zero discard X passes all its flow around the X-Y and X-W loops, so
    # none of X, Y, W reaches absorption, though the start A reaches none of
    # them either.
    ids = ("A", "X", "Y", "W")
    flows = [("A", "S", 2.0), ("A", "US", 1.0), ("X", "Y", 1.0), ("X", "W", 2.0),
             ("X", "DI", 5.0), ("Y", "X", 3.0), ("W", "X", 7.0)]
    return NetworkSpec(
        tuple(Stakeholder(sid, "state") for sid in ids),
        tuple(FlowRecord(*flow) for flow in flows),
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
    """A sweep builds one layout plan, the swept row at zero discard with
    its DI label, and carries every increment's counts in one matrix; it
    must match a sweep that rebuilds the spec every time: bit for bit in
    Monte Carlo mode, and within 1e-15 in plug-in mode, whose closed form
    comes from one solve of the base chain (2.2e-16 at most on these
    cases)."""

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

    # Both also flow back; the start does not reach N009, whose Monte Carlo
    # sweep draws zero discard alone and repeats it at every point.
    @pytest.mark.parametrize("stakeholder", ["N009", "N035"])
    @pytest.mark.parametrize("mode", ["mc", "plugin"])
    def test_layered_network(self, stakeholder, mode):
        spec = infoflow.parse_network(document_bytes(layered_network(60, 4)))
        self.check(spec, stakeholder, mode)

    @staticmethod
    def check(spec, stakeholder, mode):
        sw = sweep_ineffective(spec, stakeholder, 40, 11, mode)
        want = rebuilt_sweep(spec, stakeholder, 40, 11, mode)
        if mode == "mc":
            if stakeholder not in _compiled(spec).reachable[0].state_order:
                want = np.repeat(want[:1], len(want), axis=0)  # only zero discard is drawn
            assert np.array_equal(sw.means, want.mean(axis=1))
        else:
            np.testing.assert_allclose(sw.means, want, rtol=0, atol=1e-15)

    # Only the raw-frequency chain can lose its route to absorption; Monte
    # Carlo mode accepts this point (test_monte_carlo_zero_discard_absorbs).
    @pytest.mark.parametrize("mode", ["plugin"])
    def test_zero_discard_that_cuts_absorption_is_rejected(self, mode):
        for spec in (dead_loop_spec(), stuck_unreached_spec()):
            rebuilt = validate(_with_reallocated(spec, "X", reallocate(flow_counts(spec, "X"), 0)))
            assert not rebuilt.ok
            with pytest.raises(ValidationError) as exc:
                sweep_ineffective(spec, "X", 5, 0, mode)
            assert exc.value.report.violations == rebuilt.violations

    def test_monte_carlo_zero_discard_absorbs(self):
        # At zero discard X's raw-frequency chain cannot absorb, but every
        # flat-prior draw puts mass on the DI label reallocate gives X. The
        # draws are per-row dirichlet_sample draws from stream (seed, s, 0, t)
        # in declaration order, assembled by the public build_canonical; the
        # later increments' are draw_samples' on their rebuilt specs.
        spec = dead_loop_spec()
        sw = sweep_ineffective(spec, "X", 6, 3, "mc")
        base, s = flow_counts(spec, "X"), spec.ids.index("X")
        zero = _with_reallocated(spec, "X", reallocate(base, 0))
        states = zero.ids + ABSORBING_ORDER
        n = len(zero.ids)
        triples = []
        for t in range(6):
            rng = stream(3, s, 0, t)
            qr = np.zeros((n, len(states)))
            for i, sid in enumerate(zero.ids):
                cv = flow_counts(zero, sid)
                theta = dirichlet_sample(noninformative_posterior(cv), rng)
                qr[i, [states.index(label) for label in cv.labels]] = theta
            tm = build_canonical(qr[:, :n], qr[:, n:], states)
            triples.append(absorption_probabilities(tm).row("A"))
        np.testing.assert_allclose(np.sum(triples, axis=1), 1.0, atol=1e-9)
        assert np.array_equal(sw.means[0], np.array(triples).mean(axis=0))
        for i, di in enumerate(_di_grid(base.total, 1.0)[1:], start=1):
            rebuilt = _with_reallocated(spec, "X", reallocate(base, di))
            draws = draw_samples(rebuilt, 6, 3, key=(s, i))
            np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-9)
            assert np.array_equal(sw.means[i], draws.mean(axis=0))

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


def test_monte_carlo_rank_memory_is_bounded_in_iterations(reference_spec, monkeypatch):
    # A sweep returns its means, so a ranking holds one (increments, 3)
    # array per stakeholder whatever the iteration count. Kept draws would
    # add 24 bytes per draw: 189 increments * 100 iterations, 454 kB. Chunks
    # of 64 draws keep the staging buffer the same at both counts.
    TestSweepOverride.set_chunk(monkeypatch, reference_spec, 64)
    rank_details(reference_spec, 20, 0)  # compile the plans, layouts and first allocations

    def peak(iterations):
        tracemalloc.start()
        try:
            rank_details(reference_spec, iterations, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(120) - peak(20) < 2**18


class TestEndpointOnlyRank:
    """A plug-in ranking solves no chain per stakeholder: every sweep's
    endpoints, ratio and curve come from one solve of the base chain the
    start reaches, and the interior of every curve waits until its means
    are read."""

    @pytest.mark.parametrize("name", ["reference", "cyclic", "wide_row", "layered"])
    def test_one_base_solve_per_rank_and_the_curve_endpoints(self, request, monkeypatch, name):
        spec = {
            "reference": lambda: request.getfixturevalue("reference_spec"),
            "cyclic": cyclic_spec,
            "wide_row": lambda: request.getfixturevalue("wide_row_spec"),
            "layered": lambda: infoflow.parse_network(document_bytes(layered_network(60, 4))),
        }[name]()
        network._compiled.cache_clear()  # no plan holds its base solve yet
        staged, solves, builds = [], [], []
        monkeypatch.setattr(simulation, "_absorb", lambda *args: staged.append(args))
        real, build = np.linalg.solve, network.build_canonical

        def counted(a, b):
            solves.append(a.shape)
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        # One raw chain in all, the reached plan's: the zero-discard check
        # reads the support validate reads, not a raw chain of its own.
        monkeypatch.setattr(network, "build_canonical", lambda *a: builds.append(a) or build(*a))
        ranked = rank_details(spec, 1, 0, "plugin")
        assert staged == [] and len(solves) == 1 and len(builds) == 1
        plug_in_start(spec, "raw")  # reads the ranking's solve
        assert staged == [] and len(solves) == 1
        monkeypatch.undo()
        for sw in ranked:
            curve = sweep_ineffective(spec, sw.stakeholder, 1, 0, "plugin").means
            assert (sw.p_s_max, sw.p_s_min) == tuple(curve[[0, -1], 1])
            assert np.array_equal(sw.means, curve) and not sw.means.flags.writeable

    def test_zero_discard_that_cuts_absorption_is_rejected(self):
        for spec in (dead_loop_spec(), stuck_unreached_spec()):
            rebuilt = validate(_with_reallocated(spec, "X", reallocate(flow_counts(spec, "X"), 0)))
            assert not rebuilt.ok
            with pytest.raises(ValidationError) as exc:
                rank_details(spec, 1, 0, "plugin")
            assert exc.value.report.violations == rebuilt.violations


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
    # need not revalidate it; at zero discard a plug-in sweep reports
    # exactly what validate reports for the rebuilt spec. A sweep's layout
    # puts DI where reallocate's label rule puts it, and is the plan itself
    # exactly where the row has a DI flow.
    assert validate(spec).ok
    plan = _compiled(spec)
    for i, sid in enumerate(spec.ids):
        base = flow_counts(spec, sid)
        for di in _di_grid(base.total, 1.0):
            try:
                cv = reallocate(base, di)
            except NoNonDiTargetsError:
                continue  # all outflow already discarded: the sweep stops here
            report = validate(_with_reallocated(spec, sid, cv))
            assert report.ok or di == 0
            if di == 0:
                layout, k = plan.discarding(i)
                labels = tuple(plan.state_order[c] for c in layout.column[layout.span(i)])
                assert labels == cv.labels and labels[k] == "DI"
                assert (layout is plan) == ("DI" in base.labels)
                try:
                    sweep_ineffective(spec, sid, 1, 0, "plugin")
                    got = ()
                except ValidationError as exc:
                    got = exc.report.violations
                assert got == report.violations


@st.composite
def underflowing_networks(draw):
    """Networks whose rows mix 5e-324 with counts of at least 2, so that a
    positive frequency's share of its row can underflow to 0. Stakeholder i
    has a flow to DI or to an earlier stakeholder, which may be one of
    those; any network may be invalid."""
    ids = [f"s{i}" for i in range(draw(st.integers(2, 6)))]
    frequencies = st.sampled_from([5e-324, 5e-324, 0.0, 2.0, 3.0])
    flows = []
    for i, sid in enumerate(ids):
        states = [t for t in ids if t != sid] + list(ABSORBING_ORDER)
        targets = draw(st.lists(st.sampled_from(states), max_size=3, unique=True))
        row = {t: draw(frequencies) for t in targets}
        row[draw(st.sampled_from(["DI"] + ids[:i]))] = draw(st.sampled_from([5e-324, 2.0]))
        flows += [FlowRecord(sid, t, f) for t, f in row.items()]
    return NetworkSpec(tuple(Stakeholder(s, "local") for s in ids), tuple(flows), ids[0])


@given(st.one_of(valid_networks(), underflowing_networks()))
def test_a_valid_network_reaches_absorption_in_its_raw_chain(spec):
    # validate checks the raw-frequency chain's support, so every network it
    # accepts can be solved, even where a positive share underflows to 0.
    # The support validate and the zero-discard check read is that chain's.
    assume(validate(spec).ok)
    assert network._flow_violations(spec.ids, _compiled(spec).qr > 0.0) == []
    for plan in (_compiled(spec), _compiled(spec).reachable[0]):
        support = network._support(plan.source, plan.column, plan.counts, plan.totals)
        assert np.array_equal(support, plan.qr > 0.0)


def exact_sweep_ends(spec, stakeholder):
    """Exact (P0, P1, impact ratio) of a plug-in sweep of `stakeholder`,
    whose row is every non-DI frequency over their sum at zero discard and
    all DI at total discard, by exact_start_absorption."""
    rows = exact_rows(spec)
    counts = {f.target: Fraction(f.frequency) for f in spec.flows if f.source == stakeholder}
    rest = sum(v for t, v in counts.items() if t != "DI")
    zero = {t: v / rest for t, v in counts.items() if t != "DI"}
    p0 = exact_start_absorption(spec, {**rows, stakeholder: zero})
    p1 = exact_start_absorption(spec, {**rows, stakeholder: {"DI": Fraction(1)}})
    return p0, p1, (p0[1] - p1[1]) / sum(counts.values())


def unreached_feeder_spec():
    # Z feeds the start A, but A never reaches Z.
    return NetworkSpec(
        (Stakeholder("A", "federal"), Stakeholder("X", "state"), Stakeholder("Z", "local")),
        (FlowRecord("A", "X", 3.0), FlowRecord("A", "S", 1.0), FlowRecord("X", "S", 2.0),
         FlowRecord("X", "DI", 1.0), FlowRecord("Z", "A", 4.0), FlowRecord("Z", "US", 1.0)),
        "A",
    )


def staged_but_unreached_spec():
    # The start s0 never reaches S over positive flows. Its 0-count flow to
    # s7 stages s7, whose flow to S a solve may mix into s0's probabilities.
    flows = [("s0", "s1", 1.0), ("s0", "s2", 5.0), ("s0", "DI", 1.0)]
    flows += [("s0", f"s{i}", 0.0) for i in range(3, 8)]
    flows += [("s2", "s0", 1.0), ("s7", "S", 1.0), ("s7", "s0", 1.0)]
    flows += [(sid, "DI", 1.0) for sid in ("s1", "s3", "s4", "s5", "s6")]
    return NetworkSpec(
        tuple(Stakeholder(f"s{i}", "local") for i in range(8)),
        tuple(FlowRecord(*f) for f in flows),
        "s0",
    )


def test_an_end_state_the_start_cannot_reach_is_exactly_zero():
    # These read -1.1e-16 (evaluate's P_S) and -2.2e-16 (the sweep's P_S at
    # zero discard) where only the solve's rounding set them.
    spec = staged_but_unreached_spec()
    zero = (0.0).hex()
    assert [p.hex() for p in plug_in_start(spec, "raw")[1:].tolist()] == [zero, zero]
    sw = sweep_ineffective(spec, "s0", 1, 0, "plugin")
    assert {p.hex() for p in sw.means[:, 1:].ravel().tolist()} == {zero}
    assert [sw.p_s_max.hex(), sw.p_s_min.hex(), sw.impact_ratio.hex()] == [zero] * 3


def local_spec(flows):
    """The network of `flows` (source, target, frequency) from s0, over the
    stakeholders s0, s1, ... that they leave, in number order."""
    ids = sorted({f[0] for f in flows}, key=lambda sid: int(sid[1:]))
    return NetworkSpec(
        tuple(Stakeholder(sid, "local") for sid in ids),
        tuple(FlowRecord(*f) for f in flows),
        "s0",
    )


def discard_cuts_satisfaction_spec():
    # s0 reaches S only through s4 -> s3, so all-DI s4 leaves the start no
    # route to S; 0-count flows stage s1, s2 and s6.
    flows = [("s0", "s5", 1.0), ("s0", "DI", 1.0), ("s5", "s0", 1.0), ("s5", "s4", 1.0),
             ("s4", "s0", 2.0), ("s4", "s3", 1.0), ("s3", "S", 1.0), ("s3", "DI", 1.0)]
    flows += [("s0", t, 0.0) for t in ("s1", "s2", "s3", "s4", "s6", "S")]
    flows += [(sid, "s0", 0.0) for sid in ("s1", "s2", "s3", "s6")]
    flows += [(sid, "s1", 0.0) for sid in ("s3", "s4", "s5")]
    flows += [(sid, "s2", 0.0) for sid in ("s4", "s5")]
    flows += [(sid, "DI", 1.0) for sid in ("s1", "s2", "s6")]
    return local_spec(flows)


def no_di_row_spec():
    # s1 has no DI flow, so its zero-discard row is its raw row: its sweep
    # must read evaluate's P_DI 0.3647416413373861 there, not one ulp above.
    flows = [("s0", "s2", 24.0), ("s0", "S", 13.0), ("s1", "s2", 28.0), ("s1", "US", 24.0),
             ("s2", "s0", 7.0), ("s2", "s1", 26.0), ("s2", "DI", 25.0), ("s2", "US", 5.0)]
    return local_spec(flows)


def discard_only_spec():
    # Every stakeholder the start reaches flows only to DI (or back to it).
    flows = [("s0", t, f) for t, f in [("s1", 0.0), ("s2", 0.0), ("s3", 1.0), ("s4", 2.0),
                                      ("s5", 0.0), ("DI", 1.0), ("s6", 2.0), ("S", 0.0)]]
    for i in range(1, 7):
        flows += [(f"s{i}", "s0", 0.0), (f"s{i}", "DI", 1.0)]
    return local_spec(flows)


def test_a_swept_chain_reads_its_own_dead_ends_exactly():
    # All-DI s4 leaves DI the start's one live end: P_S read
    # -1.3877787807814457e-17 at total discard, a difference of equal numbers.
    sw = sweep_ineffective(discard_cuts_satisfaction_spec(), "s4", 1, 1, "plugin")
    assert [sw.p_s_max, sw.impact_ratio] == pytest.approx([1 / 14, 1 / 42], rel=1e-15)
    assert [p.hex() for p in sw.means[-1].tolist()] == [(1.0).hex(), (0.0).hex(), (0.0).hex()]
    assert sw.p_s_min.hex() == (0.0).hex()


def test_a_lone_live_end_is_exactly_one():
    # evaluate read P_DI = 1.0000000000000002 where DI is the only live end.
    spec = discard_only_spec()
    assert plug_in_start(spec, "raw").tolist() == [1.0, 0.0, 0.0]
    sw = sweep_ineffective(spec, "s0", 1, 0, "plugin")  # the others discard everything
    assert (sw.means == [1.0, 0.0, 0.0]).all() and sw.impact_ratio == 0.0


def dead_ends(spec):
    """The end states that no stakeholder the start reaches over positive
    flows flows to, which its raw chain cannot end in."""
    reached, todo = {spec.start}, [spec.start]
    while todo:
        sid = todo.pop()
        for f in spec.flows:
            if f.source == sid and f.frequency > 0 and f.target not in reached:
                reached.add(f.target)  # an end state too, which no flow leaves
                todo.append(f.target)
    return [i for i, label in enumerate(ABSORBING_ORDER) if label not in reached]


@given(valid_networks())
@example(staged_but_unreached_spec())
def test_raw_plug_in_probabilities_are_zero_where_the_start_cannot_end(spec):
    # Flows of count 0 stage stakeholders the start never reaches over
    # positive flows. Their flows to an end state the start cannot end in
    # must not round into what evaluate, sweep or rank reports of it: +0,
    # never -1e-16. Sweeping a row adds or removes only its flow to DI, so
    # a dead S or US stays dead at every discard.
    dead = dead_ends(spec)
    zero = {(0.0).hex()}
    assert {p.hex() for p in plug_in_start(spec, "raw")[dead].tolist()} <= zero
    ends = [c for c in dead if ABSORBING_ORDER[c] != "DI"]
    for sid in spec.ids:
        try:
            sw = sweep_ineffective(spec, sid, 1, 0, "plugin")
        except (ValidationError, NoNonDiTargetsError):
            continue
        assert {p.hex() for p in sw.means[:, ends].ravel().tolist()} <= zero
        if ABSORBING_ORDER.index("S") in ends:
            assert {sw.p_s_max.hex(), sw.p_s_min.hex(), sw.impact_ratio.hex()} == zero


@given(valid_networks())
@example(discard_cuts_satisfaction_spec())
@example(discard_only_spec())
def test_raw_plug_in_probabilities_lie_in_the_unit_interval(spec):
    # evaluate's triple and every point of every plug-in sweep, so every
    # endpoint a plug-in rank reports: a probability the solve rounds past
    # 0 or 1 is a dead end that is not exactly 0 or a lone end not exactly 1.
    triple = plug_in_start(spec, "raw")
    assert ((0.0 <= triple) & (triple <= 1.0)).all()
    for sid in spec.ids:
        try:
            sw = sweep_ineffective(spec, sid, 1, 0, "plugin")
        except (ValidationError, NoNonDiTargetsError):
            continue  # the sweep is refused
        assert ((0.0 <= sw.means) & (sw.means <= 1.0)).all(), (sid, sw.means)


class TestClosedForm:
    """Plug-in sweeps read their endpoints, impact ratio and curve off one
    solve of the base chain; exact arithmetic and chains rebuilt for every
    grid point check them."""

    def test_impact_ratio_is_exact_where_the_endpoints_nearly_cancel(self):
        # A reaches B once in 1e8 + 1 passes, so B's discard moves P_S,
        # which is nearly 1, by about 1.7e-9: the difference of the two
        # endpoints keeps only about 7 digits of it.
        spec = NetworkSpec(
            (Stakeholder("A", "federal"), Stakeholder("B", "state")),
            (FlowRecord("A", "S", 1e8), FlowRecord("A", "B", 1.0), FlowRecord("B", "S", 1.0),
             FlowRecord("B", "US", 1.0), FlowRecord("B", "DI", 1.0)),
            "A",
        )
        exact = Fraction(1, 10**8 + 1) * Fraction(1, 2) / 3
        assert exact == exact_sweep_ends(spec, "B")[2]
        sw = sweep_ineffective(spec, "B", 1, 0, "plugin")
        assert abs(Fraction(sw.impact_ratio) - exact) <= Fraction(1e-13) * exact

    @given(valid_networks())
    @example(unreached_feeder_spec())
    @example(discard_cuts_satisfaction_spec())
    def test_ratios_and_endpoints_match_exact_arithmetic(self, spec):
        for sid in spec.ids:
            try:
                sw = sweep_ineffective(spec, sid, 1, 0, "plugin")
            except (ValidationError, NoNonDiTargetsError):
                continue  # no zero-discard chain absorbs, or nothing to scale back up
            p0, p1, ratio = exact_sweep_ends(spec, sid)
            np.testing.assert_allclose(
                sw.means[[0, -1]], np.array([p0, p1], dtype=float), rtol=0, atol=1e-13)
            # An endpoint is exactly 0 or 1 where its exact value is.
            for got, exact in zip(sw.means[[0, -1]].ravel().tolist(), [*p0, *p1]):
                assert (got == 0.0, got == 1.0) == (exact == 0, exact == 1), (sid, got, exact)
            # A ratio that is exactly 0 (the start reaches s but s never
            # reaches S) comes out as the solve's rounding of 0.
            error = abs(Fraction(sw.impact_ratio) - ratio)
            assert error <= Fraction(1e-13) * abs(ratio) + Fraction(1e-16)

    @given(valid_networks())
    @example(infoflow.parse_network(document_bytes(wide_row_network())))
    @example(unreached_feeder_spec())
    @example(infoflow.parse_network(document_bytes(layered_network(60, 4))))
    @example(no_di_row_spec())
    def test_curves_match_rebuilt_chains(self, spec):
        # A stakeholder the start does not reach leaves the start's chain
        # as it is: its ratio is exactly 0 and its curve is flat. One it
        # never reaches over positive flows reads the one solve raw
        # evaluate reads, so every point is evaluate's triple, bit for bit.
        # One without DI flow keeps its raw row at zero discard, so that
        # point is evaluate's triple exactly.
        staged = _compiled(spec).reachable[0]
        reached = staged.state_order
        flowed = [sid for sid, hit in zip(reached, staged.routes[0]) if hit]
        discards = {f.source for f in spec.flows if f.target == "DI" and f.frequency > 0}
        for sid in spec.ids:
            try:
                sw = sweep_ineffective(spec, sid, 1, 0, "plugin")
            except (ValidationError, NoNonDiTargetsError):
                continue
            np.testing.assert_allclose(
                sw.means, rebuilt_sweep(spec, sid, 1, 0, "plugin"), rtol=0, atol=1e-12)
            if sid not in reached:
                assert sw.impact_ratio == 0.0 and (sw.means == sw.means[0]).all()
            if sid not in flowed:
                assert (sw.means == plug_in_start(spec, "raw")).all(), sid
            if sid not in discards:
                assert (sw.means[0] == plug_in_start(spec, "raw")).all(), sid
