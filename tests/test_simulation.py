import dataclasses
import tracemalloc

import numpy as np
import pytest
from helpers import (
    cyclic_spec,
    document_bytes,
    flow_counts,
    layered_network,
    reachable_plug_in_absorption,
    reachable_sampled_absorption,
    with_reallocated,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import infoflow
from infoflow import simulation
from infoflow.errors import (
    EmptySampleError,
    NoNonDiTargetsError,
    SingularSystemError,
    ValidationError,
)
from infoflow.markov import ABSORBING_ORDER, absorption_probabilities
from infoflow.network import (
    FlowRecord,
    NetworkSpec,
    Stakeholder,
    _compiled,
    plug_in_chain,
    sampled_chain,
)
from infoflow.rng import stream
from infoflow.sensitivity import rank_details, reallocate
from infoflow.simulation import draw_samples, plug_in_start, run, summarize


def single_state_spec():
    return NetworkSpec((Stakeholder("A", "federal"),), (FlowRecord("A", "S", 5.0),), "A")


class TestSummarize:
    def test_identical_samples_fill_one_bin(self):
        stats = summarize(np.full(1000, 0.5))
        assert stats.histogram_counts.sum() == 1000
        assert (stats.histogram_counts > 0).sum() == 1
        assert stats.histogram_counts.max() == 1000

    def test_boundary_values_use_closed_last_bin(self):
        stats = summarize(np.array([0.0, 1.0]))
        assert stats.histogram_counts[0] == 1
        assert stats.histogram_counts[-1] == 1
        assert stats.histogram_counts.sum() == 2

    def test_counts_always_sum_to_sample_size(self):
        rng = np.random.default_rng(0)
        values = rng.random(777)
        assert summarize(values, bins=13).histogram_counts.sum() == 777

    def test_empty_samples_rejected(self):
        with pytest.raises(EmptySampleError):
            summarize(np.array([]))
        with pytest.raises(ValueError, match="^bins must be >= 1, got 0$"):
            summarize(np.array([0.25]), bins=0)

    def test_single_sample_has_zero_std(self):
        assert summarize(np.array([0.25])).std == 0.0


class TestRun:
    def test_degenerate_network_is_exact(self):
        summary = run(single_state_spec(), 50, seed=0)
        assert summary.mean_s == 1.0
        assert np.array_equal(summary.samples, np.tile([0.0, 1.0, 0.0], (50, 1)))

    def test_bit_identical_across_repeats(self, reference_spec):
        a = run(reference_spec, 400, seed=21)
        b = run(reference_spec, 400, seed=21)
        assert np.array_equal(a.samples, b.samples)
        assert (a.mean_di, a.mean_s, a.mean_us, a.std_s) == (
            b.mean_di, b.mean_s, b.mean_us, b.std_s
        )
        assert np.array_equal(a.histogram_counts, b.histogram_counts)

    def test_engine_matches_public_per_iteration_path(self, reference_spec):
        # The vectorised engine must reproduce, bit for bit, what the public
        # sampled_chain + absorption_probabilities composition yields.
        fast = draw_samples(reference_spec, 64, 7)
        slow = np.array([
            absorption_probabilities(sampled_chain(reference_spec, stream(7, t))).row("A")
            for t in range(64)
        ])
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("chunk", [1, 7, 30])  # 30 is every iteration
    @pytest.mark.parametrize("network", ["cyclic", "layered"])
    def test_cyclic_engine_matches_public_per_iteration_path(self, monkeypatch, network, chunk):
        # The engine builds I - Q in place in its one staging buffer; a
        # diagonal not reset between chunks, or a drawn cell negated on the
        # wrong side of the Q/R split, would show on chains with loops.
        spec = {
            "cyclic": cyclic_spec,
            "layered": lambda: infoflow.parse_network(document_bytes(layered_network(60, 4))),
        }[network]()
        set_chunk(monkeypatch, spec, chunk, 30)
        shapes = stacked_solve_shapes(monkeypatch)
        fast = draw_samples(spec, 30, 7)
        m = {"cyclic": 3, "layered": 49}[network]
        assert shapes == [(min(chunk, 30 - first), m, m) for first in range(0, 30, chunk)]
        whole = public_path(spec, [stream(7, t) for t in range(30)])
        if network == "cyclic":
            exact = whole
        else:  # the start reaches 49 of the 60 stakeholders; only those are solved
            exact = np.array([reachable_sampled_absorption(spec, stream(7, t)) for t in range(30)])
            np.testing.assert_allclose(fast, whole, rtol=0, atol=1e-15)
        assert np.array_equal(fast, exact)
        assert np.array_equal(np.signbit(fast), np.signbit(exact))

    @pytest.mark.parametrize("chunk", [1, 7, 30])
    def test_exact_zero_draws_match_public_per_iteration_path(self, monkeypatch, chunk):
        # A draw of exactly 0 in Q must give the solve the +0.0 that eye - Q
        # gives, not the -0.0 of a negation.
        spec = cyclic_spec()
        set_chunk(monkeypatch, spec, chunk, 30)
        real = simulation.stream

        class Zeroing:
            # A->X, A->DI, X->DI and Y->X: every row keeps a route to S or US.
            def __init__(self, rng):
                self.rng = rng

            def standard_gamma(self, alpha):
                gammas = self.rng.standard_gamma(alpha)
                gammas[[0, 2, 4, 6]] = 0.0
                return gammas

        solve = np.linalg.solve
        solved = []

        def recording(a, b):
            if a.ndim == 3:  # the engine's stacked solve
                solved.extend(np.array(a))
            return solve(a, b)

        monkeypatch.setattr(simulation, "stream", lambda seed, *path: Zeroing(real(seed, *path)))
        monkeypatch.setattr(np.linalg, "solve", recording)
        fast = draw_samples(spec, 30, 7)
        monkeypatch.setattr(np.linalg, "solve", solve)
        chains = [sampled_chain(spec, Zeroing(real(7, t))) for t in range(30)]
        slow = np.array([absorption_probabilities(tm).row("A") for tm in chains])
        assert np.array_equal(fast, slow)
        assert np.array_equal(np.signbit(fast), np.signbit(slow))
        assert np.all(fast[:, 0] == 0.0)  # no route to DI is left
        assert len(solved) == 30
        for a, tm in zip(solved, chains):
            want = np.eye(3) - tm.q
            assert np.array_equal(a, want)
            assert np.array_equal(np.signbit(a), np.signbit(want))

    def test_wide_row_engine_matches_public_per_iteration_path(self, wide_row_spec):
        # Rows of 8-12 targets normalise through a batched gather; only a
        # C-contiguous gather sums each row as the one-draw path does.
        fast = draw_samples(wide_row_spec, 50, 7)
        start = wide_row_spec.start
        slow = np.array([
            absorption_probabilities(sampled_chain(wide_row_spec, stream(7, t))).row(start)
            for t in range(50)
        ])
        assert np.array_equal(fast, slow)

    def test_triples_conserve_probability(self, reference_spec):
        summary = run(reference_spec, 1000, seed=3)
        np.testing.assert_allclose(summary.samples.sum(axis=1), 1.0, atol=1e-9)
        assert summary.mean_di + summary.mean_s + summary.mean_us == pytest.approx(
            1.0, abs=1e-9
        )

    def test_mean_matches_reference_target(self, reference_spec):
        summary = run(reference_spec, 1000, seed=17)
        assert summary.mean_s == pytest.approx(0.481, abs=0.02)

    def test_histogram_mode_near_expected_mean(self, reference_spec):
        summary = run(reference_spec, 2000, seed=29)
        mode_bin = int(np.argmax(summary.histogram_counts))
        center = (summary.histogram_edges[mode_bin] + summary.histogram_edges[mode_bin + 1]) / 2
        assert center == pytest.approx(0.48, abs=0.03)

    def test_mean_agrees_with_posterior_mean_plug_in(self, reference_spec):
        # The reference network is feed-forward, so the Monte Carlo mean
        # should sit on the posterior-mean plug-in value up to sampling noise.
        plug = absorption_probabilities(
            plug_in_chain(reference_spec, "posterior-mean")
        ).row("A")[1]
        summary = run(reference_spec, 100_000, seed=13)
        assert summary.mean_s == pytest.approx(plug, abs=0.01)

    def test_standard_error_scales_with_sqrt_iterations(self, reference_spec):
        # The per-draw spread is iteration-invariant, so the standard error
        # std_s / sqrt(n) must halve per quadrupling; each run's mean must
        # also sit within 4 standard errors of the exact expectation.
        exact = absorption_probabilities(
            plug_in_chain(reference_spec, "posterior-mean")
        ).row("A")[1]
        ses = {}
        for n in (1000, 4000, 16_000):
            summary = run(reference_spec, n, seed=31)
            se = summary.std_s / np.sqrt(n)
            ses[n] = se
            assert abs(summary.mean_s - exact) < 4 * se
        assert ses[1000] / ses[4000] == pytest.approx(2.0, rel=0.3)
        assert ses[4000] / ses[16_000] == pytest.approx(2.0, rel=0.3)

    def test_invalid_spec_rejected(self):
        bad = NetworkSpec(
            (Stakeholder("A", "federal"), Stakeholder("X", "local")),
            (FlowRecord("A", "X", 5.0),),
            "A",
        )
        with pytest.raises(ValidationError):
            run(bad, 10, seed=0)

    def test_iterations_must_be_positive(self, reference_spec):
        with pytest.raises(ValueError):
            run(reference_spec, 0, seed=0)

    def test_bins_override(self, reference_spec):
        summary = run(reference_spec, 100, seed=1, bins=10)
        assert len(summary.histogram_counts) == 10
        assert len(summary.histogram_edges) == 11

    def test_histogram_edges_are_built_once(self, reference_spec, monkeypatch):
        # Built before any draw, so edges that do not fit are refused first,
        # and the same edges bin the samples.
        edges, built = simulation._edges, []
        monkeypatch.setattr(simulation, "_edges", lambda bins: built.append(bins) or edges(bins))
        summary = run(reference_spec, 3, 1, bins=7)
        assert built == [7]
        np.testing.assert_array_equal(summary.histogram_edges, np.linspace(0.0, 1.0, 8))


def public_path(spec, streams):
    """Start-state triples of sampled_chain + absorption_probabilities, one
    per stream."""
    return np.array([
        absorption_probabilities(sampled_chain(spec, rng)).row(spec.start) for rng in streams
    ])


def stacked_solve_shapes(monkeypatch):
    """Record the shape of every stacked I - Q given to np.linalg.solve."""
    solve, shapes = np.linalg.solve, []

    def recording(a, b):
        if a.ndim == 3:
            shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return shapes


def set_chunk(monkeypatch, spec, chunk, iterations):
    """Make the engine run `iterations` in chunks of `chunk` draws, each
    draw one (m, m + 3) block of the m stakeholders it stages."""
    staged = _compiled(spec).reachable[0]
    m = len(staged.totals)
    monkeypatch.setattr(simulation, "CHUNK_BYTES", chunk * 8 * m * (m + 3))
    assert simulation._chunk_size(staged, iterations) == min(chunk, iterations)


class TestChunking:
    ITERATIONS = 40

    @pytest.mark.parametrize("network", ["reference_spec", "wide_row_spec"])
    def test_triples_do_not_depend_on_chunk_size(self, request, monkeypatch, network):
        spec = request.getfixturevalue(network)
        results = []
        for chunk in (1, 7, self.ITERATIONS, 1000):  # 7 does not divide 40
            set_chunk(monkeypatch, spec, chunk, self.ITERATIONS)
            results.append(draw_samples(spec, self.ITERATIONS, 19, key=(2, 3)))
        for other in results[1:]:
            assert np.array_equal(results[0], other)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_singular_iteration_is_named_across_chunks(self, reference_spec, monkeypatch):
        # Chunks of 7: iteration 10 is the fourth draw of the second chunk.
        set_chunk(monkeypatch, reference_spec, 7, 20)
        real = simulation.stream

        class Overflowing:
            def standard_gamma(self, alpha):
                return np.full(len(alpha), np.inf)  # rows become inf / inf = nan

        def broken_at_10(seed, *path):
            return Overflowing() if path[-1] == 10 else real(seed, *path)

        monkeypatch.setattr(simulation, "stream", broken_at_10)
        with pytest.raises(SingularSystemError, match="^iteration 10: I - Q is singular$"):
            draw_samples(reference_spec, 20, 1)

    def test_ill_conditioned_iteration_is_named_across_chunks(self, monkeypatch):
        # At iteration 12, the sixth draw of the second chunk of 7, X and Y
        # pass almost all their flow to each other: every entry of B stays
        # finite, but its rows miss a sum of 1.
        spec = cyclic_spec()
        set_chunk(monkeypatch, spec, 7, 20)
        real = simulation.stream

        class Sticky:
            def standard_gamma(self, alpha):
                gammas = np.ones(len(alpha))
                gammas[[3, 6]] = 1e12  # X->Y and Y->X
                return gammas

        def sticky_at_12(seed, *path):
            return Sticky() if path[-1] == 12 else real(seed, *path)

        monkeypatch.setattr(simulation, "stream", sticky_at_12)
        with pytest.raises(
            SingularSystemError,
            match=r"^iteration 12: absorption probabilities sum to \S+, not 1; "
            r"I - Q is too ill-conditioned$",
        ):
            draw_samples(spec, 20, 1)


def test_memory_is_bounded_in_iterations():
    spec = infoflow.parse_network(document_bytes(layered_network(150, 4)))
    draw_samples(spec, 1, 0)  # compile the plan and its draw layout

    def peak(iterations):
        tracemalloc.start()
        try:
            draw_samples(spec, iterations, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    output = 8 * 3 * (800 - 100)
    assert peak(800) - peak(100) - output < 2**20


@pytest.mark.parametrize("chunks", [1, 3])
def test_one_staging_buffer_per_chunk(monkeypatch, chunks):
    # A chunk holds one (chunk, n, n + 3) buffer, [Q | R] and then
    # [I - Q | R] in place; a second (chunk, n, n) I - Q would double it.
    # The start reaches 109 of the 150 stakeholders, so the staged block is
    # (109, 112), about half the whole chain's (150, 153).
    spec = infoflow.parse_network(document_bytes(layered_network(150, 4)))
    chunk, m = 4, len(_compiled(spec).reachable[0].totals)
    assert m == 109
    set_chunk(monkeypatch, spec, chunk, chunk * chunks)
    draw_samples(spec, 1, 0)  # compile the plan and its draw layout
    tracemalloc.start()
    try:
        draw_samples(spec, chunk * chunks, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = 8 * 3 * chunk * chunks
    assert peak < 1.5 * chunk * 8 * m * (m + 3) + output


def with_row(plan, i, counts):
    """`plan` with row i's counts replaced by `counts`."""
    values = plan.counts.copy()
    values[plan.span(i)] = counts
    return dataclasses.replace(plan, counts=values)


def test_batch_draws_each_plan_from_its_own_streams(reference_spec):
    # A sweep replaces one row's alpha by each row of an alpha matrix in
    # turn; increment i draws from streams (seed, *key, i, t), exactly as a
    # plan holding that row alone would, and returns their mean.
    plan = _compiled(reference_spec)
    alphas = np.array([[4.0, 3.0, 2.0], [1.0, 1.5, 7.0], [2.5, 1.0, 1.0]])
    assert len(plan.counts[plan.span(1)]) == alphas.shape[1]
    sweep = draw_samples(plan, 12, 5, key=(9,), swept=(1, alphas))
    assert sweep.shape == (3, 3)
    for i, alpha in enumerate(alphas):
        alone = with_row(plan, 1, alpha - 1.0)
        assert np.array_equal(sweep[i], draw_samples(alone, 12, 5, key=(9, i)).mean(axis=0))
    for width in (2, 4):  # a matrix over other labels is refused, not spread over other rows
        with pytest.raises(ValueError):
            draw_samples(plan, 12, 5, swept=(1, np.ones((2, width))))


@given(
    st.integers(1, 40),
    st.lists(st.lists(st.floats(1.0, 20.0), min_size=3, max_size=3), min_size=1, max_size=5),
    st.sampled_from([1, 7, 13]),
    st.integers(0, 2**32),
)
@settings(max_examples=40)
def test_sweep_means_sum_each_increment_in_draw_order(
    reference_spec, iterations, alphas, chunk, seed
):
    # numpy does not promise the order in which mean(axis=0) sums. A sweep
    # sums each increment's triples in draw order, through chunks that
    # straddle increments, and must give that increment's own mean bit for bit.
    plan = _compiled(reference_spec)
    alphas = np.array(alphas)
    with pytest.MonkeyPatch.context() as mp:
        set_chunk(mp, reference_spec, chunk, len(alphas) * iterations)
        sweep = draw_samples(plan, iterations, seed, key=(2,), swept=(1, alphas))
    for i, alpha in enumerate(alphas):
        alone = with_row(plan, 1, alpha - 1.0)
        want = draw_samples(alone, iterations, seed, key=(2, i)).mean(axis=0)
        assert np.array_equal(sweep[i], want)


@st.composite
def partly_unreachable_specs(draw):
    """Valid specs whose start R0 cannot reach the stakeholders U*: R* send
    flow only to R*, U* to anyone. Every stakeholder also has a direct
    absorbing flow, and flows between stakeholders may have frequency 0,
    which a posterior draw still takes. Declaration order is shuffled."""
    ids = [f"R{i}" for i in range(draw(st.integers(1, 5)))]
    ids += [f"U{i}" for i in range(draw(st.integers(1, 4)))]
    flows = []
    for sid in ids:
        pool = [t for t in ids if t != sid and (t[0] == "R" or sid[0] == "U")]
        for target in draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []:
            flows.append(FlowRecord(sid, target, float(draw(st.integers(0, 20)))))
        exits = draw(st.lists(st.sampled_from(ABSORBING_ORDER), min_size=1, unique=True))
        for target in exits:
            flows.append(FlowRecord(sid, target, float(draw(st.integers(1, 20)))))
    order = draw(st.permutations(ids))
    return NetworkSpec(tuple(Stakeholder(sid, "local") for sid in order), tuple(flows), "R0")


def dead_end_spec():
    """No stakeholder R0 reaches flows to S or US, so both columns of every
    draw's solve are signed zeros: draw 0 of seed 1 reads (0.9999999999999999,
    -0.0, -0.0)."""
    flows = [("R0", "R1", 0.0), ("R0", "R2", 0.0), ("R0", "DI", 1.0), ("R1", "R0", 1.0),
             ("R1", "DI", 1.0), ("R2", "R0", 0.0), ("R2", "DI", 1.0), ("U0", "DI", 1.0),
             ("U1", "DI", 1.0)]
    stakeholders = tuple(Stakeholder(sid, "local") for sid in ("R2", "R0", "U0", "R1", "U1"))
    return NetworkSpec(stakeholders, tuple(FlowRecord(*f) for f in flows), "R0")


@given(partly_unreachable_specs(), st.integers(0, 2**32))
@example(dead_end_spec(), 1)
@settings(max_examples=50)
def test_engine_solves_only_what_the_start_reaches(spec, seed):
    # Exactly the chain restricted to the stakeholders the start reaches,
    # and within rounding of the whole chain, whose other rows cannot
    # change the start's absorption probabilities.
    fast = draw_samples(spec, 6, seed)
    exact = np.array([reachable_sampled_absorption(spec, stream(seed, t)) for t in range(6)])
    assert np.array_equal(fast, exact)
    assert np.array_equal(np.signbit(fast), np.signbit(exact))
    whole = public_path(spec, [stream(seed, t) for t in range(6)])
    np.testing.assert_allclose(fast, whole, rtol=0, atol=1e-15)
    np.testing.assert_allclose(fast.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def _plug_in_oracles(spec, mode):
    """The start's plug-in triple in `mode`: exactly, over the stakeholders
    the start reaches, and over the whole chain."""
    whole = absorption_probabilities(plug_in_chain(spec, mode)).row(spec.start)
    return reachable_plug_in_absorption(spec, mode), whole


def lone_end_spec():
    """X0's only end is S, which its posterior-mean solve rounds to
    0.9999999999999997."""
    flows = [("X0", "X1", 14.0), ("X0", "X2", 30.0), ("X1", "X0", 9.0), ("X1", "S", 2.0),
             ("X2", "X0", 33.0)]
    stakeholders = tuple(Stakeholder(sid, "local") for sid in ("X0", "X1", "X2"))
    return NetworkSpec(stakeholders, tuple(FlowRecord(*f) for f in flows), "X0")


@given(partly_unreachable_specs())
@example(lone_end_spec())
@settings(max_examples=50)
def test_plug_in_solves_only_what_the_start_reaches(spec):
    # evaluate solves exactly the chain restricted to the stakeholders the
    # start reaches, within rounding of the whole chain, except that a lone
    # live end reads exactly 1 in either mode; the endpoints of a plug-in
    # rank, read off one solve of that chain, are within rounding of both; a
    # stakeholder the start cannot reach has no impact.
    for mode in ("raw", "posterior-mean"):
        got = plug_in_start(spec, mode)
        exact, whole = _plug_in_oracles(spec, mode)
        if np.count_nonzero(exact) == 1:
            exact = (exact != 0.0).astype(float)
        assert np.array_equal(got, exact)
        np.testing.assert_allclose(got, whole, rtol=0, atol=1e-15)
    try:
        ranked = rank_details(spec, 1, 0, "plugin")
    except (ValidationError, NoNonDiTargetsError):
        assume(False)  # zero discard cuts a row's only route to absorption
    for sw in ranked:
        base = flow_counts(spec, sw.stakeholder)
        for di, p_s in ((0.0, sw.p_s_max), (base.total, sw.p_s_min)):
            exact, whole = _plug_in_oracles(
                with_reallocated(spec, sw.stakeholder, reallocate(base, di)), "raw"
            )
            assert abs(p_s - exact[1]) <= 1e-15
            assert abs(p_s - whole[1]) <= 1e-15
        if sw.stakeholder.startswith("U"):  # the start cannot reach it
            assert sw.impact_ratio == 0.0
