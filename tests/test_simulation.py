import tracemalloc

import numpy as np
import pytest
from helpers import document_bytes, layered_network

import infoflow
from infoflow import simulation
from infoflow.dirichlet import CountVector
from infoflow.errors import EmptySampleError, SingularSystemError, ValidationError
from infoflow.markov import absorption_probabilities
from infoflow.network import (
    FlowRecord,
    NetworkSpec,
    Stakeholder,
    _compiled,
    plug_in_chain,
    sampled_chain,
)
from infoflow.rng import stream
from infoflow.simulation import draw_samples, run, summarize


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


def set_chunk(monkeypatch, spec, chunk, iterations):
    """Make the engine run `iterations` in chunks of `chunk` draws."""
    n = len(spec.ids)
    monkeypatch.setattr(simulation, "CHUNK_BYTES", chunk * 8 * n * (n + 3))
    assert simulation._chunk_size(_compiled(spec), iterations) == min(chunk, iterations)


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


def test_batch_draws_each_plan_from_its_own_streams(reference_spec):
    # A batch is plans that share one draw layout; plan i draws from
    # streams (seed, *key, i, t), exactly as it would alone.
    plan = _compiled(reference_spec)
    other = plan.override(1, CountVector(("D", "E", "DI"), [3.0, 2.0, 1.0]))
    batch = draw_samples([plan, other], 12, 5, key=(9,))
    assert batch.shape == (2, 12, 3)
    assert np.array_equal(batch[0], draw_samples(plan, 12, 5, key=(9, 0)))
    assert np.array_equal(batch[1], draw_samples(other, 12, 5, key=(9, 1)))
    narrower = plan.override(1, CountVector(("D", "E"), [3.0, 2.0]))
    with pytest.raises(ValueError, match="share one draw layout"):
        draw_samples([plan, narrower], 12, 5)
