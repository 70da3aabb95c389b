"""Reference targets the bundled network's fitted splits reproduce.

Each Monte Carlo figure must lie within 5 standard errors of its target,
where the standard error is the run's own std / sqrt(iterations), plus
5e-4 for the 3-decimal rounding of the published numbers. The seed and the
iteration counts are fixed here once; they are not tuned to the results.
"""

import numpy as np
import pytest

from infoflow.sensitivity import rank_details, sweep_ineffective
from infoflow.simulation import run

SEED = 2020
BASELINE_ITERATIONS = 4000
SWEEP_ITERATIONS = 200
Z_SE = 5.0
ROUNDING = 5e-4


def assert_near(estimate, samples, target):
    se = np.std(samples, ddof=1) / np.sqrt(len(samples))
    assert abs(estimate - target) <= Z_SE * se + ROUNDING, (estimate, target, se)


def test_baseline_mean_p_s(reference_spec):
    summary = run(reference_spec, BASELINE_ITERATIONS, seed=SEED)
    assert_near(summary.mean_s, summary.samples[:, 1], 0.481)


@pytest.mark.parametrize(
    "stakeholder, p_s_max, p_s_min, total",
    [("D", 0.507, 0.345, 30.0), ("E", 0.554, 0.154, 55.0)],
)
def test_sweep_endpoints(reference_spec, stakeholder, p_s_max, p_s_min, total):
    sw = sweep_ineffective(reference_spec, stakeholder, SWEEP_ITERATIONS, SEED, "mc")
    assert (sw.n_di_min, sw.n_di_max) == (0.0, total)
    assert_near(sw.p_s_max, sw.samples[0, :, 1], p_s_max)
    assert_near(sw.p_s_min, sw.samples[-1, :, 1], p_s_min)


def test_plug_in_order(reference_spec):
    sweeps = rank_details(reference_spec, 1, SEED, "plug-in")
    assert [sw.stakeholder for sw in sweeps] == ["E", "C", "D", "B"]
