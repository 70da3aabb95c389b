"""Seeded Monte Carlo over posterior draws.

Each iteration samples a full chain from the stakeholders' flat-prior
posteriors, solves for absorption probabilities, and records the start
stakeholder's (P_DI, P_S, P_US) triple. Iteration t always uses the random
stream derived from (seed, t), so the output is a pure function of
(spec, iterations, seed) no matter how iterations are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySampleError, SingularSystemError
from .network import NetworkSpec, _compiled, _draw_rows, _Plan
from .rng import stream

DEFAULT_BINS = 50


@dataclass(frozen=True, eq=False)
class SampleStats:
    """Histogram and moments of one scalar sample set."""

    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    mean: float
    std: float


@dataclass(frozen=True, eq=False)
class SimulationSummary:
    iterations: int
    seed: int
    samples: np.ndarray  # (iterations, 3) columns (P_DI, P_S, P_US) from start
    mean_di: float
    mean_s: float
    mean_us: float
    std_s: float
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray


def summarize(values, bins: int = DEFAULT_BINS) -> SampleStats:
    """Fixed-width histogram over [0, 1] plus mean and sample std.

    The last bin is right-closed, so 1.0 lands in it and counts always sum
    to the sample count. Values are clipped into [0, 1] for bin assignment
    only; moments use the raw values.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EmptySampleError("cannot summarize an empty sample set")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(np.clip(values, 0.0, 1.0), bins=edges)
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return SampleStats(edges, counts, float(values.mean()), std)


def _simulate_block(plan: _Plan, iterations: int, seed: int, key) -> np.ndarray:
    """(iterations, 3) start-state absorption triples of `plan`.

    Iteration t draws its chain from stream (seed, *key, t) with the helper
    sampled_chain uses, so each triple equals what sampled_chain +
    absorption_probabilities give for that stream; all chains are then
    normalized and solved as one stacked system.
    """
    n = len(plan.rows)
    qr = np.zeros((iterations, n, len(plan.state_order)))
    for t in range(iterations):
        _draw_rows(plan, stream(seed, *key, t), qr[t])
    q, r = qr[..., :n], qr[..., n:]
    sums = q.sum(axis=2) + r.sum(axis=2)
    q /= sums[..., np.newaxis]
    r /= sums[..., np.newaxis]
    a = np.eye(n) - q
    try:
        b = np.linalg.solve(a, r)
    except np.linalg.LinAlgError:
        b = None
    if b is None or not np.all(np.isfinite(b)):
        for t in range(iterations):  # localize the offending iteration
            try:
                bt = np.linalg.solve(a[t], r[t])
            except np.linalg.LinAlgError:
                bt = None
            if bt is None or not np.all(np.isfinite(bt)):
                raise SingularSystemError(f"iteration {t}: I - Q is singular")
        raise SingularSystemError("I - Q is singular")
    return b[:, plan.start, :].copy()


def draw_samples(
    spec: NetworkSpec | _Plan,
    iterations: int,
    seed: int,
    *,
    key: tuple[int, ...] = (),
) -> np.ndarray:
    """(iterations, 3) start-state absorption triples, one per posterior draw.

    `spec` may also be a plan compiled from a spec; sweeps pass the base
    plan with the swept row overridden. `key` prefixes the per-iteration
    stream path; sweeps use it to give each (stakeholder, increment) its own
    family of streams under one master seed.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    plan = spec if isinstance(spec, _Plan) else _compiled(spec)  # validates a spec
    return _simulate_block(plan, iterations, seed, key)


def run(
    spec: NetworkSpec,
    iterations: int,
    seed: int,
    *,
    bins: int = DEFAULT_BINS,
) -> SimulationSummary:
    """Monte Carlo estimate of the absorption distribution from the start state."""
    samples = draw_samples(spec, iterations, seed)
    stats = summarize(samples[:, 1], bins=bins)
    mean_di, mean_s, mean_us = samples.mean(axis=0)
    samples.flags.writeable = False
    return SimulationSummary(
        iterations=iterations,
        seed=seed,
        samples=samples,
        mean_di=float(mean_di),
        mean_s=float(mean_s),
        mean_us=float(mean_us),
        std_s=stats.std,
        histogram_edges=stats.histogram_edges,
        histogram_counts=stats.histogram_counts,
    )
