"""Seeded Monte Carlo over posterior draws.

Each iteration samples a full chain from the stakeholders' flat-prior
posteriors, solves for absorption probabilities, and records the start
stakeholder's (P_DI, P_S, P_US) triple. Iteration t always uses the random
stream derived from (seed, t), so the output is a pure function of
(spec, iterations, seed) no matter how iterations are scheduled.

An iteration costs one stream derivation and one standard_gamma call over
all rows' concatenated alphas. Iterations then run in chunks whose stacked
[Q | R] blocks fit in CHUNK_BYTES: each chunk is normalised group by group
and solved as one stacked system. Memory is therefore bounded by the chunk
buffers plus the (iterations, 3) output, whatever the iteration count, and
the triples do not depend on the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import EmptySampleError, SingularSystemError
from .network import NetworkSpec, _compiled, _fill_draws, _Plan
from .rng import stream

DEFAULT_BINS = 50
CHUNK_BYTES = 4 * 2**20  # stacked [Q | R] draws held at once by one chunk


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


def _chunk_size(plan: _Plan, iterations: int) -> int:
    """Iterations per chunk: as many stacked [Q | R] blocks as fit in
    CHUNK_BYTES, at least one and at most `iterations`."""
    block = 8 * len(plan.rows) * len(plan.state_order)
    return max(1, min(iterations, CHUNK_BYTES // block))


def _simulate_block(plan: _Plan, iterations: int, seed: int, key) -> np.ndarray:
    """(iterations, 3) start-state absorption triples of `plan`.

    Iteration t draws from stream (seed, *key, t) with one standard_gamma
    call over the plan's concatenated alphas. Iterations run in chunks of
    _chunk_size: each chunk's draws are normalised into a stacked [Q | R]
    buffer by the helper sampled_chain uses, then solved as one stacked
    system. So each triple equals what sampled_chain +
    absorption_probabilities give for that stream, whatever the chunk size,
    and only the output grows with the iteration count.
    """
    n = len(plan.rows)
    chunk = _chunk_size(plan, iterations)
    out = np.empty((iterations, 3))
    gammas = np.empty((chunk, plan.alpha.size))
    qr_buf = np.zeros((chunk, n, len(plan.state_order)))  # cells no row draws stay 0
    a_buf = np.empty((chunk, n, n))
    eye = np.eye(n)
    for first in range(0, iterations, chunk):
        m = min(chunk, iterations - first)
        for t in range(m):
            gammas[t] = stream(seed, *key, first + t).standard_gamma(plan.alpha)
        qr, a = qr_buf[:m], a_buf[:m]
        _fill_draws(plan, gammas[:m], qr)
        q, r = qr[..., :n], qr[..., n:]
        sums = q.sum(axis=2) + r.sum(axis=2)
        q /= sums[..., np.newaxis]
        r /= sums[..., np.newaxis]
        np.subtract(eye, q, out=a)
        try:
            b = np.linalg.solve(a, r)
        except np.linalg.LinAlgError:
            b = None
        if b is None or not np.all(np.isfinite(b)):
            _raise_singular(a, r, first)
        out[first : first + m] = b[:, plan.start, :]
    return out


def _raise_singular(a: np.ndarray, r: np.ndarray, first: int) -> NoReturn:
    """Name the first iteration of a chunk starting at `first` whose
    I - Q is singular."""
    for t in range(len(a)):
        try:
            bt = np.linalg.solve(a[t], r[t])
        except np.linalg.LinAlgError:
            bt = None
        if bt is None or not np.all(np.isfinite(bt)):
            raise SingularSystemError(f"iteration {first + t}: I - Q is singular")
    raise SingularSystemError("I - Q is singular")


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
