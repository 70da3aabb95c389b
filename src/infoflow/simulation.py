"""Seeded Monte Carlo over posterior draws.

Each iteration samples a full chain from the stakeholders' flat-prior
posteriors, solves for absorption probabilities, and records the start
stakeholder's (P_DI, P_S, P_US) triple. Iteration t always uses the random
stream derived from (seed, t), so the output is a pure function of
(spec, iterations, seed) no matter how iterations are scheduled.

The engine takes a batch of plans that share one draw layout: one plan
for a simulation, or every increment of a sweep, whose plans differ only
in the alpha of the swept row. A draw costs one stream derivation and one
standard_gamma call over its plan's concatenated alphas. The batch's draws
then run back to back in chunks whose stacked [Q | R] blocks fit in
CHUNK_BYTES: each chunk is normalised group by group with the shared
layout and solved as one stacked system. Memory is therefore bounded by
the chunk buffers plus the (plans, iterations, 3) output, whatever the
iteration count, and the triples do not depend on the chunk size.
"""

from __future__ import annotations

from collections.abc import Sequence
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


def _chunk_size(plan: _Plan, draws: int) -> int:
    """Draws per chunk: as many stacked [Q | R] blocks as fit in
    CHUNK_BYTES, at least one and at most `draws`."""
    block = 8 * len(plan.rows) * len(plan.state_order)
    return max(1, min(draws, CHUNK_BYTES // block))


def _simulate_block(layout: _Plan, members, iterations: int, seed: int) -> np.ndarray:
    """(members, iterations, 3) start-state absorption triples.

    `members` are (alpha, key) pairs of plans that share `layout`'s draw
    layout. Iteration t of a member draws from stream (seed, *key, t) with
    one standard_gamma call over its alpha. The members' draws run back to
    back in chunks of _chunk_size, so a chunk may hold the end of one member
    and the start of the next: each chunk's draws are normalised into a
    stacked [Q | R] buffer by the helper sampled_chain uses, then solved as
    one stacked system. So each triple equals what sampled_chain +
    absorption_probabilities give for its stream and plan, whatever the
    chunk size, and only the output grows with the number of draws.
    """
    n = len(layout.rows)
    total = len(members) * iterations
    chunk = _chunk_size(layout, total)
    out = np.empty((total, 3))
    gammas = np.empty((chunk, layout.alpha.size))
    qr_buf = np.zeros((chunk, n, len(layout.state_order)))  # cells no row draws stay 0
    a_buf = np.empty((chunk, n, n))
    eye = np.eye(n)
    draws = ((alpha, key, t) for alpha, key in members for t in range(iterations))
    for first in range(0, total, chunk):
        m = min(chunk, total - first)
        for j, (alpha, key, t) in zip(range(m), draws):
            gammas[j] = stream(seed, *key, t).standard_gamma(alpha)
        qr, a = qr_buf[:m], a_buf[:m]
        _fill_draws(layout, gammas[:m], qr)
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
            _raise_singular(a, r, first, iterations)
        out[first : first + m] = b[:, layout.start, :]
    return out.reshape(len(members), iterations, 3)


def _raise_singular(a: np.ndarray, r: np.ndarray, first: int, iterations: int) -> NoReturn:
    """Name the iteration, within its member, of the first draw of a chunk
    starting at draw `first` whose I - Q is singular."""
    for j in range(len(a)):
        try:
            bj = np.linalg.solve(a[j], r[j])
        except np.linalg.LinAlgError:
            bj = None
        if bj is None or not np.all(np.isfinite(bj)):
            t = (first + j) % iterations
            raise SingularSystemError(f"iteration {t}: I - Q is singular")
    raise SingularSystemError("I - Q is singular")


def draw_samples(
    spec: NetworkSpec | _Plan | Sequence[_Plan],
    iterations: int,
    seed: int,
    *,
    key: tuple[int, ...] = (),
) -> np.ndarray:
    """(iterations, 3) start-state absorption triples, one per posterior draw.

    `key` prefixes the per-iteration stream path: iteration t draws from
    stream (seed, *key, t). `spec` may also be a plan compiled from a spec,
    or a batch: a sequence of plans that share one draw layout, as the
    overrides of one row with counts of the same labels do. Plan i of a
    batch draws from streams (seed, *key, i, t) and the result is
    (plans, iterations, 3). Sweeps pass all increments of one stakeholder
    as one batch, so each (stakeholder, increment) has its own family of
    streams under one master seed.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if isinstance(spec, (NetworkSpec, _Plan)):
        plan = spec if isinstance(spec, _Plan) else _compiled(spec)  # validates a spec
        return _simulate_block(plan, [(plan.alpha, key)], iterations, seed)[0]
    layout = spec[0]
    if not all(layout.shares_layout(plan) for plan in spec):
        raise ValueError("the plans of a batch must share one draw layout")
    members = [(plan.alpha, (*key, i)) for i, plan in enumerate(spec)]
    return _simulate_block(layout, members, iterations, seed)


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
