"""Seeded Monte Carlo over posterior draws, solved as stacks of absorbing
chains, and the start's row of the one solve of a plug-in chain.

Each iteration samples a chain from the stakeholders' flat-prior
posteriors, solves for absorption probabilities, and records the start
stakeholder's (P_DI, P_S, P_US) triple. Iteration t always uses the random
stream derived from (seed, t), so the output is a pure function of
(spec, iterations, seed) no matter how iterations are scheduled.

The engine draws one plan, or a sweep of it: the plan with its swept row's
alpha replaced by each row of an alpha matrix in turn, one increment at a
time. A draw costs one stream and one standard_gamma call over the plan's
concatenated alphas, every row's. The stream's seed words are one row of a
block that rng derives for 64 consecutive iterations at once, so the
stream costs little more than constructing its PCG64 generator.

Only Monte Carlo draws go through the staged solve, _absorb. Plug-in
evaluate in either mode, plug-in sweeps and rankings solve no chain here:
they read one solve of the same stakeholders' plug-in chain in that mode
(network._Plan.nb), sweeps the raw one in closed form. All these solves
refuse a singular system in one place, _solved, and a start triple that
misses 1 in one place, _checked. Only the stakeholders the start reaches
over labelled cells (`_Plan.reachable`) are staged and solved: no labelled
cell leaves them, so the start's row of B = (I - Q)^-1 R depends on their
rows alone. draw_samples runs its chains back to back in chunks whose
stacked (m, m + 3) blocks, m the number of those stakeholders, fit in
CHUNK_BYTES, through one staging buffer that the staged solve turns into
[I - Q | R] in place, its cells found through one index, `_Plan.placement`.
Memory is that buffer, the fill's and the solve's temporaries (of its
order; larger on small networks) and the output (a sweep's: its means),
whatever the iteration count; nothing drawn depends on the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptySampleError, SingularSystemError
from .markov import ROW_SUM_TOL
from .network import NetworkSpec, _compiled, _fill_draws, _Plan
from .rng import stream

DEFAULT_BINS = 50
# Bounds the one staging buffer of a chunk: its stacked [Q | R] draws, turned
# into [I - Q | R] in place. On a 200-stakeholder network 2 MiB draws about
# as fast as 4 MiB with half the memory; 1 MiB is slower.
CHUNK_BYTES = 2 * 2**20


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
    return _summarized(values, _edges(bins))


def _summarized(values: np.ndarray, edges: np.ndarray) -> SampleStats:
    """summarize of a non-empty float `values` over edges _edges built."""
    counts, _ = np.histogram(np.clip(values, 0.0, 1.0), bins=edges)
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return SampleStats(edges, counts, float(values.mean()), std)


def _edges(bins: int) -> np.ndarray:
    """The bins + 1 (bins >= 1) histogram edges over [0, 1]; MemoryError
    where they do not fit."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    return _sized(lambda: np.linspace(0.0, 1.0, bins + 1), bins + 1)


def _sized(make, count: float = 0):
    """make(), or MemoryError where numpy's size limit refuses the array it
    builds. numpy refuses with ValueError, except that np.linspace and
    np.arange wrap a length of 2**63 to an empty array; so `count`, the
    length they are asked for, is refused first where np.intp cannot hold
    it as the double they compute it as, with numpy's message for longer
    ones."""
    limit = np.iinfo(np.intp).max
    if float(min(count, limit + 1)) > limit:  # min: an int past float's range converts
        raise MemoryError("Maximum allowed size exceeded")
    try:
        return make()
    except ValueError as exc:
        raise MemoryError(str(exc)) from None


def _chunk_size(plan: _Plan, draws: int) -> int:
    """Draws per chunk: as many stacked (n, n + 3) blocks as fit in
    CHUNK_BYTES, at least one and at most `draws`."""
    block = 8 * len(plan.totals) * len(plan.state_order)
    return max(1, min(draws, CHUNK_BYTES // block))


def _unnamed(j: int) -> str:
    return ""


def plug_in_start(spec: NetworkSpec, mode: str) -> np.ndarray:
    """The start's (P_DI, P_S, P_US) in plug-in chain `mode`, raw or
    posterior-mean: plug_in_chain(spec, mode) restricted to the stakeholders
    the start reaches, solved by absorption_probabilities, bit for bit, but
    _exact at its dead ends (`_Plan.routes`): the start's row of `_Plan.nb`
    of that restricted plan in `mode`, raw's the solve plug-in sweeps read."""
    staged = _compiled(spec).reachable[0]  # validates the spec
    if mode != staged.mode:  # raw keeps the cached solve; qr refuses an unknown mode
        staged = replace(staged, mode=mode)
    start = staged.nb[staged.start, len(staged.totals) :]
    return _exact(_checked(start[np.newaxis])[0], staged.routes[1])


def _absorb(staged: _Plan, qr: np.ndarray, name) -> np.ndarray:
    """(len(qr), 3) start-state triples of a stack of Monte Carlo draws over
    the stakeholders of `staged`, solved in the C-contiguous (chains, n, n +
    3) buffer `qr`.

    `qr` holds each chain's [Q | R] rows, not yet normalised, in the cells
    of `staged.placement`, the plan's only layout index, and 0 elsewhere.
    Rows are summed as build_canonical sums them; only those cells are
    divided by their row's sum, Q's cells subtracted from 0 and Q's
    diagonal (never written: validate forbids self-loops) set to 1. That
    is [I - Q | R] with the bits eye - Q gives, solved as one stacked
    system; the diagonal then goes back to 0, so the buffer can be filled
    again. Only the start row is reported, so only it must sum to 1 within
    ROW_SUM_TOL. `name(j)` prefixes chain j's error.
    """
    n = len(staged.totals)
    a, r = qr[..., :n], qr[..., n:]  # a holds Q until rewritten as I - Q
    sums = a.sum(axis=2) + r.sum(axis=2)
    flat = qr.reshape(len(qr), -1)
    filled = flat[:, staged.placement]
    filled /= sums[:, staged.source]
    np.subtract(0.0, filled, out=filled, where=staged.column < n)  # not -x: 0 - 0 is +0
    flat[:, staged.placement] = filled
    diagonal = np.arange(n) * (len(staged.state_order) + 1)
    flat[:, diagonal] = 1.0
    kept = _checked(_solved(a, r, name)[:, staged.start, :], name)
    flat[:, diagonal] = 0.0
    return kept


def _finite_solve(a: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    try:
        x = np.linalg.solve(a, r)
    except np.linalg.LinAlgError:
        return None
    return x if np.all(np.isfinite(x)) else None


def _solved(a: np.ndarray, r: np.ndarray, name=_unnamed) -> np.ndarray:
    """np.linalg.solve of the stacked systems a x = r, (k, m, m) and (k, m,
    c). Where one is singular or its solution is not finite, raises
    SingularSystemError("I - Q is singular"), prefixed by `name(j)` for the
    first system j that fails alone."""
    x = _finite_solve(a, r)
    if x is None:
        for j in range(len(a)):
            if _finite_solve(a[j], r[j]) is None:
                raise SingularSystemError(f"{name(j)}I - Q is singular")
        raise SingularSystemError("I - Q is singular")
    return x


def _checked(triples: np.ndarray, name=_unnamed) -> np.ndarray:
    """`triples`, (k, 3) start-state absorption probabilities, refused with
    SingularSystemError, prefixed by `name(j)`, where triple j is the first
    that misses a sum of 1 by more than ROW_SUM_TOL or is not finite: a
    sticky loop leaves I - Q too ill-conditioned to solve."""
    totals = triples.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(totals - 1.0) <= ROW_SUM_TOL))  # NaN is bad too
    if bad.size:
        raise SingularSystemError(
            f"{name(bad[0])}absorption probabilities sum to {float(totals[bad[0]])!r}, "
            "not 1; I - Q is too ill-conditioned"
        )
    return triples


def _exact(triples: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """`triples`, (..., 3) start-state absorption probabilities already
    _checked, with the ends their chains cannot end in (`dead`, of the same
    shape or broadcast to it) exactly 0, and a lone live end exactly 1: not
    the solve's rounding of them."""
    if not dead.any():  # every end is live: nothing to make exact
        return triples
    live = ~dead
    lone = live.sum(axis=-1, keepdims=True) == 1
    return np.where(lone, live, np.where(dead, 0.0, triples))


def draw_samples(
    spec: NetworkSpec | _Plan,
    iterations: int,
    seed: int,
    *,
    key: tuple[int, ...] = (),
    swept: tuple[int, np.ndarray] | None = None,
) -> np.ndarray:
    """(iterations, 3) start-state absorption triples, one per posterior draw,
    each as solved, signed zeros included.

    Iteration t draws from stream (seed, *key, t), one standard_gamma call
    over the plan's alphas; `spec` may also be a compiled plan. `swept` =
    (index, alphas), alphas an (increments, k) matrix over the k entries
    `span(index)` of the plan's row `index`, makes this a sweep of (increments,
    3) means: increment i draws the plan with that row's alpha replaced by
    alphas[i], exactly as a plan holding that row would, from streams (seed,
    *key, i, t), and sums that increment's triples in draw order, as their
    mean(axis=0) does. Keyed by the swept stakeholder, each (stakeholder,
    increment) has its own streams under one master seed.

    Each triple equals, bit for bit, absorption_probabilities of the drawn
    chain restricted to the stakeholders the start reaches over labelled
    cells (`_Plan.reachable`), the only rows normalised and solved; where
    the start reaches every stakeholder, that is sampled_chain's chain from
    the same stream. So a loop the start cannot reach cannot make a draw
    fail. Chunks of _chunk_size draws may straddle increments; nothing
    drawn depends on them.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    plan = spec if isinstance(spec, _Plan) else _compiled(spec)  # validates a spec
    alphas, keys = [plan.alpha], [key]
    if swept is not None:
        index, matrix = swept
        segment = plan.span(index)  # the swept row's alphas

        def increments():
            alpha = plan.alpha.copy()  # built one increment at a time, never all at once
            for row in matrix:
                alpha[segment] = row
                yield alpha  # read only while its increment draws

        alphas, keys = increments(), [(*key, i) for i in range(len(matrix))]
    staged, positions = plan.reachable
    draws = ((alpha, k, t) for alpha, k in zip(alphas, keys) for t in range(iterations))
    total = len(keys) * iterations
    chunk = _chunk_size(staged, total)
    group = 1 if swept is None else iterations  # draws summed into each row of out
    out = _sized(lambda: np.zeros((total // group, 3)))
    qr_buf = np.zeros((chunk, len(staged.totals), len(staged.state_order)))
    for first in range(0, total, chunk):
        qr = qr_buf[: min(chunk, total - first)]
        gammas = np.empty((len(qr), plan.alpha.size))
        for j, (alpha, k, t) in zip(range(len(qr)), draws):
            gammas[j] = stream(seed, *k, t).standard_gamma(alpha)
        gammas = np.take(gammas, positions, axis=1)  # the staged rows', normalised in place
        _fill_draws(staged, gammas, qr)
        del gammas  # not held through the solve, which sets the peak memory
        triples = _absorb(staged, qr, lambda j: f"iteration {(first + j) % iterations}: ")
        if swept is None:  # each triple as solved: a sum turns its -0.0 into +0.0
            out[first : first + len(qr)] = triples
        else:
            np.add.at(out, np.arange(first, first + len(qr)) // group, triples)  # in draw order
    out /= group
    return out


def run(
    spec: NetworkSpec,
    iterations: int,
    seed: int,
    *,
    bins: int = DEFAULT_BINS,
) -> SimulationSummary:
    """Monte Carlo estimate of the absorption distribution from the start state."""
    edges = _edges(bins)  # built once, so edges that do not fit are refused before any draw
    samples = draw_samples(spec, iterations, seed)
    stats = _summarized(samples[:, 1], edges)
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
