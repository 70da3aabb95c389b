"""Ineffective-flow sensitivity analysis and stakeholder ranking.

A sweep fixes one stakeholder, steps its discarded-information frequency
from 0 up to its total outflow, reallocates the remainder proportionally to
the original targets, and measures the start stakeholder's mean absorption
probabilities at each step. The impact ratio (drop in P_S per unit of
discarded flow) ranks stakeholders by how much their discarding hurts
overall satisfaction.

A sweep compiles the spec once and reallocates each grid point's swept row
into an override of that plan. Monte Carlo mode draws every increment up
front, in one draw_samples call. Plug-in mode stacks copies of the plan's
raw-frequency [Q | R], overwrites the swept row, and checks and solves the
stack at once: up front only for the two endpoints (zero and total
discard), which are all the impact ratio and a ranking use, and for the
whole curve on the first read of SweepResult.means. Each increment's
numbers are bit for bit those of a spec rebuilt for that increment alone.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import network, simulation
from .dirichlet import CountVector
from .errors import (
    AbsorptionUnreachableError,
    DegenerateRangeError,
    ExceedsTotalError,
    NegativeEntryError,
    NoNonDiTargetsError,
    UnknownStakeholderError,
)
from .markov import stacked_absorption
from .network import NetworkSpec
from .simulation import draw_samples

MONTE_CARLO = "monte-carlo"
PLUG_IN = "plug-in"
_MODE_ALIASES = {
    "mc": MONTE_CARLO,
    "monte-carlo": MONTE_CARLO,
    "plugin": PLUG_IN,
    "plug-in": PLUG_IN,
}

_DI = "DI"


def canonical_mode(mode: str) -> str:
    """The canonical name of a sweep mode ("monte-carlo" or "plug-in"),
    given that name or its short CLI form ("mc" or "plugin")."""
    try:
        return _MODE_ALIASES[mode]
    except KeyError:
        raise ValueError(f"unknown sweep mode {mode!r}") from None


@dataclass(frozen=True, eq=False)
class SweepResult:
    """One stakeholder's sweep over the grid `n_di_values`.

    The endpoints and the impact ratio are computed when the sweep runs.
    `means` is the whole curve: Monte Carlo sweeps have it up front, plug-in
    sweeps solve it by calling `curve` on its first read and keep it.
    """

    stakeholder: str
    mode: str
    n_di_values: tuple[float, ...]
    p_s_max: float  # mean P_S at n_di = 0
    p_s_min: float  # mean P_S at n_di = total outflow
    impact_ratio: float
    curve: Callable[[], np.ndarray] = field(repr=False)  # the means, (increments, 3)
    samples: np.ndarray | None = None  # (increments, iterations, 3), Monte Carlo only

    @cached_property
    def means(self) -> np.ndarray:
        """Read-only (increments, 3) mean (P_DI, P_S, P_US) at each grid point."""
        means = self.curve()
        means.flags.writeable = False
        return means

    @property
    def n_di_min(self) -> float:
        return self.n_di_values[0]

    @property
    def n_di_max(self) -> float:
        return self.n_di_values[-1]


def reallocate(counts: CountVector, di_value: float) -> CountVector:
    """Set the DI entry to `di_value` and spread the remaining total over the
    other entries proportionally to their original frequencies.

    A missing DI entry is created at the conventional label position
    (after transient targets, before S/US). Total outflow is preserved.
    """
    di = float(di_value)
    if di < 0:
        raise NegativeEntryError(f"di_value must be >= 0, got {di}")
    labels = list(counts.labels)
    values = dict(zip(labels, counts.counts))
    if _DI not in values:
        insert_at = len(labels)
        for tail in ("S", "US"):
            if tail in labels:
                insert_at = min(insert_at, labels.index(tail))
        labels.insert(insert_at, _DI)
        values[_DI] = 0.0
    non_di = [lab for lab in labels if lab != _DI]
    if not non_di:
        raise NoNonDiTargetsError("counts contain no non-DI entries")
    total = sum(values.values())
    if di > total * (1 + 1e-12) + 1e-12:
        raise ExceedsTotalError(f"di_value {di} exceeds total outflow {total}")
    di = min(di, total)
    rest = total - values[_DI]
    if rest == 0.0:
        if di != total:
            raise NoNonDiTargetsError(
                "all outflow is already discarded; nothing to scale back up"
            )
        scale = 0.0
    else:
        scale = (total - di) / rest
    new = [di if lab == _DI else values[lab] * scale for lab in labels]
    return CountVector(tuple(labels), new)


def impact_ratio(p_s_max: float, p_s_min: float, n_max: float, n_min: float) -> float:
    """Change in satisfaction probability per unit of discarded flow."""
    if n_max <= n_min:
        raise DegenerateRangeError(f"n_max ({n_max}) must exceed n_min ({n_min})")
    return (p_s_max - p_s_min) / (n_max - n_min)


def _di_grid(total: float, increment: float) -> tuple[float, ...]:
    if increment <= 0:
        raise ValueError(f"increment must be positive, got {increment}")
    try:
        values = list(np.arange(0.0, total + increment * 1e-9, increment))
    except ValueError as exc:  # beyond numpy's size limit: no memory could hold it
        raise MemoryError(str(exc)) from None
    if not values or values[-1] < total - increment * 1e-9:
        values.append(total)
    values[-1] = total
    return tuple(float(v) for v in values)


def _plug_in_means(plan: network._Plan, swept: list[network._Plan], index: int) -> np.ndarray:
    """(len(swept), 3) start-state absorption triples of the raw-frequency
    chains of `swept`, plans that differ from `plan` only in row `index`.

    Each chunk of increments stacks one copy of the plan's raw [Q | R] per
    increment, overwrites row `index`, and is checked and solved by one
    stacked_absorption call. Chunks hold as many (n, n + 3) blocks as fit
    in simulation.CHUNK_BYTES, so memory stays bounded whatever the
    increment count.
    """
    n = len(plan.rows)
    base = plan.raw_qr
    out = np.empty((len(swept), 3))
    chunk = simulation._chunk_size(plan, len(swept))
    for first in range(0, len(swept), chunk):
        part = swept[first : first + chunk]
        qr = np.repeat(base[np.newaxis], len(part), axis=0)
        qr[:, index] = 0.0
        for block, point in zip(qr, part):
            row = point.rows[index]
            block[index, row.cols] = row.counts.counts / row.counts.total
        b = stacked_absorption(qr[..., :n], qr[..., n:], plan.state_order)
        out[first : first + len(part)] = b[:, plan.start]
    return out


def sweep_ineffective(
    spec: NetworkSpec,
    stakeholder: str,
    iterations: int,
    seed: int,
    mode: str = MONTE_CARLO,
    *,
    increment: float = 1.0,
) -> SweepResult:
    """Sweep one stakeholder's discarded-flow frequency over 0..total outflow.

    The spec is compiled once and each grid point's swept row is reallocated
    into an override of that plan. Monte Carlo mode estimates every
    increment's means from `iterations` posterior draws up front, all
    increments in one draw_samples call; increment i of stakeholder s uses
    streams derived from (seed, index(s), i, t). Plug-in mode evaluates the
    raw-frequency chains deterministically and ignores `iterations`: it
    checks and solves only the first and last grid points, in one stacked
    build and solve, and solves the whole curve the same way when
    `means` is first read.
    """
    mode = canonical_mode(mode)
    plan = network._compiled(spec)  # validates the spec
    if stakeholder not in spec.ids:
        raise UnknownStakeholderError(f"unknown stakeholder '{stakeholder}'")
    s_idx = spec.ids.index(stakeholder)
    base = plan.rows[s_idx].counts
    grid = _di_grid(base.total, increment)

    def swept(points) -> list[network._Plan]:
        # reallocate always adds DI, so every override has the same row
        # labels and all increments share one draw layout.
        try:
            return [plan.override(s_idx, reallocate(base, di)) for di in points]
        except NoNonDiTargetsError as exc:
            raise NoNonDiTargetsError(f"stakeholder '{stakeholder}': {exc}") from None

    if mode == MONTE_CARLO:
        # A flat-prior draw puts mass on every label of every row, so its
        # chain reaches absorption wherever the raw-frequency chain does, and
        # the swept row reaches DI directly; no check is needed.
        all_samples = draw_samples(swept(grid), iterations, seed, key=(s_idx,))
        all_samples.flags.writeable = False
        means = all_samples.mean(axis=1)
        ends = means[[0, -1]]

        def curve():
            return means
    else:
        # Any positive discard gives the swept row a direct route to
        # absorbing DI, and the other rows and the row total are unchanged;
        # only zero discard (grid[0]) can cut a route to absorption. So the
        # interior points pass stacked_absorption's checks whenever the
        # endpoints do, and can wait until the curve is read.
        # stacked_absorption's reachability check runs over the same positive
        # support as require_valid's, so require_valid runs only when it
        # fails, to report the violations as validate would.
        all_samples = None
        zero_and_total = swept((grid[0], grid[-1]))
        try:
            ends = _plug_in_means(plan, zero_and_total, s_idx)
        except AbsorptionUnreachableError:
            zero_and_total[0].require_valid()
            raise

        def curve():
            return _plug_in_means(plan, swept(grid), s_idx)

    p_s_max = float(ends[0, 1])
    p_s_min = float(ends[-1, 1])
    return SweepResult(
        stakeholder=stakeholder,
        mode=mode,
        n_di_values=grid,
        p_s_max=p_s_max,
        p_s_min=p_s_min,
        impact_ratio=impact_ratio(p_s_max, p_s_min, grid[-1], grid[0]),
        curve=curve,
        samples=all_samples,
    )


def rank_details(
    spec: NetworkSpec,
    iterations: int,
    seed: int,
    mode: str = MONTE_CARLO,
) -> list[SweepResult]:
    """Sweep every stakeholder except the start; most impactful first.

    Ties in the impact ratio break by ascending stakeholder id. The ranking
    reads only each sweep's endpoints, so a plug-in ranking solves two
    chains per stakeholder; each result still solves its whole curve if
    its `means` is read.
    """
    mode = canonical_mode(mode)  # before any sweep, so an empty ranking checks it too
    network._compiled(spec)  # validates once and warms the plan every sweep reads
    sweeps = [
        sweep_ineffective(spec, sid, iterations, seed, mode)
        for sid in spec.ids
        if sid != spec.start
    ]
    return sorted(sweeps, key=lambda sw: (-sw.impact_ratio, sw.stakeholder))
