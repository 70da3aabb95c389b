"""Ineffective-flow sensitivity analysis and stakeholder ranking.

A sweep fixes one stakeholder, steps its discarded-information frequency
from 0 up to its total outflow, reallocates the remainder proportionally to
the original targets, and measures the start stakeholder's mean absorption
probabilities at each step. The impact ratio (drop in P_S per unit of
discarded flow) ranks stakeholders by how much their discarding hurts
overall satisfaction.

A sweep is one batch. The spec is compiled once, and every grid point's
swept row is reallocated into an override of that plan. Plug-in mode then
stacks one copy of the base raw-frequency [Q | R] per increment, overwrites
the swept row, and checks and solves the stack at once. Monte Carlo mode
hands all increments to one draw_samples call. Each increment's numbers
are bit for bit those of a spec rebuilt for that increment alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network, simulation
from .dirichlet import CountVector
from .errors import (
    DegenerateRangeError,
    ExceedsTotalError,
    NegativeEntryError,
    NoNonDiTargetsError,
    UnknownStakeholderError,
)
from .markov import stacked_absorption
from .network import RAW_FREQUENCY, NetworkSpec
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


@dataclass(frozen=True, eq=False)
class SweepResult:
    stakeholder: str
    mode: str
    n_di_values: tuple[float, ...]
    means: np.ndarray  # (increments, 3) columns (P_DI, P_S, P_US)
    p_s_max: float  # mean P_S at n_di = 0
    p_s_min: float  # mean P_S at n_di = total outflow
    impact_ratio: float
    samples: np.ndarray | None = None  # (increments, iterations, 3), Monte Carlo only

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
    values = list(np.arange(0.0, total + increment * 1e-9, increment))
    if not values or values[-1] < total - increment * 1e-9:
        values.append(total)
    values[-1] = total
    return tuple(float(v) for v in values)


def _plug_in_means(plan: network._Plan, swept: list[network._Plan], index: int) -> np.ndarray:
    """(len(swept), 3) start-state absorption triples of the raw-frequency
    chains of `swept`, plans that differ from `plan` only in row `index`.

    The base [Q | R] is built once; each chunk of increments stacks one copy
    per increment, overwrites row `index`, and is checked and solved by one
    stacked_absorption call. Chunks hold as many blocks as the Monte Carlo
    engine's, so memory stays bounded whatever the increment count.
    """
    n = len(plan.rows)
    base = network._plug_in_qr(plan, RAW_FREQUENCY)
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

    The spec is compiled once, every grid point's swept row is reallocated
    into an override of that plan, and the whole curve is evaluated as one
    batch. Monte Carlo mode estimates each increment's means from
    `iterations` posterior draws, all increments in one draw_samples call;
    increment i of stakeholder s uses streams derived from
    (seed, index(s), i, t). Plug-in mode evaluates the raw-frequency chains
    deterministically, in one stacked build and solve, and ignores
    `iterations`.
    """
    try:
        mode = _MODE_ALIASES[mode]
    except KeyError:
        raise ValueError(f"unknown sweep mode {mode!r}") from None
    plan = network._compiled(spec)  # validates the spec
    if stakeholder not in spec.ids:
        raise UnknownStakeholderError(f"unknown stakeholder '{stakeholder}'")
    s_idx = spec.ids.index(stakeholder)
    base = plan.rows[s_idx].counts
    grid = _di_grid(base.total, increment)
    # reallocate always adds DI, so every override has the same row labels
    # and all increments share one draw layout.
    swept = [plan.override(s_idx, reallocate(base, di)) for di in grid]

    if mode == MONTE_CARLO:
        # A flat-prior draw puts mass on every label of every row, so its
        # chain reaches absorption wherever the raw-frequency chain does, and
        # the swept row reaches DI directly; no check is needed.
        all_samples = draw_samples(swept, iterations, seed, key=(s_idx,))
        all_samples.flags.writeable = False
        means = all_samples.mean(axis=1)
    else:
        # Any positive discard gives the swept row a direct route to
        # absorbing DI, and the other rows and the row total are unchanged;
        # only zero discard (grid[0]) can cut a route to absorption.
        swept[0].require_valid()
        all_samples = None
        means = _plug_in_means(plan, swept, s_idx)

    p_s_max = float(means[0, 1])
    p_s_min = float(means[-1, 1])
    ratio = impact_ratio(p_s_max, p_s_min, grid[-1], grid[0])
    means.flags.writeable = False
    return SweepResult(
        stakeholder=stakeholder,
        mode=mode,
        n_di_values=grid,
        means=means,
        p_s_max=p_s_max,
        p_s_min=p_s_min,
        impact_ratio=ratio,
        samples=all_samples,
    )


def rank_details(
    spec: NetworkSpec,
    iterations: int,
    seed: int,
    mode: str = MONTE_CARLO,
) -> list[SweepResult]:
    """Sweep every stakeholder except the start; most impactful first.

    Ties in the impact ratio break by ascending stakeholder id.
    """
    network._compiled(spec)  # validates once and warms the plan every sweep reads
    sweeps = [
        sweep_ineffective(spec, sid, iterations, seed, mode)
        for sid in spec.ids
        if sid != spec.start
    ]
    return sorted(sweeps, key=lambda sw: (-sw.impact_ratio, sw.stakeholder))
