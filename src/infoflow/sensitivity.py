"""Ineffective-flow sensitivity analysis and stakeholder ranking.

A sweep fixes one stakeholder, steps its discarded-information frequency
from 0 up to its total outflow, reallocates the remainder proportionally to
the original targets, and measures the start stakeholder's mean absorption
probabilities at each step. The impact ratio (drop in P_S per unit of
discarded flow) ranks stakeholders by how much their discarding hurts
overall satisfaction.

The reallocation rule has one home, _reallocated. It is affine in the
discard, so it gives a whole sweep as one (increments, k) count matrix over
the swept row's entries with DI; reallocate is its one-point case. Both
modes read the row off the compiled plan with a DI entry in it
(`_Plan.discarding`, a new layout plan only where the row has no DI flow).
Monte Carlo mode draws that layout with its alphas 1 + counts in one
draw_samples call. Plug-in mode solves no chain of its own: the swept row
moves on a line from its raw row without DI, renormalised, to all DI, a
rank-one change of I - Q, so every stakeholder's endpoints, impact ratio
and curve follow in O(1) from the one cached solve of the raw-frequency
chain of the stakeholders the start reaches (`_Plan.nb`; see _closed_form).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import network, simulation
from .dirichlet import CountVector
from .errors import (
    DegenerateRangeError,
    ExceedsTotalError,
    NegativeEntryError,
    NoNonDiTargetsError,
    UnknownStakeholderError,
    ValidationError,
)
from .network import NetworkSpec, ValidationReport
from .simulation import _checked, _exact, draw_samples

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
    """One stakeholder's sweep over the grid `n_di_values`, n_di_min (0) to
    n_di_max (the total outflow) in steps of `increment`. The endpoints and
    the impact ratio are computed when the sweep runs; the grid and the
    curve `means` on first read (plug-in sweeps evaluate their closed form
    over the grid by calling `curve`). No sweep keeps its draws.
    """

    stakeholder: str
    mode: str
    n_di_min: float
    n_di_max: float
    increment: float
    p_s_max: float  # mean P_S at n_di_min
    p_s_min: float  # mean P_S at n_di_max
    impact_ratio: float
    curve: Callable[[], np.ndarray] = field(repr=False)  # the means, (increments, 3)

    @cached_property
    def n_di_values(self) -> np.ndarray:  # read-only float64, one per increment
        return _di_grid(self.n_di_max, self.increment)

    @cached_property
    def means(self) -> np.ndarray:
        """Read-only (increments, 3) mean (P_DI, P_S, P_US) at each grid point."""
        means = self.curve()
        means.flags.writeable = False
        return means


def reallocate(counts: CountVector, di_value: float) -> CountVector:
    """Set the DI entry to `di_value` and spread the remaining total over the
    other entries proportionally to their original frequencies.

    A missing DI entry is created at the conventional label position
    (after transient targets, before S/US). Total outflow is preserved.
    The rule is _reallocated's, applied at the one point `di_value`.
    """
    labels, values = list(counts.labels), counts.counts
    if _DI not in labels:  # a 0 before the first S or US, else last
        at = next((i for i, label in enumerate(labels) if label in ("S", "US")), len(labels))
        labels.insert(at, _DI)
        values = np.insert(values, at, 0.0)
    point = _reallocated(values, labels.index(_DI), counts.total, np.array([float(di_value)]))
    return CountVector(labels, point[0])


def impact_ratio(p_s_max: float, p_s_min: float, n_max: float, n_min: float) -> float:
    """Change in satisfaction probability per unit of discarded flow."""
    if n_max <= n_min:
        raise DegenerateRangeError(f"n_max ({n_max}) must exceed n_min ({n_min})")
    return (p_s_max - p_s_min) / (n_max - n_min)


def _di_grid(total: float, increment: float) -> np.ndarray:
    """Read-only discard grid 0, increment, 2 * increment, ... (increment
    > 0) ending at `total` (> 0, as validate ensures): a step but 0 within
    increment * 1e-9 of it becomes it, so 0 and `total` are always in it."""
    stop = total + increment * 1e-9
    grid = simulation._sized(lambda: np.arange(0.0, stop, increment), stop / increment)
    if len(grid) == 1 or grid[-1] < total - increment * 1e-9:
        grid = np.append(grid, total)
    grid[-1] = total
    grid.flags.writeable = False
    return grid


def _reallocated(counts: np.ndarray, k: int, total: float, grid: np.ndarray) -> np.ndarray:
    """The reallocation rule at every discard d of `grid`: the (len(grid),
    len(counts)) counts of a row whose DI entry is counts[k] (a 0 where the
    row has no DI flow) and whose total is `total`, row i at grid[i]. DI
    becomes min(d, T) and every other count v becomes v * (T - d) / (T -
    d0), T the row's total (the grid's end) and d0 its original DI count,
    by the same IEEE operations at every point. A point that is NaN,
    negative, above T beyond a 1e-12 tolerance, or below T on a row already
    all discarded refuses the whole grid, as does a row of nothing but DI."""
    low, high = float(grid.min()), float(grid.max())  # both NaN if a point is
    if math.isnan(low):  # NaN passes every comparison below
        raise ValueError(f"di_value must be a number, got {low}")
    if low < 0:
        raise NegativeEntryError(f"di_value must be >= 0, got {low}")
    if len(counts) == 1:
        raise NoNonDiTargetsError("counts contain no non-DI entries")
    if high > total * (1 + 1e-12) + 1e-12:
        raise ExceedsTotalError(f"di_value {high} exceeds total outflow {total}")
    di = np.where(grid > total, total, grid)  # Python's min(d, T): -0.0 stays against T = 0.0
    rest = total - float(counts[k])
    if rest == 0.0 and (di != total).any():
        raise NoNonDiTargetsError("all outflow is already discarded; nothing to scale back up")
    scale = (total - di) / rest if rest else np.zeros(len(grid))  # rest 0: d is T
    out = counts * scale[:, np.newaxis]
    out[:, k] = di
    return out


def _closed_form(
    sub: network._Plan, stakeholder: str, total: float, increment: float
) -> tuple[np.ndarray, float, Callable[[], np.ndarray]]:
    """A plug-in sweep of `stakeholder`, whose total outflow is `total`,
    read off `sub.nb` = [N | B], the one solve of the raw-frequency chain
    of `sub`, the stakeholders the start reaches: the (2, 3) start
    triples at zero and total discard, the impact ratio, and the curve over
    the discard grid of `increment`.

    Row s at discard lam * total is (1 - lam) r0 + lam e_DI, where r0 = (r
    - d e_DI) / (1 - d) is its raw row r without its DI share d = qr[s, DI],
    so it is r + c (r - e_DI), c = (d - lam) / (1 - d): a rank-one change of
    I - Q (Sherman and Morrison, Ann. Math. Statist. 21, 1950). As Q[s] N[:,
    s] = N[s, s] - 1 and Q[s] B + R[s] = B[s], the start a reads B[a] + N[s,
    s] c / (1 - c (N[s, s] - 1)) u, u = f (B[s] - e_DI), f = N[a, s] / N[s,
    s] the chance that a ever reaches s (Kemeny and Snell, Finite Markov
    Chains, ch. III). With h = 1 - d N[s, s], the chance that s's flow ends
    anywhere but its own DI edge, that is P(lam) = P1 + (1 - lam) u / (h +
    lam (N[s, s] - 1)): P1 = B[a] - u at total discard, P0 = B[a] + (d N[s,
    s] / h) u at zero (B[a] exactly where d = 0), and the ratio u_S / (h
    total) is no difference of nearly equal endpoints. Where a never reaches
    s, both endpoints are B[a], the curve is flat and the ratio is exactly 0.
    Every triple is checked by _checked, as the staged solve checks a start
    row, then made _exact at the dead ends of its own chain's support. Row
    s keeps its raw flows but DI at zero discard (only DI can die), gains
    DI at every point between (none can), and is all DI at total discard,
    where the ends s dominates die (`dominators`).
    """
    m = len(sub.totals)
    visits, b = sub.nb[:, :m], sub.nb[:, m:]
    a = sub.start
    s = sub.state_order.index(stakeholder) if stakeholder in sub.state_order else None
    reached, dead = sub.routes
    if s is None or not reached[s]:  # the start never reaches s
        p0 = p1 = b[a]
        ratio, u, h, nss = 0.0, np.zeros(3), 1.0, 1.0
        dead_ends = dead_between = dead
    else:
        flows_to_end = sub.qr[:, m:] > 0.0
        flows_to_end[s, 0] = False  # zero discard: row s without its DI
        not_di = np.arange(3) > 0  # DI lives wherever row s flows to it
        dead_between = dead & not_di
        dead_total = sub.dominators[m:, s] & not_di  # dead ends included: all dominate them
        dead_ends = np.array([~flows_to_end[reached].any(axis=0), dead_total])
        e_di = np.array([1.0, 0.0, 0.0])  # the triple of a row that discards everything
        d, nss = sub.qr[s, m], visits[s, s]
        with np.errstate(all="ignore"):  # a singular point shows as a non-finite triple
            u = visits[a, s] / nss * (b[s] - e_di)
            h = 1.0 - d * nss
            p1 = b[a] - u
            p0 = b[a] + d * nss / h * u
            ratio = float(u[1] / (h * total))
    ends = _exact(_checked(np.array([p0, p1])), dead_ends)

    def curve() -> np.ndarray:
        # The ends' dead ends include the points' between, so _exact leaves them.
        lam = _di_grid(total, increment)[:, np.newaxis] / total
        with np.errstate(all="ignore"):
            means = p1 + (1.0 - lam) / (h + lam * (nss - 1.0)) * u
        means[[0, -1]] = ends
        return _exact(_checked(means), dead_between)

    return ends, ratio, curve


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

    Monte Carlo mode estimates every increment's means from `iterations`
    posterior draws up front, in one draw_samples call that returns them;
    increment i of stakeholder s uses streams (seed, index(s), i, t), and
    only increment 0 is drawn where the start cannot reach s. Plug-in
    mode evaluates the raw-frequency chains deterministically and ignores
    `iterations`: it solves no chain, reading the endpoints and the impact
    ratio off the plan's one base solve and the curve when `means` is first
    read, and calls _reallocated, at zero discard, only for its refusals.
    """
    mode = canonical_mode(mode)
    plan = network._compiled(spec)  # validates the spec
    ids = spec.ids
    if stakeholder not in ids:
        raise UnknownStakeholderError(f"unknown stakeholder '{stakeholder}'")
    if not 0 < increment < math.inf:
        raise ValueError(f"increment must be positive and finite, got {increment}")
    s_idx = ids.index(stakeholder)
    total = float(plan.totals[s_idx])
    # No staged chain holds a row the start cannot reach: a Monte Carlo sweep
    # of one draws zero discard alone and reports its means at every point.
    drawn = mode == MONTE_CARLO and stakeholder in plan.reachable[0].state_order
    grid = _di_grid(total, increment) if drawn else np.zeros(1)
    layout, k = plan.discarding(s_idx)  # every grid point's entries
    try:
        counts = _reallocated(layout.counts[layout.span(s_idx)], k, total, grid)
    except NoNonDiTargetsError as exc:
        raise NoNonDiTargetsError(f"stakeholder '{stakeholder}': {exc}") from None
    if mode == MONTE_CARLO:
        # A flat-prior draw puts mass on every label of every row, so its
        # chain reaches absorption wherever the raw-frequency chain does, and
        # the swept row reaches DI directly; no check is needed.
        means = draw_samples(layout, iterations, seed, key=(s_idx,), swept=(s_idx, 1.0 + counts))
        ends = means[[0, -1]]
        ratio = impact_ratio(*ends[:, 1].tolist(), total, 0.0)

        def curve():
            return means if drawn else np.repeat(means, len(_di_grid(total, increment)), axis=0)
    else:
        # Only zero discard can cut a route to absorption: any positive
        # discard gives the swept row a direct route to DI and leaves the
        # other rows as they are. So one check of the zero-discard support,
        # the raw support without the swept row's DI, covers the whole grid:
        # it finds what validate finds for that point's spec. A swept row
        # with a direct flow to S or US keeps every route through it, so
        # only a row without one needs the check.
        n = len(plan.totals)
        support = network._support(*network._rows(spec))  # the support validate reads
        if not support[s_idx, n + 1 :].any():
            support[s_idx, n] = False  # zero discard: no flow to DI
            violations = network._flow_violations(ids, support)
            if violations:
                raise ValidationError(ValidationReport(tuple(violations)))
        ends, ratio, curve = _closed_form(plan.reachable[0], stakeholder, total, increment)

    p_s_max, p_s_min = ends[:, 1].tolist()
    return SweepResult(
        stakeholder=stakeholder, mode=mode, n_di_min=0.0, n_di_max=total,
        increment=increment, p_s_max=p_s_max, p_s_min=p_s_min,
        impact_ratio=ratio,
        curve=curve,
    )


def rank_details(
    spec: NetworkSpec,
    iterations: int,
    seed: int,
    mode: str = MONTE_CARLO,
) -> list[SweepResult]:
    """Sweep every stakeholder except the start; most impactful first.

    Ties in the impact ratio break by ascending stakeholder id. The ranking
    reads only each sweep's endpoints and ratio, so a plug-in ranking makes
    one solve of the base chain in all and builds no grid; each result
    still evaluates its whole curve if its `means` is read. A Monte Carlo
    ranking holds one chunk's draws at a time, whatever the iteration count.
    """
    mode = canonical_mode(mode)  # before any sweep, so an empty ranking checks it too
    network._compiled(spec)  # validates once and warms the plan every sweep reads
    sweeps = [
        sweep_ineffective(spec, sid, iterations, seed, mode)
        for sid in spec.ids
        if sid != spec.start
    ]
    return sorted(sweeps, key=lambda sw: (-sw.impact_ratio, sw.stakeholder))
