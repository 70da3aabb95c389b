"""Stakeholder-network domain layer.

A NetworkSpec is the single input document: stakeholders at federal/state/
local levels, directed flow records with observed frequencies, and the start
stakeholder that originates assistance information. Flows may target other
stakeholders or the three absorbing end states DI (discarded), S (satisfied),
US (unsatisfied). This module validates specs and converts them into count
vectors and transition matrices.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import dirichlet
from .dirichlet import CountVector
from .errors import UnknownStakeholderError, ValidationError
from .markov import ABSORBING_ORDER, TransitionMatrix, absorbing_reach, build_canonical

LEVELS = ("federal", "state", "local")

RAW_FREQUENCY = "raw"
POSTERIOR_MEAN = "posterior-mean"
_MODE_ALIASES = {
    "raw": RAW_FREQUENCY,
    "raw-frequency": RAW_FREQUENCY,
    "posterior-mean": POSTERIOR_MEAN,
}


@dataclass(frozen=True)
class Stakeholder:
    id: str
    level: str


@dataclass(frozen=True)
class FlowRecord:
    """One observed flow: `source` is always a stakeholder; `target` may be
    a stakeholder id or one of the absorbing labels DI/S/US."""

    source: str
    target: str
    frequency: float


@dataclass(frozen=True)
class NetworkSpec:
    stakeholders: tuple[Stakeholder, ...]
    flows: tuple[FlowRecord, ...]
    start: str

    def __post_init__(self):
        object.__setattr__(self, "stakeholders", tuple(self.stakeholders))
        object.__setattr__(self, "flows", tuple(self.flows))

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.stakeholders)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(spec: NetworkSpec) -> ValidationReport:
    """Collect every violation of the network's rules (parse_network checks
    only the document's shape); an empty report means every downstream
    operation (counts, plug-in/sampled chains, simulation, sweeps) is safe."""
    v: list[str] = []
    ids = spec.ids
    id_set = set(ids)

    for sid in sorted(i for i, c in Counter(ids).items() if c > 1):
        v.append(f"duplicate stakeholder id '{sid}'")
    for s in spec.stakeholders:
        if s.id in ABSORBING_ORDER:
            v.append(f"reserved absorbing label used as stakeholder id '{s.id}'")
        if s.level not in LEVELS:
            v.append(f"unknown level '{s.level}' for stakeholder '{s.id}'")
    if spec.start not in id_set:
        v.append(f"start stakeholder '{spec.start}' not declared")

    seen_pairs = set()
    for f in spec.flows:
        if f.source not in id_set:
            v.append(f"flow from unknown stakeholder '{f.source}'")
        if f.target not in id_set and f.target not in ABSORBING_ORDER:
            v.append(f"flow to unknown state '{f.target}'")
        if f.source == f.target:
            v.append(f"self-loop on stakeholder '{f.source}'")
        if not math.isfinite(f.frequency):
            v.append(f"non-finite frequency {f.frequency} on flow {f.source}->{f.target}")
        elif f.frequency < 0:
            v.append(f"negative frequency {f.frequency} on flow {f.source}->{f.target}")
        pair = (f.source, f.target)
        if pair in seen_pairs:
            v.append(f"duplicate flow {f.source}->{f.target}")
        seen_pairs.add(pair)

    if v:
        return ValidationReport(tuple(v))

    # Structural checks need a well-formed flow list, hence the early return.
    position = {label: i for i, label in enumerate(ids + ABSORBING_ORDER)}
    support = np.zeros((len(ids), len(position)), dtype=bool)
    for f in spec.flows:
        support[position[f.source], position[f.target]] = f.frequency > 0
    return ValidationReport(tuple(_flow_violations(ids, support)))


def _flow_violations(ids, support: np.ndarray) -> list[str]:
    """Dead-end and absorbing-reachability violations of the stakeholders
    `ids`, given their (n, n + 3) positive-flow support over the states
    ids + DI/S/US."""
    n = len(ids)
    reach = absorbing_reach(support[:, :n], support[:, n:])
    dead = [
        f"dead-end transient state '{sid}' (no positive outflow)"
        for sid, live in zip(ids, support.any(axis=1))
        if not live
    ]
    return dead + [
        f"no absorbing state reachable from stakeholder '{sid}'"
        for sid, ok in zip(ids, reach)
        if not ok
    ]


def require_valid(spec: NetworkSpec) -> None:
    report = validate(spec)
    if not report.ok:
        raise ValidationError(report)


def counts_for(spec: NetworkSpec, stakeholder: str) -> CountVector:
    """Outgoing frequencies of one stakeholder, labeled by interacting state.

    Label order is deterministic: transient targets in declaration order,
    then DI, S, US. Only states with a flow record present appear, so K is
    the number of actually interacting states.
    """
    ids = spec.ids
    if stakeholder not in ids:
        raise UnknownStakeholderError(f"unknown stakeholder '{stakeholder}'")
    position = {label: i for i, label in enumerate(ids + ABSORBING_ORDER)}
    targets = {f.target: f.frequency for f in spec.flows if f.source == stakeholder}
    return _ordered({t: c for t, c in targets.items() if t in position}, position)


def _ordered(targets: dict[str, float], position: dict[str, int]) -> CountVector:
    order = sorted(targets, key=position.__getitem__)
    return CountVector(tuple(order), [targets[t] for t in order])


@dataclass(frozen=True, eq=False)
class _CompiledRow:
    """Assembly plan for one stakeholder row: posterior parameters plus the
    column of each interacting state in the stacked [Q | R] row."""

    index: int
    counts: CountVector
    alpha: np.ndarray  # flat-prior posterior, 1 + counts
    cols: np.ndarray


def _compile_row(index: int, cv: CountVector, position: dict[str, int]) -> _CompiledRow:
    alpha = 1.0 + cv.counts
    alpha.flags.writeable = False
    cols = np.array([position[label] for label in cv.labels], dtype=np.intp)
    return _CompiledRow(index, cv, alpha, cols)


@dataclass(frozen=True, eq=False)
class _RowGroup:
    """The rows of a plan that have k interacting states: where each row's
    draws sit in the plan's concatenated alpha, and where its normalised
    probabilities go in one stacked [Q | R] block."""

    gather: np.ndarray  # (rows_k, k) positions in _Plan.alpha
    scatter: np.ndarray  # (rows_k, k) flat positions in an (n, n + 3) block


@dataclass(frozen=True, eq=False)
class _Plan:
    """Assembly plan of a valid spec: state labels, one row per stakeholder
    in declaration order, and the start stakeholder's index.

    The draw layout (`alpha`, `groups`) is built on first use, so plans that
    are only solved in plug-in mode never pay for it.
    """

    state_order: tuple[str, ...]
    rows: tuple[_CompiledRow, ...]
    start: int

    @cached_property
    def alpha(self) -> np.ndarray:
        """Every row's posterior alpha, concatenated in declaration order:
        one standard_gamma call over it draws all rows at once."""
        alpha = np.concatenate([row.alpha for row in self.rows])
        alpha.flags.writeable = False
        return alpha

    @cached_property
    def groups(self) -> tuple[_RowGroup, ...]:
        """Rows grouped by their number of interacting states, so each group
        normalises as one (draws, rows_k, k) array."""
        width = len(self.state_order)
        members: dict[int, list[int]] = {}
        for i, row in enumerate(self.rows):
            members.setdefault(len(row.cols), []).append(i)
        offsets = np.cumsum([0] + [len(row.cols) for row in self.rows])
        return tuple(
            _RowGroup(
                gather=offsets[rows, np.newaxis] + np.arange(k),
                scatter=np.stack([self.rows[i].cols + i * width for i in rows]),
            )
            for k, rows in sorted(members.items())
        )

    def override(self, index: int, counts: CountVector) -> _Plan:
        """This plan with row `index` rebuilt from `counts`, whose labels
        must be states of this plan."""
        position = {label: i for i, label in enumerate(self.state_order)}
        rows = list(self.rows)
        rows[index] = _compile_row(index, counts, position)
        return _Plan(self.state_order, tuple(rows), self.start)

    def shares_layout(self, other: _Plan) -> bool:
        """Whether `other` has this plan's states, start and interacting
        states in every row, so that one draw layout (`groups`) serves both.
        Overrides of one plan share every row object but one, so this costs
        little more than one row comparison."""
        return (
            other.state_order == self.state_order
            and other.start == self.start
            and len(other.rows) == len(self.rows)
            and all(a is b or np.array_equal(a.cols, b.cols) for a, b in zip(self.rows, other.rows))
        )

    def require_valid(self) -> None:
        """Raise ValidationError, as validate would for the spec the rows
        describe, if a row is a dead end or cannot reach absorption."""
        support = np.zeros((len(self.rows), len(self.state_order)), dtype=bool)
        for row in self.rows:
            support[row.index, row.cols] = row.counts.counts > 0
        v = _flow_violations(self.state_order[: len(self.rows)], support)
        if v:
            raise ValidationError(ValidationReport(tuple(v)))


@lru_cache(maxsize=128)
def _compiled(spec: NetworkSpec) -> _Plan:
    """Per-spec assembly plan: validation + per-stakeholder rows, cached."""
    require_valid(spec)
    state_order = spec.ids + ABSORBING_ORDER
    position = {label: i for i, label in enumerate(state_order)}
    outflows = {sid: {} for sid in spec.ids}  # target -> frequency, one pass over the flows
    for f in spec.flows:
        outflows[f.source][f.target] = f.frequency
    rows = tuple(
        _compile_row(i, _ordered(targets, position), position)
        for i, targets in enumerate(outflows.values())
    )
    return _Plan(state_order, rows, position[spec.start])


def _chain(plan: _Plan, qr: np.ndarray) -> TransitionMatrix:
    n = len(plan.rows)
    return build_canonical(qr[:, :n], qr[:, n:], plan.state_order)


def _plug_in_qr(plan: _Plan, mode: str) -> np.ndarray:
    """(n, n + 3) stacked [Q | R] of `plan` in a canonical plug-in mode."""
    qr = np.zeros((len(plan.rows), len(plan.state_order)))
    for row in plan.rows:
        if mode == RAW_FREQUENCY:
            qr[row.index, row.cols] = row.counts.counts / row.counts.total
        else:
            posterior = dirichlet.noninformative_posterior(row.counts)
            qr[row.index, row.cols] = dirichlet.mean(posterior).theta
    return qr


def _fill_draws(plan: _Plan, gammas: np.ndarray, qr: np.ndarray) -> None:
    """Write the rows of a batch of posterior draws into `qr`.

    `gammas` is (draws, E): row d holds one standard_gamma call over
    `plan.alpha`. `qr` is the (draws, n, n + 3) stacked [Q | R] buffer, zero
    outside the plan's interacting states. Each row is normalised twice, as
    theta = g / g.sum() and then theta / theta.sum(). The gather is
    C-contiguous so that every row sums along a contiguous last axis, which
    rounds exactly as the sum of that row alone would.
    """
    flat = qr.reshape(len(gammas), -1)
    for group in plan.groups:
        x = np.take(gammas, group.gather, axis=1)  # C-contiguous (draws, rows_k, k)
        theta = x / x.sum(axis=-1, keepdims=True)
        flat[:, group.scatter] = theta / theta.sum(axis=-1, keepdims=True)


def plug_in_chain(spec: NetworkSpec, mode: str = RAW_FREQUENCY) -> TransitionMatrix:
    """Deterministic chain: rows are normalized frequencies (raw mode) or the
    mean of the flat-prior posterior (posterior-mean mode)."""
    try:
        mode = _MODE_ALIASES[mode]
    except KeyError:
        raise ValueError(f"unknown plug-in mode {mode!r}") from None
    plan = _compiled(spec)
    return _chain(plan, _plug_in_qr(plan, mode))


def sampled_chain(spec: NetworkSpec, rng: np.random.Generator) -> TransitionMatrix:
    """Stochastic chain: each stakeholder row is one draw from its flat-prior
    posterior. All rows come from one standard_gamma call over the
    concatenated alphas, in declaration order, so the result is a pure
    function of (spec, generator state)."""
    plan = _compiled(spec)
    qr = np.zeros((1, len(plan.rows), len(plan.state_order)))
    _fill_draws(plan, rng.standard_gamma(plan.alpha)[np.newaxis], qr)
    return _chain(plan, qr[0])
