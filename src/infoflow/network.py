"""Stakeholder-network domain layer.

A NetworkSpec is the single input document: stakeholders at federal/state/
local levels, directed flow records with observed frequencies, and the start
stakeholder that originates assistance information. Flows may target other
stakeholders or the three absorbing end states DI (discarded), S (satisfied),
US (unsatisfied). This module validates specs and compiles them into flat
arrays of their rows' counts, and those into transition matrices.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ValidationError
from .markov import ABSORBING_ORDER, TransitionMatrix, absorbing_reach, build_canonical

LEVELS = ("federal", "state", "local")

RAW_FREQUENCY = "raw"
POSTERIOR_MEAN = "posterior-mean"


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

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.stakeholders)

    @cached_property
    def _hash(self) -> int:
        return hash((self.stakeholders, self.flows, self.start))

    @cached_property
    def _key(self) -> tuple:
        """The fields as plain tuples of str and float, which compare in C."""
        return (
            tuple((s.id, s.level) for s in self.stakeholders),
            tuple((f.source, f.target, f.frequency) for f in self.flows),
            self.start,
        )

    def __hash__(self) -> int:
        # The spec is frozen, so its hash is computed once: every cached
        # plan lookup (_compiled) hashes it, and rank looks it up per sweep.
        return self._hash

    def __eq__(self, other):
        # A cache hit on an equal spec that is another object (the same
        # document parsed twice) compares it here: identity, then the hash,
        # then the plain key, never FlowRecord's generated __eq__ per flow.
        # Equal specs then share one key, so a ranking's later lookups
        # (one per sweep) compare it by identity.
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self is other:
            return True
        if self._hash != other._hash:
            return False
        if self._key is other._key:
            return True
        if self._key != other._key:
            return False
        other.__dict__["_key"] = self._key
        return True


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(spec: NetworkSpec) -> ValidationReport:
    """Collect every violation of the network's rules (parse_network checks
    only the document's shape); an empty report means every downstream
    operation (counts, plug-in/sampled chains, simulation, sweeps) is safe.
    The structural rules (overflowing totals, dead ends, absorbing reach)
    read _rows, the arrays the compiled plan holds: each row's total as the
    raw chain divides by it, and which shares are positive (_support)."""
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
    if not v:  # the structural rules read a well-formed flow list's rows
        totals = _rows(spec)[3]
        v = [f"non-finite total outflow {t} of stakeholder '{sid}'"
             for sid, t in zip(ids, totals.tolist()) if math.isinf(t)]
    if v:
        return ValidationReport(tuple(v))
    return ValidationReport(tuple(_flow_violations(ids, _support(*_rows(spec)))))


@lru_cache(maxsize=128)
def _rows(spec: NetworkSpec) -> tuple[np.ndarray, ...]:
    """Read-only (source, column, counts, totals) of a well-formed spec,
    cached: its flows sorted by (source, target) position in ids + DI/S/US,
    one row per stakeholder, and each row's total (0 without flows), summed
    exactly as its CountVector.total is. validate reads them, and the plan
    _compiled builds holds them."""
    at = {label: i for i, label in enumerate(spec.ids + ABSORBING_ORDER)}
    width = len(at)
    flat = np.fromiter((at[f.source] * width + at[f.target] for f in spec.flows), np.intp)
    order = np.argsort(flat)
    counts = np.array([f.frequency for f in spec.flows], dtype=float)[order]
    source, column = np.divmod(flat[order], width)
    with np.errstate(over="ignore"):  # an overflowing total is validate's to report
        totals = _row_sums(counts, source, len(spec.ids))
    for array in (source, column, counts, totals):
        array.flags.writeable = False
    return source, column, counts, totals


def _row_sums(values: np.ndarray, source: np.ndarray, n: int) -> np.ndarray:
    """Each of n rows' sums along the last axis of `values`, whose entry e
    is in row source[e] (sorted). reduceat sums a segment from its first
    entry, a row's own sum from 0: so each row, led by one 0, sums exactly
    as it does alone."""
    rows = np.arange(n)
    padded = np.zeros(values.shape[:-1] + (values.shape[-1] + n,))
    padded[..., np.arange(len(source)) + source + 1] = values
    return np.add.reduceat(padded, np.searchsorted(source, rows) + rows, axis=-1)


def _support(source, column, counts, totals) -> np.ndarray:
    """(n, n + 3) mask of the raw-frequency chain's positive shares, each count
    over its row's total (none where that is 0), of n rows' entries and totals."""
    support = np.zeros((len(totals), len(totals) + len(ABSORBING_ORDER)), dtype=bool)
    support[source, column] = counts / np.where(totals > 0.0, totals, 1.0)[source] > 0.0
    return support


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


@dataclass(frozen=True, eq=False)
class _Plan:
    """Assembly plan of a valid spec: its state labels; its entries, row
    after row, as _rows gives them (each entry's row `source`, state
    `column` and `counts`) with each row's `totals`; and the start's index.
    Row i's entries are `span(i)`; `discarding(i)` gives them a DI entry.

    `alpha`, `reachable` and `placement`, the plan's only layout index, are
    built on first use, so plans only solved in plug-in mode never pay for
    them; so are the [Q | R] of its plug-in chain in `mode` (`qr`), a mode
    the plans it builds keep, and that chain's solution (`nb`), routes from
    the start (`routes`) and dominators (`dominators`), unused by drawn plans.
    """

    state_order: tuple[str, ...]
    source: np.ndarray
    column: np.ndarray
    counts: np.ndarray
    totals: np.ndarray
    start: int
    mode: str = RAW_FREQUENCY

    def span(self, i: int) -> slice:
        """The slice of row i's entries."""
        return slice(*np.searchsorted(self.source, (i, i + 1)).tolist())

    def discarding(self, i: int) -> tuple[_Plan, int]:
        """(layout, k): this plan with a DI entry at offset k of row i, the
        plan itself where the row has one, else with a 0 count inserted at
        DI's column, after the transient ones and before S and US (totals kept)."""
        at, di = self.span(i), len(self.totals)
        k = int(np.searchsorted(self.column[at], di))
        if di in self.column[at][k : k + 1]:
            return self, k
        cut, arrays = at.start + k, ((self.source, i), (self.column, di), (self.counts, 0.0))
        source, column, counts = (np.concatenate((a[:cut], [v], a[cut:])) for a, v in arrays)
        return replace(self, source=source, column=column, counts=counts), k

    @cached_property
    def qr(self) -> np.ndarray:
        """Read-only (n, n + 3) stacked [Q | R] of the plug-in chain in `mode`
        as build_canonical stores it, built once per plan and solved by nb."""
        chain = _chain(self, _plug_in_qr(self, self.mode))
        qr = np.hstack([chain.q, chain.r])
        qr.flags.writeable = False
        return qr

    @cached_property
    def nb(self) -> np.ndarray:
        """Read-only (n, n + 3) [N | B] of the plug-in chain in `mode`, from one
        solve of (I - Q) [N | B] = [I | R]: N[i, j] is the expected number of
        visits to j from i, and B = N R the absorption probabilities. evaluate
        reads the start's row of B, and plug-in sweeps the raw chain's at every
        swept stakeholder's endpoints and curve. B is exactly 0, not the solve's
        rounding, at the dead ends (`routes`) of the rows the start reaches.
        Raises SingularSystemError where I - Q is singular."""
        from .simulation import _solved  # simulation imports this module

        n = len(self.totals)
        eye = np.eye(n)
        q = self.qr[:, :n]
        nb = _solved((eye - q)[np.newaxis], np.hstack([eye, self.qr[:, n:]])[np.newaxis])[0]
        reached, ends = self.routes
        nb[np.ix_(reached, n + np.flatnonzero(ends))] = 0.0
        nb.flags.writeable = False
        return nb

    @cached_property
    def routes(self) -> tuple[np.ndarray, np.ndarray]:
        """(reached, ends): masks of the stakeholders the start reaches over
        the positive flows of `qr`, and of its dead ends, the end states none
        of them flows to. Its chain cannot end in those, but a raw solve may
        pivot in the flows of a stakeholder that a 0-count cell stages. No
        path reaches a state where every state dominates it."""
        unreached = self.dominators.all(axis=1)
        n = len(self.totals)
        return ~unreached[:n], unreached[n:]

    @cached_property
    def dominators(self) -> np.ndarray:
        """Read-only (n + 3, n + 3) mask, [j, d] where every path of positive
        flows of `qr` from the start to state j passes through state d
        (every d where no path reaches j): so the end states that die when
        stakeholder d discards everything are those it dominates. Found by
        the iterative data-flow rule (Aho, Lam, Sethi and Ullman, Compilers,
        2nd ed., section 9.6), one matrix product per pass."""
        n, width = len(self.totals), len(self.state_order)
        into = (self.qr > 0.0).T.astype(np.float32)  # into[j, i] = 1: i flows to j
        eye = np.eye(width, dtype=bool)
        dominators = np.ones((width, width), dtype=bool)
        dominators[self.start] = eye[self.start]
        while True:
            # d dominates j if d is j or dominates every state that flows to
            # j: the product counts the others, exactly (at most n < 2**24).
            passed = (into @ ~dominators[:n] == 0.0) | eye
            passed[self.start] = eye[self.start]
            if (passed == dominators).all():
                passed.flags.writeable = False
                return passed
            dominators = passed

    @cached_property
    def alpha(self) -> np.ndarray:
        """Every entry's flat-prior posterior alpha, 1 + counts, in row
        order: one standard_gamma call over it draws all rows at once."""
        alpha = 1.0 + self.counts
        alpha.flags.writeable = False
        return alpha

    @cached_property
    def placement(self) -> np.ndarray:
        """For each entry of `alpha`, in order, its flat position
        i * (n + 3) + column in one (n, n + 3) [Q | R] block: the plan's
        only layout index."""
        placement = self.source * len(self.state_order) + self.column
        placement.flags.writeable = False
        return placement

    @cached_property
    def reachable(self) -> tuple[_Plan, np.ndarray]:
        """(plan, positions): this plan restricted to the stakeholders the
        start reaches over labelled cells, their transient columns
        renumbered in declaration order, and the positions of their entries
        in `alpha`.

        A flat-prior draw puts mass on every labelled cell, even one whose
        count is 0, so these are the stakeholders a drawn chain can reach
        from the start. No labelled cell leaves them, so the start's
        absorption probabilities depend on their rows alone.
        """
        n = len(self.totals)
        in_q = self.column < n
        fed = np.zeros((n, n), dtype=bool)  # fed[j, i]: row i has a labelled cell to j
        fed[self.column[in_q], self.source[in_q]] = True
        start = (np.arange(n) == self.start)[:, np.newaxis]
        # States that reach the start over reversed cells are those it reaches.
        reach = absorbing_reach(fed, start)
        keep = np.flatnonzero(reach)
        new = np.empty(len(self.state_order), dtype=np.intp)  # each kept state's new column
        new[keep] = np.arange(len(keep))
        new[n:] = np.arange(len(keep), len(keep) + len(self.state_order) - n)
        state_order = tuple(self.state_order[i] for i in keep) + self.state_order[n:]
        positions = np.flatnonzero(reach[self.source])
        source, column = new[self.source[positions]], new[self.column[positions]]
        counts, totals, start = self.counts[positions], self.totals[keep], int(new[self.start])
        return _Plan(state_order, source, column, counts, totals, start, self.mode), positions


@lru_cache(maxsize=128)
def _compiled(spec: NetworkSpec) -> _Plan:
    """Per-spec assembly plan, cached, so a spec is validated once: raises
    validate's report, else holds _rows' arrays, not copied, so the rows
    validate reads are the rows the chains are built of."""
    report = validate(spec)
    if not report.ok:
        raise ValidationError(report)
    return _Plan(spec.ids + ABSORBING_ORDER, *_rows(spec), spec.ids.index(spec.start))


def _chain(plan: _Plan, qr: np.ndarray) -> TransitionMatrix:
    n = len(plan.totals)
    return build_canonical(qr[:, :n], qr[:, n:], plan.state_order)


def _plug_in_qr(plan: _Plan, mode: str) -> np.ndarray:
    """(n, n + 3) stacked [Q | R] of `plan` in a canonical plug-in mode."""
    if mode not in (RAW_FREQUENCY, POSTERIOR_MEAN):
        raise ValueError(f"unknown plug-in mode {mode!r}")
    qr = np.zeros((len(plan.totals), len(plan.state_order)))
    if mode == POSTERIOR_MEAN:  # each row's posterior mean, normalised as a draw is
        _fill_draws(plan, np.array([plan.alpha]), qr[np.newaxis])
    else:  # each count divided by its row's total, as that row's CountVector sums it
        qr.flat[plan.placement] = plan.counts / plan.totals[plan.source]
    return qr


def _fill_draws(plan: _Plan, gammas: np.ndarray, qr: np.ndarray) -> None:
    """Write the rows of a batch of posterior draws into `qr`.

    `gammas` is (draws, E): row d holds one standard_gamma call over
    `plan.alpha`; given a copy of `plan.alpha`, it writes the posterior-mean
    rows that `_Plan.qr` holds in that mode. Each row is normalised twice,
    in place, as theta = g / g.sum() and then theta / theta.sum(), summed by
    _row_sums exactly as that row alone. The block is written through
    `plan.placement`, the plan's only layout index, into `qr`, the (draws,
    n, n + 3) stacked [Q | R] buffer, and no other cell: the Monte Carlo
    engine keeps one staging buffer for every chunk, which _absorb turns
    into [I - Q | R] in place between fills.
    """
    n, source = len(plan.totals), plan.source
    gammas /= _row_sums(gammas, source, n)[:, source]
    gammas /= _row_sums(gammas, source, n)[:, source]
    qr.reshape(len(gammas), -1)[:, plan.placement] = gammas


def plug_in_chain(spec: NetworkSpec, mode: str = RAW_FREQUENCY) -> TransitionMatrix:
    """Deterministic chain: rows are normalized frequencies (raw mode) or the
    mean of the flat-prior posterior (posterior-mean mode)."""
    plan = _compiled(spec)
    return _chain(plan, _plug_in_qr(plan, mode))


def sampled_chain(spec: NetworkSpec, rng: np.random.Generator) -> TransitionMatrix:
    """Stochastic chain: each stakeholder row is one draw from its flat-prior
    posterior. All rows come from one standard_gamma call over the
    concatenated alphas, in declaration order, so the result is a pure
    function of (spec, generator state)."""
    plan = _compiled(spec)
    qr = np.zeros((1, len(plan.totals), len(plan.state_order)))
    _fill_draws(plan, rng.standard_gamma(plan.alpha)[np.newaxis], qr)
    return _chain(plan, qr[0])
