"""Independent oracles shared by the test suite.

These deliberately avoid the library's linear-solve path so that the two
routes check each other.
"""

from __future__ import annotations

import json
import math
from collections import deque
from fractions import Fraction

import numpy as np

from infoflow.dirichlet import CountVector, noninformative_posterior
from infoflow.errors import DimensionMismatchError
from infoflow.markov import ABSORBING_ORDER, absorption_probabilities, build_canonical
from infoflow.network import FlowRecord, NetworkSpec, Stakeholder


def truncated_power_absorption(q, r, residual_tol=1e-10, max_steps=100_000):
    """Absorption probabilities by accumulating path mass length by length.

    B = sum_k Q^k R, truncated once the not-yet-absorbed transient mass
    (row sums of Q^(k+1)) drops below residual_tol everywhere.
    """
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    acc = np.zeros_like(r)
    walk = np.eye(q.shape[0])
    for _ in range(max_steps):
        acc += walk @ r
        walk = walk @ q
        if walk.sum(axis=1).max() < residual_tol:
            return acc
    raise AssertionError("path enumeration did not converge; chain too sticky")


def enumerate_paths_absorption(spec, absorbing=("DI", "S", "US")):
    """Exact raw-frequency absorption from the start stakeholder of an
    acyclic network, by depth-first enumeration of every path."""
    rows: dict[str, list[tuple[str, float]]] = {}
    totals: dict[str, float] = {}
    for f in spec.flows:
        rows.setdefault(f.source, []).append((f.target, f.frequency))
        totals[f.source] = totals.get(f.source, 0.0) + f.frequency
    out = dict.fromkeys(absorbing, 0.0)

    def walk(state: str, mass: float, depth: int) -> None:
        assert depth < 1000, "cycle detected; this oracle needs an acyclic network"
        for target, freq in rows[state]:
            p = mass * freq / totals[state]
            if target in out:
                out[target] += p
            else:
                walk(target, p, depth + 1)

    walk(spec.start, 1.0, 0)
    return np.array([out[k] for k in absorbing])


def flow_counts(spec, stakeholder):
    """One stakeholder's outgoing frequencies, read off spec.flows: transient
    targets in declaration order, then DI, S, US."""
    frequency = {f.target: f.frequency for f in spec.flows if f.source == stakeholder}
    labels = tuple(s for s in spec.ids + ABSORBING_ORDER if s in frequency)
    return CountVector(labels, [frequency[s] for s in labels])


def with_reallocated(spec, stakeholder, cv):
    """The spec one sweep increment describes, rebuilt from scratch: the
    stakeholder's flows replaced by the CountVector `cv`."""
    kept = tuple(f for f in spec.flows if f.source != stakeholder)
    new = tuple(
        FlowRecord(stakeholder, label, float(v)) for label, v in zip(cv.labels, cv.counts)
    )
    return NetworkSpec(spec.stakeholders, kept + new, spec.start)


def dirichlet_sample(params, rng):
    """One Dirichlet(params.alpha) draw: independent gamma(alpha_j, 1)
    variates normalised twice (theta = g / g.sum(), then theta / theta.sum()),
    the same way each row of a posterior draw is. Deterministic given the
    generator state."""
    g = rng.standard_gamma(params.alpha)
    total = g.sum()
    if total <= 0.0:
        raise ValueError("gamma draws underflowed to zero; alpha too small")
    theta = g / total
    return theta / theta.sum()


def _reached_start_row(spec, rows):
    """Start-state absorption triple of the chain whose stakeholder rows are
    `rows` (id -> {label: probability}), restricted to the stakeholders a
    breadth-first search over spec.flows reaches from spec.start and solved
    by build_canonical + absorption_probabilities. Every flow record counts
    for the search, whatever its frequency, as it labels a row's cell."""
    reached, queue = {spec.start}, deque([spec.start])
    while queue:
        for target in rows[queue.popleft()]:
            if target in rows and target not in reached:
                reached.add(target)
                queue.append(target)
    kept = [sid for sid in spec.ids if sid in reached]
    q = [[rows[a].get(b, 0.0) for b in kept] for a in kept]
    r = [[rows[a].get(k, 0.0) for k in ABSORBING_ORDER] for a in kept]
    chain = build_canonical(q, r, tuple(kept) + ABSORBING_ORDER)
    return absorption_probabilities(chain).row(spec.start)


def reachable_sampled_absorption(spec, rng):
    """Start-state absorption triple of one posterior draw, solved over the
    stakeholders the start reaches.

    Every stakeholder's row is drawn with dirichlet_sample, in declaration
    order, from `rng`; every drawn cell is positive. The chain is then
    restricted and solved by _reached_start_row.
    """
    drawn = {}
    for sid in spec.ids:
        params = noninformative_posterior(flow_counts(spec, sid))
        drawn[sid] = dict(zip(params.labels, dirichlet_sample(params, rng)))
    return _reached_start_row(spec, drawn)


def reachable_plug_in_absorption(spec, mode="raw", rows=None):
    """Start-state absorption triple of the plug-in chain in `mode`, solved
    over the stakeholders the start reaches by _reached_start_row.

    A raw row is the frequencies over their total; a posterior-mean row is
    the flat-prior posterior mean alpha / alpha.sum(), renormalised. `rows`
    (id -> CountVector), where given, holds every stakeholder's counts as
    flow_counts reads them, so a caller that changes one row reads the
    others once.
    """
    rows = rows or {sid: flow_counts(spec, sid) for sid in spec.ids}
    shares = {}
    for sid in spec.ids:
        cv = rows[sid]
        if mode == "raw":
            p = cv.counts / cv.total
        else:
            alpha = noninformative_posterior(cv).alpha
            theta = alpha / alpha.sum()
            p = theta / theta.sum()
        shares[sid] = dict(zip(cv.labels, p))
    return _reached_start_row(spec, shares)


def exact_rows(spec):
    """Every stakeholder's raw-frequency row in exact rational arithmetic:
    id -> {label: Fraction(frequency) / Fraction(total)}. Each float
    frequency is the Fraction it is exactly."""
    counts = {sid: {} for sid in spec.ids}
    for f in spec.flows:
        counts[f.source][f.target] = Fraction(f.frequency)
    return {sid: {t: v / sum(row.values()) for t, v in row.items()}
            for sid, row in counts.items()}


def exact_start_absorption(spec, rows):
    """Exact start-state (P_DI, P_S, P_US) of the chain whose stakeholder
    rows are `rows` (id -> {label: Fraction}), by Gauss-Jordan elimination
    of [I - Q | R] in Fractions over the stakeholders the start reaches
    over positive probabilities, every one of which must reach absorption."""
    reached, queue = {spec.start}, deque([spec.start])
    while queue:
        for target, p in rows[queue.popleft()].items():
            if p > 0 and target in rows and target not in reached:
                reached.add(target)
                queue.append(target)
    kept = [sid for sid in spec.ids if sid in reached]
    index = {sid: i for i, sid in enumerate(kept)}
    m = len(kept)
    matrix = []
    for sid in kept:
        row = [Fraction(int(j == index[sid])) for j in range(m)] + [Fraction(0)] * 3
        for target, p in rows[sid].items():
            if p == 0:
                continue  # perhaps to a stakeholder the start does not reach
            if target in index:
                row[index[target]] -= p
            else:
                row[m + ABSORBING_ORDER.index(target)] += p
        matrix.append(row)
    for c in range(m):
        pivot = next(r for r in range(c, m) if matrix[r][c] != 0)
        matrix[c], matrix[pivot] = matrix[pivot], matrix[c]
        matrix[c] = [x / matrix[c][c] for x in matrix[c]]
        for r in range(m):
            if r != c and matrix[r][c] != 0:
                factor = matrix[r][c]
                matrix[r] = [x - factor * y for x, y in zip(matrix[r], matrix[c])]
    return tuple(matrix[index[spec.start]][m:])


def multinomial_pmf(counts, theta):
    """Probability of observing the integer CountVector `counts` in
    counts.total independent flows with probabilities `theta`, a
    (labels, probabilities) pair.

    Evaluated in log space with log-gamma and exponentiated at the end, so
    large totals do not overflow the multinomial coefficient.
    """
    labels, probabilities = theta
    if counts.labels != tuple(labels):
        raise DimensionMismatchError(f"label mismatch: {counts.labels} vs {labels}")
    c = counts.counts
    rounded = np.rint(c)
    if np.any(np.abs(c - rounded) > 1e-9):
        raise ValueError(f"counts must be integers, got {c}")
    c = rounded
    log_coeff = math.lgamma(c.sum() + 1.0) - sum(math.lgamma(v + 1.0) for v in c)
    log_prob = 0.0
    for v, t in zip(c, probabilities):
        if v == 0:
            continue  # 0 * log(0) taken as 0
        if t == 0.0:
            return 0.0
        log_prob += v * math.log(t)
    return math.exp(log_coeff + log_prob)


def random_valid_chain(rng, n_max=5):
    """Random canonical (q, r) blocks with guaranteed absorption: every row
    keeps at least 5% direct absorbing mass."""
    n = int(rng.integers(1, n_max + 1))
    q = rng.random((n, n)) * (rng.random((n, n)) > 0.3)
    r = rng.random((n, 3)) + 0.05
    total = q.sum(axis=1) + r.sum(axis=1)
    return q / total[:, None], r / total[:, None]


def wide_row_network():
    """Cyclic 13-stakeholder network document whose rows have 3, 8, 9 or 12
    targets (cycling in declaration order). Rows this wide are where numpy's
    pairwise summation rounds differently from a sequential sum, so they pin
    the draw's normalisation bit for bit."""
    ids = [f"W{i:02d}" for i in range(13)]
    tails = (("S",), ("S", "US"), ("DI", "S", "US"))
    flows = []
    for i, sid in enumerate(ids):
        width = (3, 8, 9, 12)[i % 4]
        tail = tails[i % 3]
        others = [ids[(i + 1 + j) % len(ids)] for j in range(width - len(tail))]
        for j, target in enumerate(others + list(tail)):
            flows.append({"from": sid, "to": target, "frequency": 1 + (37 * i + 11 * j) % 50})
    return {
        "stakeholders": [{"id": sid, "level": "state"} for sid in ids],
        "start": ids[0],
        "flows": flows,
    }


def layered_network(size, seed):
    """Seeded cyclic network document of `size` stakeholders. Each sends
    3-6 forward flows and discards (DI); one in seven also sends a flow back
    to an earlier stakeholder, and about half (always the last) also deliver
    to S and US."""
    rng = np.random.default_rng(seed)
    ids = [f"N{i:03d}" for i in range(size)]
    flows = []
    for i, sid in enumerate(ids):
        later = ids[i + 1:]
        targets = list(rng.choice(later, size=min(len(later), int(rng.integers(3, 7))),
                                  replace=False)) if later else []
        if i > 0 and rng.random() < 1 / 7:
            targets.append(ids[int(rng.integers(i))])
        targets += ["DI", "S", "US"] if i == size - 1 or rng.random() < 0.5 else ["DI"]
        for target in targets:
            flows.append({"from": sid, "to": str(target), "frequency": int(rng.integers(5, 41))})
    return {
        "stakeholders": [{"id": sid, "level": "local"} for sid in ids],
        "start": ids[0],
        "flows": flows,
    }


def document_bytes(doc):
    """Canonical bytes of a network document, for the CLI and for digests."""
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")


def cyclic_spec():
    # X and Y feed each other; each also has its own absorbing exits.
    return NetworkSpec(
        (Stakeholder("A", "federal"), Stakeholder("X", "state"), Stakeholder("Y", "local")),
        (
            FlowRecord("A", "X", 6.0),
            FlowRecord("A", "Y", 4.0),
            FlowRecord("A", "DI", 1.0),
            FlowRecord("X", "Y", 5.0),
            FlowRecord("X", "S", 3.0),
            FlowRecord("X", "DI", 2.0),
            FlowRecord("Y", "X", 2.0),
            FlowRecord("Y", "S", 4.0),
            FlowRecord("Y", "US", 3.0),
        ),
        "A",
    )


def sum_order_spec():
    # B's frequencies sum to 1.9999999999999998 in flow order but to 2.0 in
    # state order, which B's raw-frequency row divides by. 5e-324 / 2.0 rounds
    # to 0 there, so B -> S is no flow and B, E1..E4 only pass flow to each other.
    ids = ["A", "B", "E1", "E2", "E3", "E4"]
    flows = [
        ("A", "B", 1.0), ("A", "S", 1.0), ("B", "S", 5e-324), ("B", "E2", 0.2499999999999999),
        ("B", "E4", 0.7499999999999999), ("B", "E3", 0.25000000000000006), ("B", "E1", 0.75),
        ("E1", "B", 1.0), ("E2", "B", 1.0), ("E3", "B", 1.0), ("E4", "B", 1.0),
    ]
    return NetworkSpec(
        tuple(Stakeholder(s, "local") for s in ids), tuple(FlowRecord(*f) for f in flows), "A"
    )


def unreached_spec():
    """The start Z reaches C only; the A<->B loop of 1e17, declared after
    them, has an exactly singular I - Q and must never be staged."""
    ids = ["Z", "C", "A", "B"]
    flows = [
        ("Z", "C", 3.0), ("Z", "DI", 1.0), ("C", "S", 2.0), ("C", "US", 1.0),
        ("A", "B", 1e17), ("B", "A", 1e17), ("A", "S", 1.0), ("B", "US", 1.0),
    ]
    return NetworkSpec(
        tuple(Stakeholder(s, "state") for s in ids), tuple(FlowRecord(*f) for f in flows), "Z"
    )
