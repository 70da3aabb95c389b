"""Independent oracles shared by the test suite.

These deliberately avoid the library's linear-solve path so that the two
routes check each other.
"""

from __future__ import annotations

import json

import numpy as np


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
