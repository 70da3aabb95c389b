"""Absorbing-Markov-chain algebra of one chain.

The chain is stored in canonical block form: Q holds transient-to-transient
probabilities, R transient-to-absorbing. The absorbing block (O | I) is
implicit and never stored. Absorption probabilities solve the linear system
(I - Q) B = R; no explicit inverse is formed. A solution whose rows do not
sum to 1 within ROW_SUM_TOL is refused as too ill-conditioned. The
simulation engine solves the program's stacks of chains, its Monte Carlo
draws; evaluate in either plug-in mode and plug-in sweeps (in closed form)
read one solve of a plug-in chain as build_canonical stores it.
All solve over only the stakeholders the start reaches; build_canonical
and absorption_probabilities are the public one-chain API, and, over that
restricted chain, the oracle both are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AbsorptionUnreachableError,
    DimensionMismatchError,
    NegativeEntryError,
    RowSumError,
    SingularSystemError,
)

ROW_SUM_TOL = 1e-9
ABSORBING_ORDER = ("DI", "S", "US")


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Validated canonical-form chain. Construct via build_canonical."""

    q: np.ndarray
    r: np.ndarray
    state_order: tuple[str, ...]

    @property
    def n_transient(self) -> int:
        return self.q.shape[0]

    @property
    def n_absorbing(self) -> int:
        return self.r.shape[1]

    @property
    def transient_labels(self) -> tuple[str, ...]:
        return self.state_order[: self.n_transient]

    @property
    def absorbing_labels(self) -> tuple[str, ...]:
        return self.state_order[self.n_transient :]


@dataclass(frozen=True, eq=False)
class AbsorptionResult:
    """Absorption probabilities: b[i, k] = P(absorbed in state k | start i)."""

    b: np.ndarray
    state_order: tuple[str, ...]

    @property
    def n_transient(self) -> int:
        return self.b.shape[0]

    def row(self, state: str) -> np.ndarray:
        """Absorption distribution for the transient state named `state`."""
        idx = self.state_order.index(state)
        if idx >= self.n_transient:
            raise DimensionMismatchError(f"{state!r} is not a transient state")
        return self.b[idx]


def _default_labels(n: int, m: int) -> tuple[str, ...]:
    transient = tuple(f"t{i}" for i in range(n))
    if m == len(ABSORBING_ORDER):
        return transient + ABSORBING_ORDER
    return transient + tuple(f"abs{k}" for k in range(m))


def absorbing_reach(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Mask of the transient states that reach an absorbing state over the
    positive support of Q and R."""
    positive = q > 0.0
    reach = np.any(r > 0.0, axis=-1)
    changed = True
    while changed:
        feeding = positive & reach[..., np.newaxis, :]
        newly = ~reach & feeding.any(axis=-1)
        changed = bool(newly.any())
        reach |= newly
    return reach


def build_canonical(
    q,
    r,
    state_order: tuple[str, ...] | None = None,
) -> TransitionMatrix:
    """Assemble and validate a canonical-form chain from Q and R blocks.

    Rows within ROW_SUM_TOL of 1 are renormalized exactly before storage, so
    simplex vectors carrying float rounding error remain usable. `state_order`
    defaults to generated transient labels plus (DI, S, US) when R has three
    columns.
    """
    q = np.array(q, dtype=float)
    r = np.array(r, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise DimensionMismatchError(f"Q must be square, got shape {q.shape}")
    if r.ndim != 2 or r.shape[0] != q.shape[0]:
        raise DimensionMismatchError(
            f"R rows must match Q ({q.shape[0]}), got shape {r.shape}"
        )
    n, m = r.shape
    if n < 1 or m < 1:
        raise DimensionMismatchError("need at least one transient and one absorbing state")

    if state_order is None:
        state_order = _default_labels(n, m)
    state_order = tuple(state_order)
    if len(state_order) != n + m or len(set(state_order)) != n + m:
        raise DimensionMismatchError(
            f"state_order needs {n + m} unique labels, got {state_order}"
        )

    if np.any(q < 0) or np.any(r < 0):
        raise NegativeEntryError("transition probabilities must be non-negative")
    sums = q.sum(axis=1) + r.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        i = int(bad[0])
        raise RowSumError(f"row {i} ({state_order[i]!r}) sums to {float(sums[i])!r}, not 1")
    q = q / sums[:, np.newaxis]
    r = r / sums[:, np.newaxis]
    reach = absorbing_reach(q, r)
    if not reach.all():
        raise AbsorptionUnreachableError(
            f"transient states {np.flatnonzero(~reach).tolist()} cannot reach any absorbing state"
        )
    q.flags.writeable = False
    r.flags.writeable = False
    return TransitionMatrix(q=q, r=r, state_order=state_order)


def absorption_probabilities(tm: TransitionMatrix) -> AbsorptionResult:
    """Solve (I - Q) B = R; row i is the absorption distribution from state i.

    Every row of B must sum to 1, as the rows of Q and R do. A row that
    misses by more than ROW_SUM_TOL means I - Q is too ill-conditioned for
    the solve (a loop whose flow almost never leaves it), so it is refused.
    """
    try:
        b = np.linalg.solve(np.eye(tm.n_transient) - tm.q, tm.r)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"I - Q is singular: {exc}") from exc
    if not np.all(np.isfinite(b)):
        raise SingularSystemError("I - Q is numerically singular (non-finite solution)")
    sums = b.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        i = int(bad[0])
        raise SingularSystemError(
            f"absorption probabilities of row {i} ({tm.state_order[i]!r}) sum to "
            f"{float(sums[i])!r}, not 1; I - Q is too ill-conditioned"
        )
    b.flags.writeable = False
    return AbsorptionResult(b=b, state_order=tm.state_order)
