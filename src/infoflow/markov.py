"""Absorbing-Markov-chain algebra.

The chain is stored in canonical block form: Q holds transient-to-transient
probabilities, R transient-to-absorbing. The absorbing block (O | I) is
implicit and never stored. Absorption probabilities solve the linear system
(I - Q) B = R; no explicit inverse is formed.
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
    positive support of Q and R, of one chain or of every chain in a stack."""
    positive = q > 0.0
    reach = np.any(r > 0.0, axis=-1)
    changed = True
    while changed:
        feeding = positive & reach[..., np.newaxis, :]
        newly = ~reach & feeding.any(axis=-1)
        changed = bool(newly.any())
        reach |= newly
    return reach


def _check_absorption_reachable(q: np.ndarray, r: np.ndarray) -> None:
    """Raise naming the stuck states of the first chain that has one."""
    reach = absorbing_reach(q, r)
    if not reach.all():
        stuck = ~reach.reshape(-1, reach.shape[-1])
        first = stuck[np.argmax(stuck.any(axis=1))]
        raise AbsorptionUnreachableError(
            f"transient states {np.flatnonzero(first).tolist()} cannot reach any absorbing state"
        )


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

    q, r = _normalised(q, r, state_order)
    q.flags.writeable = False
    r.flags.writeable = False
    return TransitionMatrix(q=q, r=r, state_order=state_order)


def _normalised(q: np.ndarray, r: np.ndarray, state_order: tuple[str, ...]):
    """build_canonical's checks on Q and R blocks of one chain or of a stack
    of chains (leading axes), and the blocks with every row renormalised."""
    if np.any(q < 0) or np.any(r < 0):
        raise NegativeEntryError("transition probabilities must be non-negative")

    sums = q.sum(axis=-1) + r.sum(axis=-1)
    bad = np.argwhere(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        at = tuple(bad[0])
        i = int(at[-1])
        raise RowSumError(
            f"row {i} ({state_order[i]!r}) sums to {sums[at]!r}, not 1"
        )
    q = q / sums[..., np.newaxis]
    r = r / sums[..., np.newaxis]

    _check_absorption_reachable(q, r)
    return q, r


def _solve(q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - Q) X = rhs for one chain or a stack of chains."""
    a = np.eye(q.shape[-1]) - q
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"I - Q is singular: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("I - Q is numerically singular (non-finite solution)")
    return x


def absorption_probabilities(tm: TransitionMatrix) -> AbsorptionResult:
    """Solve (I - Q) B = R; row i is the absorption distribution from state i."""
    b = _solve(tm.q, tm.r)
    b.flags.writeable = False
    return AbsorptionResult(b=b, state_order=tm.state_order)


def stacked_absorption(q: np.ndarray, r: np.ndarray, state_order: tuple[str, ...]) -> np.ndarray:
    """(chains, n, m) absorption probabilities of a stack of chains given as
    (chains, n, n) Q and (chains, n, m) R blocks over the same states.

    Every chain gets build_canonical's checks, with the same errors, and its
    renormalisation; then one stacked solve of (I - Q) B = R. Chain k's
    result equals, bit for bit, absorption_probabilities of build_canonical
    of that chain alone.
    """
    return _solve(*_normalised(q, r, state_order))
