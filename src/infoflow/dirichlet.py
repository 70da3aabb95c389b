"""Dirichlet-multinomial model for one stakeholder's outgoing-flow probabilities.

Observed flow frequencies to the K interacting states are multinomial data;
the conjugate Dirichlet prior yields a Dirichlet posterior whose draws are
candidate probability rows for the transition matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeEntryError,
    NonIntegerCountError,
    RowSumError,
)

SIMPLEX_TOL = 1e-9


def _freeze(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _check_labels(labels: tuple[str, ...], size: int) -> None:
    if len(labels) != size:
        raise DimensionMismatchError(
            f"{len(labels)} labels for {size} entries"
        )
    if len(set(labels)) != len(labels):
        raise DimensionMismatchError(f"duplicate labels in {labels}")


@dataclass(frozen=True, eq=False)
class CountVector:
    """Observed flow frequencies from one stakeholder to its interacting states."""

    labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "counts", _freeze(self.counts))
        if len(self.counts) < 1:
            raise DimensionMismatchError("count vector needs at least one entry")
        _check_labels(self.labels, len(self.counts))
        if np.any(self.counts < 0):
            raise NegativeEntryError(f"negative count in {self.counts}")

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True, eq=False)
class DirichletParams:
    """Concentration parameters over one stakeholder's interacting states."""

    labels: tuple[str, ...]
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "alpha", _freeze(self.alpha))
        _check_labels(self.labels, len(self.alpha))
        if np.any(self.alpha <= 0):
            raise ValueError(f"alpha must be strictly positive, got {self.alpha}")

    def __len__(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True, eq=False)
class SimplexVector:
    """A probability distribution over interacting states."""

    labels: tuple[str, ...]
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "theta", _freeze(self.theta))
        _check_labels(self.labels, len(self.theta))
        if np.any(self.theta < 0) or np.any(self.theta > 1):
            raise NegativeEntryError(f"entries outside [0, 1]: {self.theta}")
        if abs(self.theta.sum() - 1.0) > SIMPLEX_TOL:
            raise RowSumError(f"probabilities sum to {self.theta.sum()!r}, not 1")

    def __len__(self) -> int:
        return len(self.theta)


def multinomial_pmf(counts: CountVector, theta: SimplexVector) -> float:
    """Probability of observing `counts` in counts.total independent flows.

    Evaluated in log space with log-gamma and exponentiated at the end, so
    large totals do not overflow the multinomial coefficient.
    """
    if counts.labels != theta.labels:
        raise DimensionMismatchError(f"label mismatch: {counts.labels} vs {theta.labels}")
    c = counts.counts
    rounded = np.rint(c)
    if np.any(np.abs(c - rounded) > 1e-9):
        raise NonIntegerCountError(f"counts must be integers, got {c}")
    c = rounded
    log_coeff = math.lgamma(c.sum() + 1.0) - sum(math.lgamma(v + 1.0) for v in c)
    log_prob = 0.0
    for v, t in zip(c, theta.theta):
        if v == 0:
            continue  # 0 * log(0) taken as 0
        if t == 0.0:
            return 0.0
        log_prob += v * math.log(t)
    return math.exp(log_coeff + log_prob)


def noninformative_posterior(counts: CountVector) -> DirichletParams:
    """Posterior under the flat all-ones prior: 1 + N_j componentwise."""
    return DirichletParams(counts.labels, 1.0 + counts.counts)


def mean(params: DirichletParams) -> SimplexVector:
    """Dirichlet mean alpha_j / sum(alpha); the deterministic plug-in row."""
    theta = params.alpha / params.alpha.sum()
    return SimplexVector(params.labels, theta / theta.sum())


def sample(params: DirichletParams, rng: np.random.Generator) -> SimplexVector:
    """One Dirichlet draw: independent gamma(alpha_j, 1) variates, normalized.

    Deterministic given the generator state; valid for all alpha > 0.
    """
    g = rng.standard_gamma(params.alpha)
    total = g.sum()
    if total <= 0.0:
        raise ValueError("gamma draws underflowed to zero; alpha too small")
    theta = g / total
    return SimplexVector(params.labels, theta / theta.sum())
