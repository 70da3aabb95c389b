"""Flat-prior Dirichlet posterior of one stakeholder's outgoing-flow probabilities.

Observed flow frequencies N to the K interacting states are multinomial
data. Under the flat Dirichlet(1, ..., 1) prior the conjugate posterior is
Dirichlet(1 + N), so no likelihood is ever evaluated: the chain is built
from the posterior's alpha: from its mean (plug_in_chain's posterior-mean
mode) or from its draws (sampled_chain and the Monte Carlo engine).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NegativeEntryError


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
        if not np.all(np.isfinite(self.counts)):
            raise ValueError(f"non-finite count in {self.counts}")

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
        if not np.all((self.alpha > 0) & (self.alpha < np.inf)):  # NaN fails both
            raise ValueError(f"alpha must be strictly positive and finite, got {self.alpha}")

    def __len__(self) -> int:
        return len(self.alpha)


def noninformative_posterior(counts: CountVector) -> DirichletParams:
    """Posterior under the flat all-ones prior: 1 + N_j componentwise."""
    return DirichletParams(counts.labels, 1.0 + counts.counts)
