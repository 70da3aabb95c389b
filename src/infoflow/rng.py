"""Deterministic random-stream derivation.

Every Monte Carlo iteration owns an independent generator derived from the
master seed and an integer path (iteration index, and for sweeps the
stakeholder/increment indices). Derivation is a pure function of
(seed, path), so results do not depend on execution order.
"""

from __future__ import annotations

import numpy as np

_U64 = 0xFFFF_FFFF_FFFF_FFFF


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for `path` under master `seed`.

    Negative seeds are mapped to their unsigned 64-bit representation.
    """
    entropy = int(seed) & _U64
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=path))
