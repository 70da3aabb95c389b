"""Deterministic random-stream derivation.

Every Monte Carlo iteration owns an independent generator derived from the
master seed and an integer path (iteration index, and for sweeps the
stakeholder/increment indices). Derivation is a pure function of
(seed, path), so results do not depend on execution order.

The Monte Carlo engine derives one stream per iteration and makes one
standard_gamma call on it. The generator is PCG64 seeded by
SeedSequence(seed mod 2**64, spawn_key=path), built directly; this is
exactly the generator np.random.default_rng would return for that
SeedSequence.
"""

from __future__ import annotations

import numpy as np

_U64 = 0xFFFF_FFFF_FFFF_FFFF


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for `path` under master `seed`.

    Negative seeds are mapped to their unsigned 64-bit representation.
    """
    entropy = int(seed) & _U64
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=path)))
