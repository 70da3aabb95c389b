"""Deterministic random-stream derivation.

Every Monte Carlo iteration owns an independent generator derived from the
master seed and an integer path (iteration index, and for sweeps the
stakeholder/increment indices). Derivation is a pure function of
(seed, path), so results do not depend on execution order.

The Monte Carlo engine derives one stream per iteration and makes one
standard_gamma call on it. The stream is exactly the generator
np.random.default_rng(SeedSequence(seed mod 2**64, spawn_key=path)) would
return: PCG64 seeded by that SeedSequence's generate_state(4, uint64).

numpy's own SeedSequence (numpy >= 1.19, NEP 19; its hashmix and mix follow
M. E. O'Neill's seed_seq_fe) mixes the seed and every path entry but the
last. This module does the rest, for a block of 64 consecutive last
entries, 64*b to 64*b + 63, at once, in numpy uint32 arrays whose products
wrap modulo 2**32 exactly as SeedSequence's do:

- Start from SeedSequence(seed mod 2**64, spawn_key=path[:-1]).pool and
  from the hash constant that pool's mixing ends on. That constant does not
  depend on the data: setting up the pool of 4 words from the seed takes
  4 + 4 * 3 = 16 hashes and each uint32 word of a spawn-key entry 4 more,
  each hash stepping the constant from INIT_A by a factor MULT_A.
- Hash each word of the last entry and mix it into every pool word, one row
  per entry of the block. The entries of a block differ only in their
  lowest word, since 64 divides 2**32.
- generate_state hashes the pool cyclically (INIT_B, MULT_B) into 8 uint32
  words, read as 4 little-endian uint64 words. numpy seeds PCG64 from those
  words and does all of the drawing.

The seed words of a block are a read-only (64, 4) uint64 array, cached for
the last 16 (seed, prefix, b) triples. The engine derives the streams of one
prefix in order of their last entry, so a stream is one row of a cached
block. An empty path has no last entry; its stream is PCG64 seeded by
SeedSequence(seed mod 2**64) itself.

Every constant that meets a uint32 array is itself a numpy uint32 array or
scalar, so the arithmetic stays uint32 under numpy 1.24's value-based
casting and under NEP 50 alike; the hash constants are stepped in Python
integers, as no two numpy scalars may be multiplied (an overflowing numpy
scalar warns, where array arithmetic wraps silently).

The block streams' bit_generator.seed_seq is a minimal ISeedSequence holding
those 4 words, not a numpy SeedSequence (it cannot spawn or give other
state); nothing in the package reads it. numpy.random is imported by the
first stream, so a command that draws none does not pay for the import.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

_U64 = 0xFFFF_FFFF_FFFF_FFFF
_M32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_BLOCK_BITS = 6
_BLOCK = 1 << _BLOCK_BITS  # last entries per block; divides 2**32
_OFFSETS = np.arange(_BLOCK, dtype=np.uint32)[:, None]
_BLOCK_CACHE_SIZE = 16


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for `path` under master `seed`.

    The seed and the path entries must be integers (TypeError otherwise;
    numpy integers and bools count). Negative seeds are mapped to their
    unsigned 64-bit representation. Path entries must be non-negative
    (ValueError), as SeedSequence's spawn_key requires.
    """
    seed = operator.index(seed) & _U64
    path = tuple(map(operator.index, path))
    if path and min(path) < 0:
        raise ValueError(f"expected non-negative path entries, got {path}")
    generator, pcg64, seed_sequence, seed_words = _numpy_random()
    if not path:
        return generator(pcg64(seed_sequence(seed)))
    last = path[-1]
    words = _block(seed, path[:-1], last >> _BLOCK_BITS)[last & _BLOCK - 1]
    return generator(pcg64(seed_words(words)))


def _words(n: int) -> list[int]:
    """The little-endian uint32 words of the non-negative `n`, [0] for 0,
    as SeedSequence splits an entropy or spawn-key integer."""
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _hash_consts(hash_const: int, steps: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """(the steps + 1 hash constants a run of `steps` hashes goes through
    from `hash_const`, as a uint32 array; the last of them)."""
    consts = [hash_const]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _M32)
    return np.array(consts, dtype=np.uint32), consts[-1]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each column of `values` in turn, with the
    hash constants `consts` from _hash_consts."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of hashed words `y` into pool words `x`."""
    values = _MIX_MULT_L * x - _MIX_MULT_R * y
    return values ^ values >> _XSHIFT


def _mix_in(pool: np.ndarray, hash_const: int, words: np.ndarray) -> tuple[np.ndarray, int]:
    """(pool, hash constant) after SeedSequence hashes each column of
    `words` in turn and mixes it into every pool word. `pool` is (4,) or
    (rows, 4) and `words` (rows, k) uint32; a (1, k) `words` broadcasts."""
    for j in range(words.shape[1]):
        consts, hash_const = _hash_consts(hash_const, _POOL_SIZE)
        pool = _mix(pool, _hashmix(words[:, j : j + 1], consts))
    return pool, hash_const


_OUTPUT_CONSTS = _hash_consts(_INIT_B, 2 * _POOL_SIZE, _MULT_B)[0]


@functools.lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _block(seed: int, prefix: tuple[int, ...], block: int) -> np.ndarray:
    """The PCG64 seed words of paths (*prefix, 64 * block + i) under `seed`
    (a non-negative int below 2**64; `prefix` holds non-negative ints), row
    i of a read-only (64, 4) uint64 array."""
    first = block << _BLOCK_BITS
    seed_sequence = _numpy_random()[2]
    pool = seed_sequence(seed, spawn_key=prefix).pool
    # 16 hashes set up the pool, then 4 per spawn-key word.
    hashes = _POOL_SIZE * (_POOL_SIZE + sum(len(_words(entry)) for entry in prefix))
    hash_const = _INIT_A * pow(_MULT_A, hashes, _M32 + 1) & _M32
    pool, hash_const = _mix_in(pool, hash_const, np.uint32(first & _M32) + _OFFSETS)
    # The words above the lowest are the same for the whole block.
    pool, _ = _mix_in(pool, hash_const, np.array([_words(first)[1:]], dtype=np.uint32))
    words = _hashmix(np.tile(pool, 2), _OUTPUT_CONSTS)
    # Little-endian pairs of uint32 words make the uint64 words.
    words = words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    words.flags.writeable = False
    return words


@functools.cache
def _numpy_random():
    """(Generator, PCG64, SeedSequence, an ISeedSequence that holds PCG64's
    seed), the first use importing numpy.random."""
    from numpy.random import PCG64, Generator, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """The 4 uint64 words a SeedSequence's generate_state gave PCG64."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds only {len(self.words)} uint64 words")
            return self.words

    return Generator, PCG64, SeedSequence, SeedWords
