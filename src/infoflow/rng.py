"""Deterministic random-stream derivation.

Every Monte Carlo iteration owns an independent generator derived from the
master seed and an integer path (iteration index, and for sweeps the
stakeholder/increment indices). Derivation is a pure function of
(seed, path), so results do not depend on execution order.

The Monte Carlo engine derives one stream per iteration and makes one
standard_gamma call on it. The stream is exactly the generator
np.random.default_rng(SeedSequence(seed mod 2**64, spawn_key=path)) would
return: PCG64 seeded by that SeedSequence's generate_state(4, uint64).

This module computes that state itself, with the algorithm of numpy's
SeedSequence (numpy >= 1.19, NEP 19; its hashmix and mix follow M. E.
O'Neill's seed_seq_fe), in numpy uint32 arrays whose products wrap modulo
2**32 exactly as SeedSequence's do:

- The entropy is the seed's little-endian uint32 words, zero-padded to the
  pool size 4, followed by each path entry's words. (numpy pads only when
  there is a spawn key, but a pool word with no entropy behind it is
  hashed from 0 either way, so padding always gives the same pool.)
- The first 4 words are hashed into the pool (hashmix: constants INIT_A
  and MULT_A, 16-bit xor-shift), every pool word is mixed into every other
  (mix: MIX_MULT_L and MIX_MULT_R), and each later word is hashed and mixed
  into every pool word in turn.
- generate_state hashes the pool cyclically (INIT_B, MULT_B) into 8 uint32
  words, read as 4 little-endian uint64 words. numpy seeds PCG64 from those
  words and does all of the drawing.

The hash constants step through a sequence that does not depend on the
data, so one routine hashes and mixes a word into any number of pools at
once, a row each. Two caches use it:

- The pool and hash constant after (seed, *path[:-1]), a 1-row array, for
  the last 256 (seed, prefix) pairs.
- The PCG64 seed words of a block of 64 consecutive last entries, 64*b to
  64*b + 63, a read-only (64, 4) uint64 array built in one pass, for the
  last 16 (seed, prefix, b) triples. The entries of a block differ only in
  their lowest word, since 64 divides 2**32. The engine derives the streams
  of one prefix in order of their last entry, so a stream is one row of a
  cached block.

Every constant that meets a uint32 array is itself a numpy uint32 array or
scalar, so the arithmetic stays uint32 under numpy 1.24's value-based
casting and under NEP 50 alike; the hash constants are stepped in Python
integers, as no two numpy scalars may be multiplied (an overflowing numpy
scalar warns, where array arithmetic wraps silently).

The returned generator's bit_generator.seed_seq is a minimal ISeedSequence
holding those 4 words, not a numpy SeedSequence (it cannot spawn or give
other state); nothing in the package reads it. numpy.random is imported by
the first stream, so a command that draws none does not pay for the import.
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
_PREFIX_CACHE_SIZE = 256
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
    if not path:
        words = _seed_words(_prefix_pool(seed, ())[0])[0]
    elif min(path) < 0:
        raise ValueError(f"expected non-negative path entries, got {path}")
    else:
        last = path[-1]
        words = _block(seed, path[:-1], last >> _BLOCK_BITS)[last & _BLOCK - 1]
    generator, pcg64, seed_words = _numpy_random()
    return generator(pcg64(seed_words(words)))


def _words(n: int) -> np.ndarray:
    """The little-endian uint32 words of the non-negative `n`, [0] for 0,
    as SeedSequence splits an entropy or spawn-key integer: a (1, k)
    array."""
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return np.array([words], dtype=np.uint32)


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
    `words` in turn and mixes it into every pool word. `pool` is (rows, 4)
    and `words` (rows, k) uint32; either may have 1 row, which broadcasts."""
    for j in range(words.shape[1]):
        consts, hash_const = _hash_consts(hash_const, _POOL_SIZE)
        pool = _mix(pool, _hashmix(words[:, j : j + 1], consts))
    return pool, hash_const


@functools.lru_cache(maxsize=_PREFIX_CACHE_SIZE)
def _prefix_pool(seed: int, prefix: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """(pool, hash constant) once `seed` (a non-negative int below 2**64)
    and the entries of `prefix` (non-negative ints) are mixed in; the pool
    a read-only (1, 4) uint32 array."""
    if prefix:
        pool, hash_const = _mix_in(*_prefix_pool(seed, prefix[:-1]), _words(prefix[-1]))
    else:
        entropy = np.zeros((1, _POOL_SIZE), dtype=np.uint32)
        seed_words = _words(seed)  # at most 2 words: no entropy beyond the pool
        entropy[:, : seed_words.shape[1]] = seed_words
        consts, hash_const = _hash_consts(_INIT_A, _POOL_SIZE)
        pool = _hashmix(entropy, consts)
        # Every pool word into every other; pool[src] does not change while
        # it is mixed into the others.
        for src in range(_POOL_SIZE):
            dst = [i for i in range(_POOL_SIZE) if i != src]
            consts, hash_const = _hash_consts(hash_const, _POOL_SIZE - 1)
            pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src : src + 1], consts))
    pool.flags.writeable = False
    return pool, hash_const


@functools.lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _block(seed: int, prefix: tuple[int, ...], block: int) -> np.ndarray:
    """The PCG64 seed words of paths (*prefix, 64 * block + i) under `seed`,
    row i of a read-only (64, 4) uint64 array."""
    first = block << _BLOCK_BITS
    pool, hash_const = _prefix_pool(seed, prefix)
    pool, hash_const = _mix_in(pool, hash_const, np.uint32(first & _M32) + _OFFSETS)
    # The words above the lowest are the same for the whole block.
    pool, _ = _mix_in(pool, hash_const, _words(first)[:, 1:])
    words = _seed_words(pool)
    words.flags.writeable = False
    return words


_OUTPUT_CONSTS = _hash_consts(_INIT_B, 2 * _POOL_SIZE, _MULT_B)[0]


def _seed_words(pool: np.ndarray) -> np.ndarray:
    """generate_state(4, uint64) of a SeedSequence for each row of `pool`,
    a (rows, 4) uint32 array: a (rows, 4) uint64 array."""
    words = _hashmix(np.tile(pool, 2), _OUTPUT_CONSTS)
    # Little-endian pairs of uint32 words make the uint64 words.
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _numpy_random():
    """(Generator, PCG64, an ISeedSequence that holds PCG64's seed), the
    first use importing numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """The 4 uint64 words a SeedSequence's generate_state gave PCG64."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds only {len(self.words)} uint64 words")
            return self.words

    return Generator, PCG64, SeedWords
