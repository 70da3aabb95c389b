"""Deterministic random-stream derivation.

Every Monte Carlo iteration owns an independent generator derived from the
master seed and an integer path (iteration index, and for sweeps the
stakeholder/increment indices). Derivation is a pure function of
(seed, path), so results do not depend on execution order.

The Monte Carlo engine derives one stream per iteration and makes one
standard_gamma call on it. The stream is exactly the generator
np.random.default_rng(SeedSequence(seed mod 2**64, spawn_key=path)) would
return: PCG64 seeded by that SeedSequence's generate_state(4, uint64).

This module computes that state itself, in Python integers, with the
algorithm of numpy's SeedSequence (numpy >= 1.19, NEP 19; its hashmix and
mix follow M. E. O'Neill's seed_seq_fe):

- The entropy is the seed's little-endian uint32 words, zero-padded to the
  pool size 4, followed by each path entry's words. (numpy pads only when
  there is a spawn key, but a pool word with no entropy behind it is
  hashed from 0 either way, so padding always gives the same pool.)
- The first 4 words are hashed into the pool (hashmix: constants INIT_A
  and MULT_A, 16-bit xor-shift), every pool word is mixed into every other
  (mix: MIX_MULT_L and MIX_MULT_R), and each later word is hashed and mixed
  into every pool word in turn.
- generate_state hashes the pool cyclically (INIT_B, MULT_B) into 8 uint32
  words, read as 4 little-endian uint64 words; its hash constants do not
  depend on the data, so they are computed once. numpy seeds PCG64 from
  those words and does all of the drawing.

The pool and hash constant after (seed, *path[:-1]) depend on nothing
else, so they are cached, for the last 256 (seed, prefix) pairs: a sweep's
iterations share a prefix and differ in their last entry, so each stream
mixes in only that entry's words.

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
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_PREFIX_CACHE_SIZE = 256


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for `path` under master `seed`.

    Negative seeds are mapped to their unsigned 64-bit representation. Path
    entries must be non-negative integers (ValueError if negative,
    TypeError if not integers), as SeedSequence's spawn_key requires.
    """
    path = tuple(map(operator.index, path))
    pool, hash_const = _prefix_pool(int(seed) & _U64, path[:-1])
    if path:
        for word in _words(path[-1]):
            pool, hash_const = _mix_in(pool, hash_const, word)
    generator, pcg64, seed_words = _numpy_random()
    return generator(pcg64(seed_words(_pcg64_seed(pool))))


def _words(n: int) -> list[int]:
    """The little-endian uint32 words of `n`, [0] for 0, as SeedSequence
    splits an entropy or spawn-key integer."""
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """SeedSequence's hashmix: (hashed value, next hash constant)."""
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _M32
    value = value * hash_const & _M32
    return value ^ value >> _XSHIFT, hash_const


def _mix_in(
    pool: tuple[int, ...], hash_const: int, word: int, skip: int = -1
) -> tuple[tuple[int, ...], int]:
    """(pool, hash constant) after SeedSequence hashes `word` and mixes it
    into each pool word in turn, pool[skip] excepted."""
    mixed = list(pool)
    for dst, x in enumerate(pool):
        if dst != skip:
            value, hash_const = _hashmix(word, hash_const)
            value = (_MIX_MULT_L * x - _MIX_MULT_R * value) & _M32
            mixed[dst] = value ^ value >> _XSHIFT
    return tuple(mixed), hash_const


@functools.lru_cache(maxsize=_PREFIX_CACHE_SIZE)
def _prefix_pool(seed: int, prefix: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(pool, hash constant) once `seed` (a non-negative int) and the
    entries of `prefix` (ints) are mixed in."""
    if prefix:
        pool, hash_const = _prefix_pool(seed, prefix[:-1])
        words = _words(prefix[-1])
    else:
        words = _words(seed)
        words += [0] * (_POOL_SIZE - len(words))
        hash_const = _INIT_A
        pool = []
        for word in words[:_POOL_SIZE]:
            value, hash_const = _hashmix(word, hash_const)
            pool.append(value)
        # Every pool word into every other; pool[src] does not change while
        # it is mixed into the others.
        for src in range(_POOL_SIZE):
            pool, hash_const = _mix_in(pool, hash_const, pool[src], skip=src)
        words = words[_POOL_SIZE:]
    for word in words:
        pool, hash_const = _mix_in(pool, hash_const, word)
    return pool, hash_const


def _output_hash() -> tuple[tuple[int, int], ...]:
    """generate_state's (xor, multiplier) for each of the 8 uint32 words of
    PCG64's seed; they do not depend on the pool."""
    pairs, hash_const = [], _INIT_B
    for _ in range(2 * _POOL_SIZE):
        xor = hash_const
        hash_const = hash_const * _MULT_B & _M32
        pairs.append((xor, hash_const))
    return tuple(pairs)


_OUTPUT_HASH = _output_hash()


def _pcg64_seed(pool: tuple[int, ...]) -> np.ndarray:
    """generate_state(4, uint64) of a SeedSequence whose pool is `pool`."""
    words = []
    for x, (xor, mult) in zip(pool + pool, _OUTPUT_HASH):
        value = (x ^ xor) * mult & _M32
        words.append(value ^ value >> _XSHIFT)
    # Little-endian pairs of uint32 words make the uint64 words.
    return np.array(words, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


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
