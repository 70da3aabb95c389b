import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infoflow
from infoflow import rng
from infoflow.rng import stream

ALPHA = np.array([1.0, 2.5, 31.0, 1e9])
seeds = st.integers(-2**70, 2**70)
entries = st.integers(0, 2**70 - 1)
# Streams come from blocks of 64 consecutive last entries; these sit at the
# edges of a block, of a uint32 word, and of a uint64 word.
EDGES = [0, 63, 64, 65, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70]
edges = st.sampled_from(EDGES)


def numpy_stream(seed, path):
    return np.random.default_rng(np.random.SeedSequence(seed & 2**64 - 1, spawn_key=path))


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.standard_gamma(ALPHA), want.standard_gamma(ALPHA))


@pytest.mark.parametrize("seed, path", [
    (0, ()),
    (101, (7,)),
    (2020, (3, 41, 59)),
    (-5, (0, 1)),  # negative seeds wrap to their unsigned 64-bit value
    (2**64 + 9, (2,)),
    # numpy integers and bools are integer entries too
    (9, (np.int64(3), np.uint8(7))),
    (9, (np.uint64(2**64 - 1), np.int32(0))),
    (9, (True, False, 5)),
    (np.int64(9), (3,)),
    (np.uint64(2**64 - 1), (3,)),
    (True, (3,)),
    # The hash constant a block starts from counts the uint32 words of the
    # prefix entries: 2 words each for 2**32 and 2**64 - 1, 3 for 2**70.
    (11, (2**32, 5)),
    (11, (2**64 - 1, 70)),
    (11, (2**70, 64)),
    (11, (2**64 - 1, 2**70, 0, 2**32 + 63)),
    (2**40 + 3, ()),  # a 2-word seed and an empty path
])
def test_stream_is_default_rng_of_its_seed_sequence(seed, path):
    want = np.random.default_rng(np.random.SeedSequence(int(seed) & 2**64 - 1, spawn_key=path))
    got = stream(seed, *path)
    assert got.bit_generator.state == want.bit_generator.state
    alpha = np.array([1.0, 2.5, 31.0, 1e9])
    assert np.array_equal(got.standard_gamma(alpha), want.standard_gamma(alpha))
    assert np.array_equal(got.random(4), want.random(4))


def test_paths_give_distinct_streams():
    draws = {stream(1, *path).random() for path in [(), (0,), (1,), (0, 0), (0, 1)]}
    assert len(draws) == 5


@given(seeds, st.lists(entries, max_size=5))
def test_stream_matches_numpys_seed_sequence(seed, path):
    assert_same_stream(stream(seed, *path), numpy_stream(seed, tuple(path)))


@given(seeds, st.lists(st.one_of(edges, entries), max_size=2), edges)
def test_block_edges_match_numpys_seed_sequence(seed, prefix, last):
    path = (*prefix, last)
    assert_same_stream(stream(seed, *path), numpy_stream(seed, path))


@given(
    st.lists(
        st.tuples(seeds, st.lists(entries, max_size=3), st.integers(0, 2**65)),
        min_size=2, max_size=3,
    ),
    st.lists(st.integers(0, 63), min_size=3, max_size=12),
)
def test_interleaved_prefixes_match_numpy(triples, offsets):
    # Streams take their (seed, prefix, block) in turn, A, B, A, ...: a cached
    # block that went stale or was shared between triples would give a
    # wrong stream.
    for i, offset in enumerate(offsets):
        seed, prefix, block = triples[i % len(triples)]
        path = (*prefix, 64 * block + offset)
        assert_same_stream(stream(seed, *path), numpy_stream(seed, path))


def test_blocks_rebuilt_after_eviction_match_numpy():
    # More (seed, prefix, block) triples than the block cache holds, taken in
    # turn three times: every block is evicted and rebuilt.
    triples = [(s, (s % 3,), s * 7) for s in range(2 * rng._BLOCK_CACHE_SIZE + 1)]
    for rounds in range(3):
        for seed, prefix, block in triples:
            path = (*prefix, 64 * block + 5 * rounds)
            assert_same_stream(stream(seed, *path), numpy_stream(seed, path))


@pytest.mark.parametrize("path", [(-1,), (-1, 2), (2, -1), (3, -2**40, 1)])
def test_negative_path_entry_is_a_value_error(path, monkeypatch):
    # Refused before a block index is formed: -1 >> 6 is a negative block.
    def no_block(*args):
        raise AssertionError(f"block looked up for {args}")

    monkeypatch.setattr(rng, "_block", no_block)
    with pytest.raises(ValueError):
        stream(1, *path)


@pytest.mark.parametrize("path", [(1.5,), (1.5, 2), (2, 1.5), (2, 1.0), ("1",)])
def test_non_integer_path_entry_is_a_type_error(path):
    # Caches the block of prefix (2, 1) under seed 1; an equal float such as
    # 1.0 must not be served from it.
    stream(1, 2, 1, 0)
    with pytest.raises(TypeError):
        stream(1, *path)
    with pytest.raises(TypeError):
        stream(1, *path, 0)


@pytest.mark.parametrize("seed", [1.5, 1.0, "3", None])
def test_non_integer_seed_is_a_type_error(seed):
    with pytest.raises(TypeError):
        stream(seed, 0)
    with pytest.raises(TypeError):
        stream(seed)


def test_run_refuses_a_non_integer_seed(reference_spec):
    with pytest.raises(TypeError):
        infoflow.run(reference_spec, 5, 1.5)
    samples = infoflow.run(reference_spec, 5, np.int64(1)).samples
    assert np.array_equal(samples, infoflow.run(reference_spec, 5, 1).samples)


def test_caches_stay_small_over_many_prefixes():
    # Each (seed, prefix, block) caches a (64, 4) uint64 block; the cache is
    # bounded, so streams over 2,000 prefixes hold 16 blocks, not 2,000
    # (about 4 MB).
    def streams(first):
        for prefix in range(first, first + 2000):
            stream(7, prefix, 3, 0)

    streams(0)  # fill the cache
    tracemalloc.start()
    try:
        streams(2000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2**20
