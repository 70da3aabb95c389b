import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from infoflow.rng import stream

ALPHA = np.array([1.0, 2.5, 31.0, 1e9])
seeds = st.integers(-2**70, 2**70)
entries = st.integers(0, 2**70 - 1)


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
])
def test_stream_is_default_rng_of_its_seed_sequence(seed, path):
    want = np.random.default_rng(np.random.SeedSequence(seed & 2**64 - 1, spawn_key=path))
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


@given(
    st.lists(st.tuples(seeds, st.lists(entries, max_size=3)), min_size=2, max_size=3),
    st.lists(entries, min_size=2, max_size=12),
)
def test_interleaved_prefixes_match_numpy(prefixes, lasts):
    # Paths take their (seed, prefix) in turn, A, B, A, ...: a cached prefix
    # that went stale or was shared between prefixes would give a wrong stream.
    for i, last in enumerate(lasts):
        seed, prefix = prefixes[i % len(prefixes)]
        path = (*prefix, last)
        assert_same_stream(stream(seed, *path), numpy_stream(seed, path))


@pytest.mark.parametrize("path", [(-1,), (-1, 2), (2, -1), (3, -2**40, 1)])
def test_negative_path_entry_is_a_value_error(path):
    with pytest.raises(ValueError):
        stream(1, *path)


@pytest.mark.parametrize("path", [(1.5,), (1.5, 2), (2, 1.5), (2, 1.0), ("1",)])
def test_non_integer_path_entry_is_a_type_error(path):
    # Caches the prefixes (2,) and (2, 1); an equal float such as 1.0 must
    # not be served from them.
    stream(1, 2, 1, 0)
    with pytest.raises(TypeError):
        stream(1, *path)
    with pytest.raises(TypeError):
        stream(1, *path, 0)
