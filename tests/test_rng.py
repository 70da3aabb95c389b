import numpy as np
import pytest

from infoflow.rng import stream


@pytest.mark.parametrize("seed, path", [
    (0, ()),
    (101, (7,)),
    (2020, (3, 41, 59)),
    (-5, (0, 1)),  # negative seeds wrap to their unsigned 64-bit value
    (2**64 + 9, (2,)),
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
