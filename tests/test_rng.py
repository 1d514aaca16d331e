import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplerec.rng import seed_words, uniform_block

# numpy.random is the oracle: samplerec.rng must give its bits exactly.
KEYS = [0, 1, (1 << 64) - 1, 1 << 64, (1 << 128) - 1]
# counts 1, 3, 15, 12288 and 16384: partial and whole blocks of four words
SHAPES = [(1, 1), (1, 3), (5, 3), (4096, 3), (4096, 4)]


def numpy_uniforms(key, shape):
    return np.random.Generator(np.random.Philox(key=key)).random(shape)


def numpy_seed_words(entropy, count):
    return [int(w) for w in np.random.SeedSequence(entropy).generate_state(count, np.uint64)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("key", KEYS)
def test_uniform_block_is_numpys_philox_stream(key, shape):
    u = uniform_block(key, shape)
    assert u.shape == shape and u.dtype == np.float64
    assert u.tobytes() == numpy_uniforms(key, shape).tobytes()


@given(key=st.integers(0, (1 << 128) - 1), shape=st.sampled_from(SHAPES))
@settings(max_examples=60)
def test_uniform_block_matches_numpy_on_any_key(key, shape):
    assert uniform_block(key, shape).tobytes() == numpy_uniforms(key, shape).tobytes()


ENTRIES = [0, (1 << 32) - 1, 1 << 32, 1 << 64, 1 << 70]


@pytest.mark.parametrize("length", range(1, 9))
def test_seed_words_are_numpys_seed_sequence(length):
    # entries of one to three 32-bit words, so the assembled entropy runs
    # from 1 to 24 words, below, at and past the pool of four
    lists = [[entry] * length for entry in ENTRIES]
    lists += [[ENTRIES[(start + i) % len(ENTRIES)] for i in range(length)] for start in range(len(ENTRIES))]
    for entropy in lists:
        for count in (1, 2, 5):
            assert seed_words(entropy, count) == numpy_seed_words(entropy, count), entropy


@given(st.lists(st.integers(0, (1 << 100) - 1), min_size=1, max_size=8), st.integers(1, 6))
@settings(max_examples=60)
def test_seed_words_match_numpy_on_any_entropy(entropy, count):
    assert seed_words(entropy, count) == numpy_seed_words(entropy, count)


def test_bad_keys_and_entropy_are_refused_as_numpy_refuses_them():
    for key in (-1, 1 << 128):
        for draw in (uniform_block, numpy_uniforms):
            with pytest.raises(ValueError, match="less than 2"):
                draw(key, (1, 1))
    for entropy in ([-1], [5, -1]):
        for words in (seed_words, numpy_seed_words):
            with pytest.raises(ValueError, match="non-negative"):
                words(entropy, 2)
