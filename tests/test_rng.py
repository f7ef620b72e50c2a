"""Substreams and derived seeds against numpy's own SeedSequence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gantrysched.rng import SEED_MAX, derive_seed, substream, substreams

SEEDS = st.integers(0, SEED_MAX - 1) | st.sampled_from([0, 2**32 - 1, 2**32, SEED_MAX - 1])
# Coordinates of one, two and three 32-bit words, zero among them.
COORDINATES = st.integers(0, 2**96 - 1) | st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64])
# Indices are single 32-bit words; lists may repeat them and come in any order.
INDICES = st.lists(st.integers(0, 2**32 - 1) | st.sampled_from([0, 1, 2**32 - 1]), max_size=8)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, generation=COORDINATES, phase=COORDINATES, index=COORDINATES)
def test_substream_is_numpys_spawned_sequence(seed, generation, phase, index):
    key = np.random.SeedSequence(entropy=seed, spawn_key=(generation, phase, index))
    want = np.random.default_rng(key)
    got = substream(seed, generation, phase, index)
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.random(8), want.random(8))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, generation=COORDINATES, phase=COORDINATES, indices=INDICES)
def test_substreams_are_numpys_spawned_sequences(seed, generation, phase, indices):
    got = list(substreams(seed, generation, phase, indices))
    assert len(got) == len(indices)
    for index, rng in zip(indices, got):
        key = np.random.SeedSequence(entropy=seed, spawn_key=(generation, phase, index))
        want = np.random.default_rng(key)
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(rng.random(8), want.random(8))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, index=COORDINATES)
def test_derived_seed_is_numpys_spawned_state(seed, index):
    key = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    assert derive_seed(seed, index) == int(key.generate_state(1, np.uint64)[0])


@pytest.mark.parametrize("seed", [-1, SEED_MAX])
def test_seed_outside_64_bits_is_rejected(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        substream(seed, 0, 0, 0)
    with pytest.raises(ValueError, match="seed must be in"):
        derive_seed(seed, 0)
    with pytest.raises(ValueError, match="seed must be in"):
        list(substreams(seed, 0, 0, [0]))


def test_negative_coordinate_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        substream(0, 0, -1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(0, -2)
    with pytest.raises(ValueError, match="non-negative"):
        list(substreams(0, -1, 0, [0]))


@pytest.mark.parametrize("index", [-1, 2**32])
def test_index_outside_one_word_is_rejected(index):
    with pytest.raises(ValueError, match="indices must lie in"):
        list(substreams(0, 0, 0, [0, index]))
