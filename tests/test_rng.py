"""Substreams and derived seeds against numpy's own SeedSequence, and who derives them."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gantrysched import GaParams, ProblemSpec, classical, quantum, rng
from gantrysched.rng import SEED_MAX, derive_seed, substream

SEEDS = st.integers(0, SEED_MAX - 1) | st.sampled_from([0, 2**32 - 1, 2**32, SEED_MAX - 1])
# The phase tags and their frozen values; 3, 5 and 7 are retired.
PHASES = {"INIT": 0, "EVAL": 1, "PAIRING": 2, "MUTATE_A": 4, "MUTATE_B": 6, "REPAIR": 8}
# Coordinates of one, two and three 32-bit words, zero among them.
COORDINATES = st.integers(0, 2**96 - 1) | st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64])


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, generation=COORDINATES, phase=COORDINATES, index=COORDINATES)
def test_substream_is_numpys_spawned_sequence(seed, generation, phase, index):
    key = np.random.SeedSequence(entropy=seed, spawn_key=(generation, phase, index))
    want = np.random.default_rng(key)
    got = substream(seed, generation, phase, index)
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.random(8), want.random(8))


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


def test_negative_coordinate_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        substream(0, 0, -1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(0, -2)


def test_phase_tags_are_frozen():
    tags = {name: value for name, value in vars(rng).items() if name.startswith("PHASE_")}
    assert tags == {f"PHASE_{name}": value for name, value in PHASES.items()}


@pytest.mark.parametrize(
    "runner, step_phases",
    [
        (classical.run_classical, ("PAIRING", "MUTATE_A", "MUTATE_B", "REPAIR")),
        (quantum.run_quantum, ("PAIRING", "MUTATE_A", "REPAIR")),
    ],
)
def test_the_loop_derives_each_step_generator_once(monkeypatch, runner, step_phases):
    """Only the generation loop derives generators: one per (generation, phase), at index 0.

    The initial population and every generation's evaluation own one each,
    and each later step of a generation one; none is derived twice.
    """
    coordinates = []

    def counting(seed, *coordinate):
        coordinates.append(coordinate)
        return substream(seed, *coordinate)

    monkeypatch.setattr(classical, "substream", counting)
    params = GaParams(r_s=0.83, r_c=0.5, r_m=0.5, r_r=0.85, n_ini=6, n_max=12, g_max=3, seed=9)
    runner(ProblemSpec(n_g=2, n_p=3, n_t=30), params)
    assert len(set(coordinates)) == len(coordinates)
    want = {(0, PHASES["INIT"], 0)} | {(g, PHASES["EVAL"], 0) for g in range(params.g_max + 1)}
    want |= {(g, PHASES[phase], 0) for g in range(params.g_max) for phase in step_phases}
    assert set(coordinates) == want
    assert not hasattr(quantum, "substream")  # so no step of it can derive another
