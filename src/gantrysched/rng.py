"""Deterministic substream construction for reproducible runs.

Every randomized population step (one phase of one generation, the initial
population included) owns one generator derived by mixing the run seed with
the coordinates (generation, phase, 0).  The generation loop derives it and
hands it to the step, whose picks and members draw from it one after another.
A step's draws therefore depend only on its coordinates and on the members
it is handed, never on the draws of other steps, and a run is
bit-reproducible for a given seed.

The generator of a unit is ``default_rng(SeedSequence(entropy=seed,
spawn_key=(generation, phase, index)))``.
"""

from __future__ import annotations

import numpy as np

SEED_MAX = 2**64

# Phase tags for substream derivation.  The values are arbitrary but frozen:
# changing any of them changes every seeded run.  3, 5 and 7, once pick phases, stay unused.
PHASE_INIT = 0
PHASE_EVAL = 1
PHASE_PAIRING = 2
PHASE_MUTATE_A = 4
PHASE_MUTATE_B = 6
PHASE_REPAIR = 8


def _seed_sequence(seed: int, *coordinates: int) -> np.random.SeedSequence:
    """``SeedSequence(entropy=seed, spawn_key=coordinates)``, its inputs range-checked."""
    if not 0 <= seed < SEED_MAX:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if min(coordinates) < 0:
        raise ValueError("seed coordinates must be non-negative")
    return np.random.SeedSequence(seed, spawn_key=coordinates)


def substream(seed: int, generation: int, phase: int, index: int) -> np.random.Generator:
    """Return the generator owned by one (generation, phase, index) unit of work."""
    return np.random.default_rng(_seed_sequence(seed, generation, phase, index))


def derive_seed(master_seed: int, index: int) -> int:
    """Mix a master seed with an index into a fresh 64-bit seed."""
    return int(_seed_sequence(master_seed, index).generate_state(1, np.uint64)[0])
