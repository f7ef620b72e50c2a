"""Deterministic substream construction for reproducible runs.

Every randomized unit of work (one chromosome in one phase of one
generation) owns a private generator derived by mixing the run seed with
the coordinates (generation, phase, index).  A unit's draws therefore
depend only on its coordinates, never on how many draws other units made,
and a run is bit-reproducible for a given seed.
"""

from __future__ import annotations

import numpy as np

SEED_MAX = 2**64

# Phase tags for substream derivation.  The values are arbitrary but frozen:
# changing any of them changes every seeded run.
PHASE_INIT = 0
PHASE_EVAL = 1
PHASE_PAIRING = 2
PHASE_MUTATE_PICK_A = 3
PHASE_MUTATE_A = 4
PHASE_MUTATE_PICK_B = 5
PHASE_MUTATE_B = 6
PHASE_REPAIR_PICK = 7
PHASE_REPAIR = 8


def substream(seed: int, generation: int, phase: int, index: int) -> np.random.Generator:
    """Return the generator owned by one (generation, phase, index) unit of work."""
    if not 0 <= seed < SEED_MAX:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if generation < 0 or phase < 0 or index < 0:
        raise ValueError("substream coordinates must be non-negative")
    key = np.random.SeedSequence(entropy=seed, spawn_key=(generation, phase, index))
    return np.random.default_rng(key)


def derive_seed(master_seed: int, index: int) -> int:
    """Mix a master seed with an index into a fresh 64-bit seed."""
    if not 0 <= master_seed < SEED_MAX:
        raise ValueError(f"seed must be in [0, 2**64), got {master_seed}")
    key = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(key.generate_state(1, np.uint64)[0])
