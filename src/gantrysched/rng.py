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
_WORD = 2**32 - 1

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


def _seed_sequence(seed: int, *coordinates: int) -> np.random.SeedSequence:
    """``SeedSequence(entropy=seed, spawn_key=coordinates)`` without its per-int coercion.

    Given a spawn key, numpy mixes the seed's 32-bit words (least significant
    first, zero-padded to four), then each coordinate's words (one for zero).
    """
    if not 0 <= seed < SEED_MAX:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if min(coordinates) < 0:
        raise ValueError("seed coordinates must be non-negative")
    words = [seed & _WORD, seed >> 32, 0, 0]
    for value in coordinates:
        words.append(value & _WORD)
        while value > _WORD:
            value >>= 32
            words.append(value & _WORD)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def substream(seed: int, generation: int, phase: int, index: int) -> np.random.Generator:
    """Return the generator owned by one (generation, phase, index) unit of work."""
    return np.random.default_rng(_seed_sequence(seed, generation, phase, index))


def derive_seed(master_seed: int, index: int) -> int:
    """Mix a master seed with an index into a fresh 64-bit seed."""
    return int(_seed_sequence(master_seed, index).generate_state(1, np.uint64)[0])
