"""Deterministic substream construction for reproducible runs.

Every randomized unit of work (one chromosome in one phase of one
generation) owns a private generator derived by mixing the run seed with
the coordinates (generation, phase, index).  A unit's draws therefore
depend only on its coordinates, never on how many draws other units made,
and a run is bit-reproducible for a given seed.

The generator of a unit is ``default_rng(SeedSequence(entropy=seed,
spawn_key=(generation, phase, index)))``.  :func:`substream` builds it
through numpy for one unit; :func:`substreams` derives the same generators
for all units of one step in one numpy pass over the seed-sequence hash
(O'Neill's ``seed_seq`` from *PCG*, 2014, as numpy adopts it in NEP 19).
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

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

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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


@functools.cache
def _constants(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for k in [first, first + count), as read-only uint32."""
    out = np.array(
        [init * pow(mult, k, 2**32) & _WORD for k in range(first, first + count)], dtype=np.uint32
    )
    out.setflags(write=False)
    return out


def _shift_xor(values: np.ndarray) -> np.ndarray:
    values ^= values >> 16
    return values


def substreams(
    seed: int, generation: int, phase: int, indices: Iterable[int]
) -> Iterator[np.random.Generator]:
    """The generators :func:`substream` returns for (generation, phase, i), i in ``indices``.

    The shared words go through numpy's SeedSequence once; each index is one
    32-bit word, hashed last into the pool, so the index words and the state
    words of all units are mixed as arrays.  The arguments are checked at
    once, and each generator is built when it is taken.
    """
    indices = list(indices)
    if indices and not 0 <= min(indices) <= max(indices) <= _WORD:
        raise ValueError("substream indices must lie in [0, 2**32)")
    prefix = _seed_sequence(seed, generation, phase)
    # hashmix calls made before the index word: the first four words, the
    # pool's cross-mixing, then four per further prefix word
    k = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * (prefix.entropy.size - _POOL_SIZE)
    hash_a = _constants(_INIT_A, _MULT_A, k, _POOL_SIZE + 1)
    mixed = np.array(indices, dtype=np.uint32)[:, None] ^ hash_a[:-1]
    mixed = _shift_xor(_MIX_MULT_L * prefix.pool - _MIX_MULT_R * _shift_xor(mixed * hash_a[1:]))
    # generate_state(4, uint64) hashes the pool's words in turn into eight words
    hash_b = _constants(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE + 1)
    state = _shift_xor((np.concatenate((mixed, mixed), axis=1) ^ hash_b[:-1]) * hash_b[1:])
    state = state.astype("<u4").view("<u8").astype(np.uint64)
    sequence = _state_sequence()
    return (np.random.Generator(np.random.PCG64(sequence(row))) for row in state)


@functools.cache
def _state_sequence() -> type:
    """An ``ISeedSequence`` handing a bit generator one precomputed uint64 state.

    Built on first use, so that importing the package does not import
    ``numpy.random``.
    """

    class StateSequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if np.dtype(dtype) != np.uint64 or n_words > self.state.size:
                raise ValueError(f"holds only {self.state.size} 64-bit state words")
            return self.state[:n_words]

    return StateSequence


def derive_seed(master_seed: int, index: int) -> int:
    """Mix a master seed with an index into a fresh 64-bit seed."""
    return int(_seed_sequence(master_seed, index).generate_state(1, np.uint64)[0])
