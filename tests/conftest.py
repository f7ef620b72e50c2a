"""Shared fixtures and hand-built schedule helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gantrysched import (
    N_STATUSES,
    VACANT,
    Chromosome,
    GantryStatus,
    ProblemSpec,
    QuantumChromosome,
)

# Small problems, including tracks too short for one treatment (n_t < 26)
# and fewer patients than gantries.
SMALL_SPECS = st.builds(
    ProblemSpec, n_g=st.integers(1, 4), n_p=st.integers(1, 5), n_t=st.integers(1, 60)
)


@st.composite
def chromosomes(draw, spec: ProblemSpec) -> Chromosome:
    shape = (spec.n_g, spec.n_t)
    statuses = draw(arrays(np.int8, shape, elements=st.integers(0, N_STATUSES - 1)))
    patients = draw(arrays(np.int32, shape, elements=st.integers(0, spec.n_p - 1)))
    return Chromosome(statuses, np.where(statuses == GantryStatus.IDLE, VACANT, patients))

# One complete treatment, slot by slot: ready through the last disposal minute.
CYCLE_SLOTS = [1] + [2] * 3 + [3] * 15 + [4] + [5] + [6] + [7] * 4


def idle_rows(n_t: int) -> tuple[list[int], list[int]]:
    return [0] * n_t, [-1] * n_t


def rows_with_cycle(n_t: int, patient: int, start: int) -> tuple[list[int], list[int]]:
    """One track holding a single complete treatment, idle elsewhere."""
    statuses, patients = idle_rows(n_t)
    statuses[start : start + len(CYCLE_SLOTS)] = CYCLE_SLOTS
    patients[start : start + len(CYCLE_SLOTS)] = [patient] * len(CYCLE_SLOTS)
    return statuses, patients


def perfect_chromosome(n_g: int = 1, n_t: int = 28, start: int = 1, patients=None) -> Chromosome:
    """Every track holds one complete treatment framed by idle slots."""
    if patients is None:
        patients = list(range(n_g))
    rows = [rows_with_cycle(n_t, patients[g], start) for g in range(n_g)]
    return Chromosome([r[0] for r in rows], [r[1] for r in rows])


def quantum_from_schedule(schedule: Chromosome, n_p: int) -> QuantumChromosome:
    """Encode a classical schedule as basis states (id 0 where idle)."""
    n_g, n_t = schedule.n_g, schedule.n_t
    ids = np.zeros((n_g, n_t, n_p))
    statuses = np.zeros((n_g, n_t, N_STATUSES))
    pat = np.where(schedule.patients == VACANT, 0, schedule.patients)
    np.put_along_axis(ids, pat[..., None], 1.0, axis=-1)
    np.put_along_axis(statuses, schedule.statuses[..., None].astype(int), 1.0, axis=-1)
    return QuantumChromosome(ids, statuses)


@st.composite
def quantum_chromosomes(draw, spec: ProblemSpec) -> QuantumChromosome:
    """Random unit amplitudes, or the basis encoding of a random schedule."""
    if draw(st.booleans()):
        return quantum_from_schedule(draw(chromosomes(spec)), spec.n_p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = []
    for size in (spec.n_p, N_STATUSES):
        v = rng.normal(size=(spec.n_g, spec.n_t, size))
        grids.append(v / np.sqrt(np.sum(v * v, axis=-1, keepdims=True)))
    return QuantumChromosome(*grids)


@pytest.fixture
def small_spec() -> ProblemSpec:
    return ProblemSpec(n_g=2, n_p=3, n_t=20)


@pytest.fixture
def medium_spec() -> ProblemSpec:
    return ProblemSpec(n_g=3, n_p=12, n_t=108)

