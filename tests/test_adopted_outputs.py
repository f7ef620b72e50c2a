"""Operator outputs pass the public constructor checks they skip.

The operators build their outputs valid and wrap them without re-checking.
These properties run every such output back through the public
constructors, on small problems and on random and basis-state inputs.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gantrysched import (
    Chromosome,
    QuantumChromosome,
    mutate_patient_ids,
    mutate_statuses,
    observe,
    q_mutate,
    q_repair,
    random_chromosome,
    repair_chromosome,
    single_point_crossover,
    uniform_quantum_chromosome,
)
from gantrysched.rng import substream

from conftest import SMALL_SPECS, chromosomes, quantum_chromosomes

SEEDS = st.integers(0, 2**32 - 1)


def assert_read_only(*grids: np.ndarray) -> None:
    for grid in grids:
        with pytest.raises(ValueError, match="read-only"):
            grid[(0,) * grid.ndim] = 0


def assert_valid_schedule(chrom: Chromosome, spec) -> None:
    assert chrom.statuses.dtype == np.int8 and chrom.patients.dtype == np.int32
    assert chrom.statuses.shape == (spec.n_g, spec.n_t)
    assert Chromosome(chrom.statuses, chrom.patients, n_p=spec.n_p) == chrom
    assert_read_only(chrom.statuses, chrom.patients)


def assert_valid_quantum(qchrom: QuantumChromosome, spec) -> None:
    assert qchrom.id_amps.dtype == np.float64 and qchrom.status_amps.dtype == np.float64
    assert qchrom.id_amps.shape[:2] == (spec.n_g, spec.n_t) and qchrom.n_p == spec.n_p
    assert QuantumChromosome(qchrom.id_amps, qchrom.status_amps) == qchrom
    assert_read_only(qchrom.id_amps, qchrom.status_amps)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), spec=SMALL_SPECS, seed=SEEDS)
def test_classical_operator_outputs_pass_public_checks(data, spec, seed):
    rng = substream(seed, 0, 0, 0)
    fresh = random_chromosome(spec, rng)
    assert_valid_schedule(fresh, spec)
    a, b = data.draw(chromosomes(spec)), data.draw(chromosomes(spec))
    outputs = [mutate_patient_ids(a, spec, rng), mutate_statuses(a, spec, rng)]
    outputs.append(repair_chromosome(a, spec))
    if spec.n_cells >= 2:
        point = data.draw(st.integers(1, spec.n_cells - 1))
        outputs.extend(single_point_crossover(a, b, point))
    for chrom in outputs:
        assert_valid_schedule(chrom, spec)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), spec=SMALL_SPECS, seed=SEEDS)
def test_quantum_operator_outputs_pass_public_checks(data, spec, seed):
    rng = substream(seed, 0, 0, 0)
    uniform = uniform_quantum_chromosome(spec)
    assert_valid_quantum(uniform, spec)
    a, b = data.draw(quantum_chromosomes(spec)), data.draw(quantum_chromosomes(spec))
    assert_valid_schedule(observe(a, rng), spec)
    outputs = [q_mutate(a, rng), q_repair(a, spec, rng), q_repair(uniform, spec, rng)]
    if spec.n_cells >= 2:
        point = data.draw(st.integers(1, spec.n_cells - 1))
        outputs.extend(single_point_crossover(a, b, point))
    for qchrom in outputs:
        assert_valid_quantum(qchrom, spec)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), spec=SMALL_SPECS, seed=SEEDS)
def test_quantum_outputs_carry_read_only_cumulative_grids(data, spec, seed):
    """Every quantum value carries the cumulative squares of its amplitudes."""
    rng = substream(seed, 0, 0, 0)
    uniform = uniform_quantum_chromosome(spec)
    a, b = data.draw(quantum_chromosomes(spec)), data.draw(quantum_chromosomes(spec))
    repaired = q_repair(a, spec, rng)
    outputs = [uniform, q_mutate(a, rng), repaired, q_repair(repaired, spec, rng)]
    outputs.append(q_repair(q_mutate(repaired, rng), spec, rng))
    if spec.n_cells >= 2:
        point = data.draw(st.integers(1, spec.n_cells - 1))
        outputs.extend(single_point_crossover(repaired, b, point))
    for value in list(outputs):
        outputs += [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
    for qchrom in outputs:
        for amps, cum in ((qchrom.id_amps, qchrom.id_cum), (qchrom.status_amps, qchrom.status_cum)):
            assert cum.tobytes() == (amps * amps).cumsum(axis=-1).tobytes()
        assert_read_only(qchrom.id_cum, qchrom.status_cum)


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
@settings(max_examples=20, deadline=None)
@given(data=st.data(), spec=SMALL_SPECS)
def test_copies_and_pickles_are_equal_read_only_values(duplicate, data, spec):
    for value in (data.draw(chromosomes(spec)), data.draw(quantum_chromosomes(spec))):
        twin = duplicate(value)
        assert type(twin) is type(value) and twin == value
        assert_read_only(*twin.grids)
