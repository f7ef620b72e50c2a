"""Quantum-inspired algorithm tests: sampling, amplification, and the loop."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gantrysched import (
    Chromosome,
    ConfigError,
    GaParams,
    ProblemSpec,
    QuantumChromosome,
    evaluate_breakdown,
    mutate_patient_ids,
    mutate_statuses,
    observe,
    q_mutate,
    q_repair,
    qubit_estimate,
    random_chromosome,
    repair_chromosome,
    run_quantum,
    single_point_crossover,
    uniform_quantum_chromosome,
)
from gantrysched import quantum
from gantrysched.classical import (
    _mutate_patient_rows,
    _mutate_status_rows,
    _repair_layout,
    _repair_patients,
    _repair_schedule_rows,
)
from gantrysched.quantum import _amplify_grid, _collapse, _repair_rows, memory_estimate
from gantrysched.rng import substream

from brute_amplify import brute_amplify
from brute_sample import brute_sample
from conftest import (
    SMALL_SPECS,
    chromosomes,
    quantum_chromosomes,
    quantum_from_schedule,
    sample_indices,
)

CAP = math.sqrt(0.99)

PARAMS = GaParams(
    r_s=0.83, r_c=0.27, r_m=0.37, r_r=0.85, n_ini=10, n_max=50, g_max=10, seed=0
)


def random_amplitudes(rng, shape) -> np.ndarray:
    v = rng.normal(size=shape)
    return v / np.sqrt(np.sum(v * v, axis=-1, keepdims=True))


@st.composite
def unit_grids(draw, shape) -> np.ndarray:
    """Unit vectors along the last axis, with exact zeros among the entries."""
    entries = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    v = draw(arrays(np.float64, shape, elements=entries))
    vanishing = np.sum(v * v, axis=-1) < 1e-300
    v[vanishing] = 0.0
    v[vanishing, 0] = 1.0
    return v / np.sqrt(np.sum(v * v, axis=-1, keepdims=True))


def unit_drift(grid: np.ndarray) -> float:
    return float(np.max(np.abs(np.sum(grid * grid, axis=-1) - 1.0)))


class TestQuantumChromosome:
    def test_uniform_construction(self):
        spec = ProblemSpec(n_g=2, n_p=5, n_t=4)
        q = uniform_quantum_chromosome(spec)
        assert q.id_amps.shape == (2, 4, 5)
        assert q.status_amps.shape == (2, 4, 8)
        assert np.allclose(q.id_amps, 1 / math.sqrt(5))
        assert np.allclose(q.status_amps, 1 / math.sqrt(8))

    def test_rejects_non_unit_vectors(self):
        ids = np.full((1, 1, 4), 0.5)
        bad_status = np.full((1, 1, 8), 0.5)  # norm 2, not 1
        with pytest.raises(ValueError):
            QuantumChromosome(ids, bad_status)

    def test_rejects_wrong_status_dimension(self):
        ids = np.full((1, 1, 4), 0.5)
        status = np.zeros((1, 1, 7))
        status[..., 0] = 1.0
        with pytest.raises(ValueError):
            QuantumChromosome(ids, status)

    def test_rejects_nan_amplitudes(self):
        ids = np.full((1, 2, 4), 0.5)
        ids[0, 1] = np.nan  # observe would draw patient 0 for this cell
        status = np.full((1, 2, 8), math.sqrt(1 / 8))
        with pytest.raises(ValueError, match="unit norm"):
            QuantumChromosome(ids, status)

    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError, match="at least one gantry"):
            QuantumChromosome(np.zeros((1, 0, 4)), np.zeros((1, 0, 8)))

    def test_rejects_grids_that_are_not_3d(self):
        with pytest.raises(ValueError, match="must be 3-d arrays"):
            QuantumChromosome(np.full((1, 4), 0.5), np.full((1, 8), math.sqrt(1 / 8)))

    def test_rejects_registers_over_different_cells(self):
        ids = np.full((1, 2, 4), 0.5)
        status = np.full((1, 1, 8), math.sqrt(1 / 8))
        with pytest.raises(ValueError, match="must cover the same cells"):
            QuantumChromosome(ids, status)

    def test_repr_names_the_sizes(self):
        q = uniform_quantum_chromosome(ProblemSpec(n_g=2, n_p=5, n_t=4))
        assert repr(q) == "QuantumChromosome(n_g=2, n_t=4, n_p=5)"

    def test_arrays_are_read_only(self):
        q = uniform_quantum_chromosome(ProblemSpec(n_g=1, n_p=4, n_t=2))
        with pytest.raises(ValueError):
            q.id_amps[0, 0, 0] = 1.0

    def test_equality_is_by_value(self):
        spec = ProblemSpec(n_g=1, n_p=4, n_t=2)
        assert uniform_quantum_chromosome(spec) == uniform_quantum_chromosome(spec)
        with pytest.raises(TypeError):
            hash(uniform_quantum_chromosome(spec))


class TestSampleIndex:
    def test_inverse_transform_boundaries(self):
        v = np.array([0.5, math.sqrt(0.75)])  # squared: 0.25, 0.75
        assert sample_indices(v, 0.0) == 0
        assert sample_indices(v, 0.25) == 0
        assert sample_indices(v, 0.2500001) == 1
        assert sample_indices(v, 1.0) == 1

    def test_zero_amplitudes_are_never_drawn(self):
        v = np.array([0.0, 1.0, 0.0])
        assert sample_indices(v, 0.0) == 1
        for u in (0.1, 0.5, 0.9999, 1.0):
            assert sample_indices(v, u) == 1
        # u * total underflows to 0 here, a threshold that index 0 would meet too
        assert 1e-10 * (1e-160 * 1e-160) == 0.0
        assert sample_indices([0.0, 1e-160, 0.0], 1e-10) == 1

    def test_array_path_matches_scalar_path(self):
        rng = substream(70, 0, 0, 0)
        for _ in range(20):
            v = random_amplitudes(rng, 12)
            us = rng.random(50)
            got = sample_indices(v, us)
            assert got.tolist() == [sample_indices(v, float(u)) for u in us]
        grid = random_amplitudes(rng, (3, 4, 12))
        us = rng.random((3, 4))
        us[0, 0] = 0.0
        want = [[sample_indices(grid[g, t], float(us[g, t])) for t in range(4)] for g in range(3)]
        assert sample_indices(grid, us).tolist() == want

    def test_draw_of_one_picks_the_last_nonzero_amplitude(self):
        assert sample_indices(np.array([0.6, 0.8, 0.0]), 1.0) == 1
        assert sample_indices(np.array([0.0, 0.6, 0.0, -0.8, 0.0]), 1.0) == 3

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 9)),
    )
    def test_matches_per_element_reference(self, data, shape):
        """Every cell's index equals the scalar reference's, exact zeros and edge draws included."""
        amps = st.sampled_from([0.0, 1e-160, -1e-300]) | st.floats(-1.0, 1.0)
        grid = data.draw(arrays(np.float64, shape, elements=amps))
        grid[..., -1][(grid * grid).sum(axis=-1) == 0.0] = 1.0  # every vector needs mass
        draws = st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1e-10]) | st.floats(0.0, 1.0)
        us = data.draw(arrays(np.float64, shape[:2], elements=draws))
        got = sample_indices(grid, us)
        for g, t in np.ndindex(*shape[:2]):
            assert got[g, t] == brute_sample(grid[g, t].tolist(), us[g, t])

    def test_respects_probabilities(self):
        """Draw frequencies track squared amplitudes."""
        v = np.array([math.sqrt(0.7), 0.0, -math.sqrt(0.3)])
        rng = substream(71, 0, 0, 0)
        draws = sample_indices(v, rng.random(20000))
        freq = np.bincount(draws, minlength=3) / 20000
        assert freq[1] == 0.0
        assert abs(freq[0] - 0.7) < 0.02
        assert abs(freq[2] - 0.3) < 0.02


class TestObserve:
    def test_basis_encoding_round_trips(self, small_spec):
        rng = substream(72, 0, 0, 0)
        for _ in range(20):
            schedule = random_chromosome(small_spec, rng)
            q = quantum_from_schedule(schedule, small_spec.n_p)
            assert observe(q, substream(72, 1, 1, 0)) == schedule

    def test_observation_is_non_demolition(self):
        spec = ProblemSpec(n_g=2, n_p=4, n_t=6)
        q = uniform_quantum_chromosome(spec)
        ids_before = q.id_amps.copy()
        status_before = q.status_amps.copy()
        for k in range(5):
            observe(q, substream(73, k, 1, 0))
        assert np.array_equal(q.id_amps, ids_before)
        assert np.array_equal(q.status_amps, status_before)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_g=st.integers(1, 3), n_t=st.integers(1, 6), n_p=st.integers(1, 5))
    def test_never_picks_a_zero_amplitude(self, data, n_g, n_t, n_p):
        q = QuantumChromosome(
            data.draw(unit_grids((n_g, n_t, n_p))), data.draw(unit_grids((n_g, n_t, 8)))
        )
        shadow = observe(q, substream(data.draw(st.integers(0, 2**32)), 0, 1, 0))
        cells = np.indices((n_g, n_t))
        assert np.all(q.status_amps[(*cells, shadow.statuses)] != 0)
        busy = shadow.statuses != 0
        assert np.all(q.id_amps[(*cells, shadow.patients)][busy] != 0)

    def test_idle_cells_come_back_vacant(self):
        spec = ProblemSpec(n_g=2, n_p=4, n_t=10)
        q = uniform_quantum_chromosome(spec)
        for k in range(10):
            shadow = observe(q, substream(74, k, 1, 0))
            idle = shadow.statuses == 0
            assert np.all(shadow.patients[idle] == -1)
            assert np.all(shadow.patients[~idle] >= 0)


class TestQuantumCrossover:
    def test_swaps_amplitude_tails(self):
        spec = ProblemSpec(n_g=2, n_p=3, n_t=2)
        a = uniform_quantum_chromosome(spec)
        rng = substream(75, 0, 0, 0)
        b_ids = random_amplitudes(rng, (2, 2, 3))
        b_status = random_amplitudes(rng, (2, 2, 8))
        b = QuantumChromosome(b_ids, b_status)
        c1, c2 = single_point_crossover(a, b, point=3)
        flat_a = a.id_amps.reshape(4, 3)
        flat_b = b.id_amps.reshape(4, 3)
        flat_c1 = c1.id_amps.reshape(4, 3)
        assert np.array_equal(flat_c1[:3], flat_a[:3])
        assert np.array_equal(flat_c1[3:], flat_b[3:])
        assert np.array_equal(c2.status_amps.reshape(4, 8)[:3], b.status_amps.reshape(4, 8)[:3])

    def test_point_bounds(self):
        spec = ProblemSpec(n_g=1, n_p=2, n_t=3)
        q = uniform_quantum_chromosome(spec)
        with pytest.raises(ValueError):
            single_point_crossover(q, q, point=0)
        with pytest.raises(ValueError):
            single_point_crossover(q, q, point=3)


class TestQMutate:
    def test_collapses_one_cell_in_both_registers(self):
        spec = ProblemSpec(n_g=2, n_p=4, n_t=5)
        q = uniform_quantum_chromosome(spec)
        mutated = q_mutate(q, substream(76, 0, 4, 0))
        id_diff = np.argwhere(np.any(mutated.id_amps != q.id_amps, axis=-1))
        status_diff = np.argwhere(np.any(mutated.status_amps != q.status_amps, axis=-1))
        assert id_diff.tolist() == status_diff.tolist()
        assert len(id_diff) == 1
        g, t = id_diff[0]
        assert sorted(mutated.id_amps[g, t].tolist()) == [0.0, 0.0, 0.0, 1.0]
        assert np.count_nonzero(mutated.status_amps[g, t]) == 1


def amplify_one(v, target: int) -> np.ndarray:
    """Amplify one vector toward one target through the grid kernel."""
    return _amplify_grid(np.asarray(v, dtype=np.float64), np.asarray(target), np.asarray(True))[0]


class TestAmplify:
    def test_uniform_vector_hits_the_cap(self):
        v = np.full(12, 1 / math.sqrt(12))
        out = amplify_one(v, target=3)
        assert out[3] == CAP
        others = np.delete(out, 3)
        assert np.allclose(others, math.sqrt(0.01 / 11))
        assert abs(np.sum(out * out) - 1.0) < 1e-12

    def test_zero_target_jumps_to_floor(self):
        v = np.zeros(4)
        v[0] = 1.0
        out = amplify_one(v, target=2)
        assert out[2] == 0.5
        assert out[0] == pytest.approx(math.sqrt(0.75))
        assert abs(np.sum(out * out) - 1.0) < 1e-12

    def test_midrange_target_scales_tenfold(self):
        v = np.zeros(3)
        v[0] = 0.06
        v[1] = math.sqrt(1 - 0.06**2)
        out = amplify_one(v, target=0)
        assert out[0] == pytest.approx(0.6)
        assert abs(np.sum(out * out) - 1.0) < 1e-12

    def test_capped_target_leaves_vector_alone(self):
        v = np.zeros(5)
        v[4] = 1.0
        out = amplify_one(v, target=4)
        assert np.array_equal(out, v)

    def test_signs_are_preserved(self):
        rng = substream(77, 0, 0, 0)
        for _ in range(50):
            v = random_amplitudes(rng, 8)
            target = int(rng.integers(0, 8))
            out = amplify_one(v, target)
            moved = np.sign(out) != np.sign(v)
            assert not np.any(moved & (v != 0) & (out != 0))
            assert abs(np.sum(out * out) - 1.0) < 1e-12

    def test_residual_shared_when_others_vanish(self):
        out = amplify_one(np.array([0.3, 0.0, 0.0]), target=0)
        assert out[0] == CAP
        assert np.allclose(out[1:], math.sqrt(0.005))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), size=st.integers(2, 12))
    def test_keeps_unit_norm(self, data, size):
        v = data.draw(unit_grids((size,)))
        out = amplify_one(v, data.draw(st.integers(0, size - 1)))
        assert unit_drift(out) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), size=st.integers(2, 12))
    def test_matches_reference(self, data, size):
        v = data.draw(unit_grids((size,)))
        target = data.draw(st.integers(0, size - 1))
        assert np.array_equal(amplify_one(v, target), brute_amplify(v, target))


class TestAmplifyGrid:
    def test_matches_scalar_amplify(self):
        rng = substream(78, 0, 0, 0)
        for _ in range(20):
            grid = random_amplitudes(rng, (3, 7, 5))
            targets = rng.integers(0, 5, size=(3, 7))
            active = rng.random((3, 7)) < 0.7
            out = _amplify_grid(grid, targets, active)[0]
            for g in range(3):
                for t in range(7):
                    if active[g, t]:
                        want = brute_amplify(grid[g, t], int(targets[g, t]))
                        assert np.array_equal(out[g, t], want)
                    else:
                        assert np.array_equal(out[g, t], grid[g, t])

    def test_nothing_to_change_returns_the_grid_unchanged(self):
        rng = substream(82, 0, 0, 0)
        grid = random_amplitudes(rng, (3, 7, 5))
        targets = rng.integers(0, 5, size=(3, 7))
        out, out_cum = _amplify_grid(grid, targets, np.zeros((3, 7), dtype=bool))
        assert out.tobytes() == grid.tobytes()
        assert out_cum.tobytes() == (grid * grid).cumsum(axis=-1).tobytes()
        capped = np.zeros((3, 7, 5))
        np.put_along_axis(capped, targets[..., None], rng.choice([-1.0, 1.0], (3, 7, 1)), -1)
        out = _amplify_grid(capped, targets, np.ones((3, 7), dtype=bool))[0]
        assert out.tobytes() == capped.tobytes()
        for g in range(3):
            for t in range(7):
                assert np.array_equal(capped[g, t], brute_amplify(capped[g, t], targets[g, t]))

    def test_mixed_capped_and_uncapped_cells_match_reference(self):
        rng = substream(83, 0, 0, 0)
        for _ in range(20):
            grid = random_amplitudes(rng, (3, 7, 5))
            targets = rng.integers(0, 5, size=(3, 7))
            capped = rng.random((3, 7)) < 0.5
            grid[capped] = 0.0  # a target at exactly the cap, the residual beside it
            grid[capped, targets[capped]] = rng.choice([-CAP, CAP], capped.sum())
            grid[capped, (targets[capped] + 1) % 5] = 0.1
            out = _amplify_grid(grid, targets, np.ones((3, 7), dtype=bool))[0]
            for g in range(3):
                for t in range(7):
                    assert np.array_equal(out[g, t], brute_amplify(grid[g, t], targets[g, t]))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), n_g=st.integers(1, 3), n_t=st.integers(1, 6), size=st.integers(2, 9))
    def test_keeps_unit_norms(self, data, n_g, n_t, size):
        grid = data.draw(unit_grids((n_g, n_t, size)))
        targets = data.draw(arrays(np.int64, (n_g, n_t), elements=st.integers(0, size - 1)))
        active = data.draw(arrays(np.bool_, (n_g, n_t)))
        assert unit_drift(_amplify_grid(grid, targets, active)[0]) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_g=st.integers(1, 3), n_t=st.integers(1, 6), size=st.integers(2, 12))
    def test_changes_exactly_the_active_vectors_below_the_cap(self, data, n_g, n_t, size):
        """Changed vectors equal the reference bit for bit; the rest stay untouched."""
        shape = (n_g, n_t)
        grid = data.draw(unit_grids((*shape, size)))
        targets = data.draw(arrays(np.int64, shape, elements=st.integers(0, size - 1)))
        active = data.draw(arrays(np.bool_, shape))
        # 1: the target alone, at or above the cap; 2: the target alone, any value
        kinds = data.draw(arrays(np.int8, shape, elements=st.integers(0, 2)))
        lone = data.draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
        for g, t in zip(*np.nonzero(kinds)):
            value = lone[g, t]
            if kinds[g, t] == 1:
                value = math.copysign(max(CAP, abs(value)), value)
            grid[g, t] = 0.0
            grid[g, t, targets[g, t]] = value
        out, out_cum = _amplify_grid(grid, targets, active)
        for g, t in np.ndindex(*shape):
            v, target = grid[g, t], int(targets[g, t])
            if active[g, t] and abs(v[target]) < CAP:
                assert out[g, t].tobytes() == brute_amplify(v, target).tobytes()
            else:
                assert out[g, t].tobytes() == v.tobytes()
        assert out_cum.tobytes() == (out * out).cumsum(axis=-1).tobytes()


class TestQRepair:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), spec=SMALL_SPECS, first_seed=st.integers(0, 2**32 - 1))
    def test_start_only_sampling_matches_observe_then_repair(self, data, spec, first_seed):
        """Sampling only the episode starts draws and repairs as a full observation."""
        q = data.draw(quantum_chromosomes(spec))
        flat, _, episode = _repair_layout(spec)
        for seed in range(first_seed, first_seed + 4):
            shadow = observe(q, np.random.default_rng(seed))
            desired = repair_chromosome(shadow, spec)
            busy = desired.statuses != 0
            want = QuantumChromosome(
                _amplify_grid(q.id_amps, np.where(busy, desired.patients, 0), busy)[0],
                _amplify_grid(q.status_amps, desired.statuses, np.ones_like(busy))[0],
            )
            assert q_repair(q, spec, np.random.default_rng(seed)) == want
            # the kernel reads a busy flag and an incumbent per filled start, idle
            # incumbents ignored
            at_starts = shadow.statuses.take(flat) != 0
            ids = st.integers(0, spec.n_p - 1)
            others = data.draw(arrays(np.int64, at_starts.shape, elements=ids))
            incumbents = np.where(at_starts, shadow.patients.take(flat), others)
            patients = _repair_patients(at_starts[None], incumbents[None])[0, episode]
            assert patients.tobytes() == desired.patients.tobytes()

    def test_repaired_basis_state_is_a_fixed_point(self, medium_spec):
        rng = substream(79, 0, 0, 0)
        schedule = repair_chromosome(random_chromosome(medium_spec, rng), medium_spec)
        q = quantum_from_schedule(schedule, medium_spec.n_p)
        repaired = q_repair(q, medium_spec, substream(79, 1, 8, 0))
        assert repaired == q

    def test_observation_after_repair_matches_plan(self, medium_spec):
        """Repair concentrates the amplitudes near one classical plan."""
        q = uniform_quantum_chromosome(medium_spec)
        repaired = q_repair(q, medium_spec, substream(80, 0, 8, 0))
        shadow = observe(repaired, substream(80, 1, 1, 0))
        fixed = repair_chromosome(shadow, medium_spec)
        # most cells should already agree with a fully repaired plan
        agreement = np.mean(shadow.statuses == fixed.statuses)
        assert agreement > 0.9

    def test_norms_stay_unit_under_many_repairs(self):
        spec = ProblemSpec(n_g=2, n_p=4, n_t=30)
        q = uniform_quantum_chromosome(spec)
        for k in range(200):
            q = q_repair(q, spec, substream(81, k, 8, 0))
        for grid in (q.id_amps, q.status_amps):
            drift = np.abs(np.sum(grid * grid, axis=-1) - 1.0)
            assert float(drift.max()) < 1e-9

    @pytest.mark.parametrize("shape", [(3, 200, 12), (2, 60, 12), (3, 108, 13)])
    def test_rejects_a_chromosome_of_another_shape(self, medium_spec, shape):
        """A chromosome that does not fit the spec is refused, not amplified at the wrong vectors."""
        q = uniform_quantum_chromosome(ProblemSpec(n_g=shape[0], n_p=shape[2], n_t=shape[1]))
        pattern = r"\({}, {}, {}\) does not match .* \(3, 108, 12\)".format(*shape)
        with pytest.raises(ValueError, match=pattern):
            q_repair(q, medium_spec, substream(82, 0, 8, 0))


def repair_output(spec: ProblemSpec, seed: int) -> Chromosome:
    """The repair of a random schedule: every repair output is its own repair."""
    return repair_chromosome(random_chromosome(spec, substream(seed, 0, 0, 0)), spec)


def repair_fixed_point(spec: ProblemSpec, seed: int) -> QuantumChromosome:
    """The basis encoding of a repair output: every repair target sits at the cap."""
    return quantum_from_schedule(repair_output(spec, seed), spec.n_p)


# Members of either kind: a repair output from a seed, and a strategy over a spec.
CLASSICAL = (repair_output, chromosomes)
QUANTUM = (repair_fixed_point, quantum_chromosomes)

# Each row kernel and the one-row operator that calls it, both called over (spec, rng), with
# the kind of their members.
ROW_OPERATORS = {
    "mutate_patient_ids": (
        lambda grids, rows, spec, rng: _mutate_patient_rows(grids, rows, spec.n_t, spec.n_p, rng),
        mutate_patient_ids,
        CLASSICAL,
    ),
    "mutate_statuses": (
        lambda grids, rows, spec, rng: _mutate_status_rows(grids, rows, spec.n_t, spec.n_p, rng),
        mutate_statuses,
        CLASSICAL,
    ),
    "repair_chromosome": (
        lambda grids, rows, spec, rng: _repair_schedule_rows(grids, rows, spec),
        lambda chrom, spec, rng: repair_chromosome(chrom, spec),
        CLASSICAL,
    ),
    "q_mutate": (
        lambda grids, rows, spec, rng: _collapse(grids, rows, rng),
        lambda qchrom, spec, rng: q_mutate(qchrom, rng),
        QUANTUM,
    ),
    "q_repair": (_repair_rows, q_repair, QUANTUM),
}


class TestRepairMembers:
    """One row-kernel call over a population's rows returns what its operator returns row by row.

    The kernel draws from one generator; the one-row operator, called on the
    picked members in turn on one copy of that generator, draws the same
    values.  Rows that the kernel is not handed stay as they were.
    """

    @staticmethod
    def assert_matches_operator(name, members, spec, seed, picked):
        kernel, operator, _ = ROW_OPERATORS[name]
        grids = tuple(
            np.array([grid.reshape(spec.n_cells, *grid.shape[2:]) for grid in column])
            for column in zip(*(member.grids for member in members))
        )
        kernel(grids, picked, spec, substream(seed, 1, 8, 0))
        rng = substream(seed, 1, 8, 0)
        want = {row: operator(members[row], spec, rng).grids for row in picked}
        got = []
        for row, member in enumerate(members):
            out = [grid[row].reshape(spec.n_g, spec.n_t, *grid.shape[2:]) for grid in grids]
            expected = want.get(row, member.grids)
            assert [g.tobytes() for g in out] == [g.tobytes() for g in expected]
            got.append(type(member)(*out[:2]))
        return got

    @pytest.mark.parametrize("name", list(ROW_OPERATORS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), spec=SMALL_SPECS, n=st.integers(1, 5))
    def test_matches_the_operator_member_by_member(self, name, data, spec, n):
        _, _, (repaired, drawn) = ROW_OPERATORS[name]
        members = []
        for _ in range(n):
            if data.draw(st.booleans()):
                members.append(repaired(spec, data.draw(st.integers(0, 2**32 - 1))))
            else:
                members.append(data.draw(drawn(spec)))
        picked = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
        seed = data.draw(st.integers(0, 2**32 - 1))
        self.assert_matches_operator(name, members, spec, seed, picked)

    def test_members_at_the_cap_mix_with_members_that_change(self, medium_spec):
        capped = [repair_fixed_point(medium_spec, s) for s in (1, 2)]
        rng = substream(3, 0, 0, 0)
        shape = (medium_spec.n_g, medium_spec.n_t)
        changing = [
            uniform_quantum_chromosome(medium_spec),
            QuantumChromosome(
                random_amplitudes(rng, (*shape, medium_spec.n_p)),
                random_amplitudes(rng, (*shape, 8)),
            ),
        ]
        members = [capped[0], changing[0], capped[1], changing[1]]
        got = self.assert_matches_operator("q_repair", members, medium_spec, 11, [3, 0, 1, 2])
        # nothing to amplify: the capped rows keep their grids
        assert got[0] == capped[0] and got[2] == capped[1]
        assert got[1] != changing[0] and got[3] != changing[1]


class TestRunQuantum:
    def test_record_count(self, small_spec):
        result = run_quantum(small_spec, dataclasses.replace(PARAMS, g_max=5))
        assert len(result.records) == 6
        assert result.records[0].population == PARAMS.n_ini

    def test_best_schedule_is_classical_and_consistent(self, small_spec):
        result = run_quantum(small_spec, PARAMS)
        assert evaluate_breakdown(result.best_schedule).total == result.best_breakdown.total
        assert result.best_breakdown.total == max(r.best_fitness for r in result.records)

    def test_same_seed_reproduces(self, small_spec):
        a = run_quantum(small_spec, PARAMS)
        b = run_quantum(small_spec, PARAMS)
        assert a.records == b.records
        assert a.best_schedule == b.best_schedule

    def test_improves_on_medium_problem(self, medium_spec):
        result = run_quantum(medium_spec, PARAMS)
        assert result.best_breakdown.total > result.records[0].best_fitness

    def test_repair_amplifies_through_the_kernel(self, medium_spec, monkeypatch):
        """Runs amplify in ``_amplify_rows``, over the cumulative grids the rows carry."""
        calls = []
        amplify = quantum._amplify_rows

        def traced(amps, cum, rows, targets, per_pass):
            carried = cum[rows].tobytes() == (amps[rows] ** 2).cumsum(axis=-1).tobytes()
            calls.append(carried and per_pass == medium_spec.n_cells)
            return amplify(amps, cum, rows, targets, per_pass)

        monkeypatch.setattr(quantum, "_amplify_rows", traced)
        run_quantum(medium_spec, dataclasses.replace(PARAMS, g_max=3))
        assert calls and all(calls)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "spec, growth",
        [
            (ProblemSpec(n_g=3, n_p=12, n_t=108), {}),
            (ProblemSpec(n_g=3, n_p=24, n_t=200), {}),
            (ProblemSpec(n_g=3, n_p=24, n_t=200), {"n_ini": 2, "r_s": 1.0, "r_c": 1.0}),
        ],
        ids=["medium", "3x200x24", "3x200x24-growing"],
    )
    def test_peak_memory_stays_near_the_estimate(self, spec, growth, seed):
        """A run holds about one population's grids, its largest one's even while it grows."""
        params = dataclasses.replace(PARAMS, seed=seed, **growth)
        run_quantum(spec, dataclasses.replace(params, g_max=1))  # warm-up: caches and imports
        tracemalloc.start()
        try:
            run_quantum(spec, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * memory_estimate(spec, params)


class TestQubitEstimate:
    def test_reference_size(self):
        assert qubit_estimate(70, 650, 3, 72, 8) == 1_365_000

    def test_register_widths_round_up(self):
        # 3 patients need 2 qubits, 8 statuses need 3
        assert qubit_estimate(1, 1, 1, 3, 8) == 5
        assert qubit_estimate(1, 1, 1, 2, 2) == 2
        assert qubit_estimate(1, 1, 1, 1, 2) == 1

    def test_scales_linearly_in_cells(self):
        one = qubit_estimate(1, 10, 2, 4, 8)
        assert qubit_estimate(5, 10, 2, 4, 8) == 5 * one

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ConfigError):
            qubit_estimate(bad, 10, 2, 4, 8)
