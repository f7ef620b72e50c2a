"""Release acceptance suite: one test per criterion, with runtime budgets.

Each test prints an ``ACCEPTANCE NN <name>: PASS`` line once its checks all
hold (visible with ``pytest -rA`` or ``-s``), so the verbose test listing
doubles as the acceptance checklist.  The shared medium-problem runs are
computed once per session and reused by the population, convergence, and
runtime criteria.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from time import perf_counter

import numpy as np
import pytest
from scipy import stats

from gantrysched import (
    Chromosome,
    GaParams,
    ProblemSpec,
    evaluate_breakdown,
    observe,
    q_mutate,
    q_repair,
    qubit_estimate,
    random_chromosome,
    repair_chromosome,
    run_classical,
    run_quantum,
    sample_index,
    single_point_crossover,
    uniform_quantum_chromosome,
)
from gantrysched.cli import main
from gantrysched.classical import _floor_count
from gantrysched.rng import substream

from brute_fitness import brute_breakdown
from conftest import idle_rows, perfect_chromosome

MEDIUM = ProblemSpec(n_g=3, n_p=12, n_t=108)
CLASSICAL_PARAMS = GaParams(
    r_s=0.83, r_c=0.27, r_m=0.37, r_r=0.85, n_ini=10, n_max=150, g_max=200, seed=0
)
QUANTUM_PARAMS = dataclasses.replace(CLASSICAL_PARAMS, n_max=50)

N_SEEDS = 10


def report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


@pytest.fixture(scope="session")
def medium_runs():
    """Ten seeded single-threaded runs per algorithm on the medium problem."""
    classical = [
        run_classical(MEDIUM, dataclasses.replace(CLASSICAL_PARAMS, seed=s))
        for s in range(N_SEEDS)
    ]
    quantum = [
        run_quantum(MEDIUM, dataclasses.replace(QUANTUM_PARAMS, seed=s))
        for s in range(N_SEEDS)
    ]
    return classical, quantum


def test_01_fitness_matches_bruteforce_oracle():
    """1000 random schedules score identically under the naive evaluator."""
    started = perf_counter()
    spec = ProblemSpec(n_g=2, n_p=3, n_t=20)
    rng = substream(101, 0, 0, 0)
    for _ in range(1000):
        chrom = random_chromosome(spec, rng)
        got = evaluate_breakdown(chrom)
        want = brute_breakdown(chrom.statuses, chrom.patients)
        assert got.counts() == {k: v for k, v in want.items() if k != "total"}
        assert got.total == want["total"]
    assert perf_counter() - started < 10.0
    report(1, "fitness oracle agreement")


def test_02_frozen_fitness_fixtures():
    """Hand-scored schedules reproduce their frozen totals exactly."""
    assert evaluate_breakdown(perfect_chromosome(n_g=1, n_t=28, start=1)).total == 162.0
    duplicated = perfect_chromosome(n_g=2, n_t=28, start=1, patients=[0, 0])
    assert evaluate_breakdown(duplicated).total == -224.0
    statuses, patients = idle_rows(30)
    assert evaluate_breakdown(Chromosome([statuses] * 3, [patients] * 3)).total == 0.0
    report(2, "frozen fitness fixtures")


def test_03_qubit_register_estimate():
    """The reference problem size needs 1,365,000 qubits."""
    assert qubit_estimate(70, 650, 3, 72, 8) == 1_365_000
    report(3, "qubit register estimate")


def test_04_observation_sampling_law():
    """Draw frequencies follow squared amplitudes (chi-square, 20 vectors)."""
    started = perf_counter()
    rng = substream(404, 0, 0, 0)
    draws_per_vector = 100_000
    passing = 0
    for k in range(20):
        v = rng.normal(size=12)
        if k % 4 == 0:
            v[rng.choice(12, size=3, replace=False)] = 0.0
        v = v / np.sqrt(np.sum(v * v))
        sq = v * v
        counts = np.bincount(
            sample_index(v, rng.random(draws_per_vector)), minlength=12
        )
        supported = sq > 0
        assert counts[~supported].sum() == 0
        expected = sq[supported] / sq[supported].sum() * draws_per_vector
        _, p_value = stats.chisquare(counts[supported], expected)
        if p_value > 0.001:
            passing += 1
    assert passing >= 19
    assert perf_counter() - started < 5.0
    report(4, "observation sampling law")


def test_05_amplitude_stability_under_mixed_operations():
    """Norms stay unit through 10,000 operator applications."""
    started = perf_counter()
    spec = ProblemSpec(n_g=2, n_p=4, n_t=30)
    a = uniform_quantum_chromosome(spec)
    b = uniform_quantum_chromosome(spec)
    for k in range(10_000):
        rng = substream(505, k, k % 4, 0)
        if k % 4 == 0:
            ids_before = a.id_amps.copy()
            status_before = a.status_amps.copy()
            observe(a, rng)
            assert np.array_equal(a.id_amps, ids_before)
            assert np.array_equal(a.status_amps, status_before)
        elif k % 4 == 1:
            a = q_mutate(a, rng)
        elif k % 4 == 2:
            point = int(rng.integers(1, spec.n_cells))
            a, b = single_point_crossover(a, b, point)
        else:
            a = q_repair(a, spec, rng)
            a, b = b, a
    for chrom in (a, b):
        for grid in (chrom.id_amps, chrom.status_amps):
            drift = np.abs(np.sum(grid * grid, axis=-1) - 1.0)
            assert float(drift.max()) <= 1e-6
    assert perf_counter() - started < 30.0
    report(5, "amplitude stability under mixed operations")


def test_06_population_size_discipline(medium_runs):
    """Population sizes follow selection and crossover exactly, per record."""
    classical, _ = medium_runs
    for result in classical[:5]:
        records = result.records
        assert records[0].population == CLASSICAL_PARAMS.n_ini
        for current, following in zip(records, records[1:]):
            survivors = min(
                CLASSICAL_PARAMS.n_max,
                max(2, _floor_count(CLASSICAL_PARAMS.r_s * current.population)),
            )
            survivors = min(survivors, current.population)
            assert survivors <= CLASSICAL_PARAMS.n_max
            children = 2 * _floor_count(CLASSICAL_PARAMS.r_c * survivors / 2)
            assert following.population == survivors + children
    report(6, "population size discipline")


def test_07_seeded_convergence_on_medium_problem(medium_runs):
    """Every seeded run improves, and the two algorithms land within 2x."""
    classical, quantum = medium_runs
    for result in classical + quantum:
        assert result.best_breakdown.total > result.records[0].best_fitness
    classical_median = statistics.median(r.best_breakdown.total for r in classical)
    quantum_median = statistics.median(r.best_breakdown.total for r in quantum)
    assert classical_median > 0 and quantum_median > 0
    ratio = max(classical_median, quantum_median) / min(classical_median, quantum_median)
    assert ratio <= 2.0
    report(7, "seeded convergence on the medium problem")


def test_08_repair_eliminates_structural_penalties():
    """1000 repaired random schedules carry no structural penalties."""
    started = perf_counter()
    rng = substream(808, 0, 0, 0)
    for _ in range(1000):
        fixed = repair_chromosome(random_chromosome(MEDIUM, rng), MEDIUM)
        got = evaluate_breakdown(fixed)
        assert got.conflicts == 0
        assert got.duration_violations == 0
        assert got.duplicate_treatments == 0
        assert got.interruptions == 0
    assert perf_counter() - started < 30.0
    report(8, "repair eliminates structural penalties")


def test_09_cli_outputs_thread_invariant(tmp_path):
    """cmd-line runs produce byte-identical outputs for 1 and 8 threads."""
    started = perf_counter()
    config = {
        "n_g": MEDIUM.n_g,
        "n_p": MEDIUM.n_p,
        "n_t": MEDIUM.n_t,
        "g_max": CLASSICAL_PARAMS.g_max,
        "seed": 0,
        "classical_n_max": CLASSICAL_PARAMS.n_max,
        "quantum_n_max": QUANTUM_PARAMS.n_max,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    for algo in ("classical", "quantum"):
        outputs = {}
        for threads in (1, 8):
            out_dir = tmp_path / f"{algo}-{threads}"
            code = main(
                [
                    "run", "--config", str(config_path), "--algo", algo,
                    "--threads", str(threads), "--out", str(out_dir),
                ]
            )
            assert code == 0
            outputs[threads] = (
                (out_dir / "curves.csv").read_bytes(),
                (out_dir / "best_schedule.json").read_bytes(),
            )
        assert outputs[1] == outputs[8]
        curve_lines = outputs[1][0].decode().splitlines()
        assert len(curve_lines) == CLASSICAL_PARAMS.g_max + 2  # header + 201 records
    assert perf_counter() - started < 300.0
    report(9, "thread-invariant command-line outputs")


def test_10_medium_runtime_budget(medium_runs):
    """Single-threaded medium runs fit the budget: 60s classical, 300s quantum."""
    classical, quantum = medium_runs
    slowest_classical = max(r.elapsed for r in classical)
    slowest_quantum = max(r.elapsed for r in quantum)
    assert slowest_classical <= 60.0
    assert slowest_quantum <= 300.0
    report(10, "medium problem runtime budget")
