"""Tests of the benchmark's own input generation, oracle gate and tracer.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import PHASES, Tracer, union_length  # noqa: E402

import gantrysched  # noqa: E402
from gantrysched import cli  # noqa: E402

TINY = {"n_g": 2, "n_p": 3, "n_t": 60, "n_ini": 6, "g_max": 3, "seed": 11,
        "r_s": 0.83, "r_c": 0.37, "r_m": 0.37, "r_r": 0.85,
        "classical_n_max": 20, "quantum_n_max": 12}


@pytest.fixture(scope="module")
def brute():
    return oracle.load_brute(ROOT)


def run_cli(tmp_path: Path, *extra: str, config=TINY, command="run", algo="classical") -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--algo", algo, "--threads", "1",
                     "--out", str(out), *extra]) == 0
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_config_is_deterministic_per_seed(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    base_path = ROOT / workload.base_config
    base_bytes = base_path.read_bytes()
    first, second, other = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    workloads.write_config(ROOT, workload, 7, first)
    workloads.write_config(ROOT, workload, 7, second)
    workloads.write_config(ROOT, workload, 8, other)
    assert first.read_bytes() == second.read_bytes()
    doc, doc_other = json.loads(first.read_text()), json.loads(other.read_text())
    assert doc["seed"] != doc_other["seed"]
    assert 0 <= doc["seed"] < 2**64
    base = json.loads(base_bytes)
    assert {k: v for k, v in doc.items() if k not in ("seed", "g_max")} == {
        k: v for k, v in base.items() if k not in ("seed", "g_max", "out_dir")
    }
    assert base_path.read_bytes() == base_bytes


def test_config_resolves_through_the_cli(tmp_path):
    for workload in workloads.WORKLOADS.values():
        path = tmp_path / f"{workload.name}.json"
        workloads.write_config(ROOT, workload, 0, path)
        args = cli.build_parser().parse_args(workloads.cli_args(workload, ROOT, path, tmp_path))
        spec, params, *_ = cli._resolve_config(cli._load_json(path, "config"), args.algo)
        assert params.g_max == workload.g_max
        assert args.threads == workloads.THREADS


def test_population_sizes_match_curves(tmp_path):
    out = run_cli(tmp_path)
    with open(out / "curves.csv", newline="") as fh:
        population = [int(r["population"]) for r in csv.DictReader(fh)]
    sizes = workloads.population_sizes(6, 0.83, 0.37, 20, 3)
    assert population == sizes
    assert workloads.population_sizes(40, 0.83, 0.37, 250, 20)[19:] == [342, 342]


def test_oracle_accepts_a_real_run(tmp_path, brute):
    out = run_cli(tmp_path)
    outcome = oracle.check_run(brute, out, TINY)
    assert outcome.ok, outcome.problems
    assert outcome.evaluations == sum(workloads.population_sizes(6, 0.83, 0.37, 20, 3))


@pytest.mark.parametrize("corruption", ["cell", "count", "summary"])
def test_oracle_rejects_a_corrupted_copy(tmp_path, brute, corruption):
    out = run_cli(tmp_path)
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    if corruption == "summary":
        summary = json.loads((copy / "summary.json").read_text())
        summary["best_fitness"] += 1.5
        (copy / "summary.json").write_text(json.dumps(summary))
    else:
        doc = json.loads((copy / "best_schedule.json").read_text())
        if corruption == "cell":
            cell = doc["tracks"][0][0]
            cell["status"], cell["patient"] = ("READY", 0) if cell["status"] == "IDLE" else ("IDLE", None)
        else:
            doc["fitness"]["counts"]["completed_therapies"] += 1
        (copy / "best_schedule.json").write_text(json.dumps(doc))
    assert not oracle.check_run(brute, copy, TINY).ok
    assert oracle.check_run(brute, out, TINY).ok


def test_sweep_points_and_gate(tmp_path):
    grid = json.loads((ROOT / "configs/grid_small.json").read_text())
    config = {**TINY, "g_max": 2}
    points, kept = workloads.sweep_points(config, "quantum", grid)
    assert len(points) == 15 and len(kept) == 12
    assert all(p["r_s"] != 0.77 for p in kept)
    out = run_cli(tmp_path, "--grid", str(ROOT / "configs/grid_small.json"),
                  config=config, command="sweep", algo="quantum")
    evaluations = workloads.sweep_evaluations(config, "quantum", points)
    assert oracle.check_sweep(out, kept, evaluations).ok
    lines = (out / "sweep.csv").read_text().splitlines()
    (out / "sweep.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert not oracle.check_sweep(out, kept, evaluations).ok


def test_reference_takes_about_its_nominal_time():
    times = [calibrate.reference_cpu_s() for _ in range(3)]
    assert all(0 < t for t in times)
    assert calibrate.NOMINAL_S / 10 < min(times) < 10 * calibrate.NOMINAL_S


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


@pytest.mark.parametrize("algo", ["classical", "quantum"])
def test_tracer_accounts_for_the_loop_and_restores(tmp_path, algo):
    original = gantrysched.fitness.evaluate_breakdown
    with Tracer(gantrysched) as tracer:
        assert gantrysched.classical.evaluate_breakdown is not original
        run_cli(tmp_path, algo=algo)
    assert gantrysched.classical.evaluate_breakdown is original
    assert gantrysched.fitness.evaluate_breakdown is original
    assert not tracer.missing_params
    (loop,) = tracer.loops
    phases = loop.phase_seconds()
    assert all(phases[p] > 0 for p in PHASES)
    metrics = tracer.metrics(wall_s=1.0, overhead_s=0.0)
    total = sum(metrics[f"phase.{p}_s"] for p in PHASES) + metrics["classical.evolve_self_s"]
    assert total == pytest.approx(loop.end - loop.start)
    assert metrics["classical.evolve_self_s"] >= 0
    assert metrics["fitness.evaluate_breakdown.calls"] >= sum(
        workloads.population_sizes(6, 0.83, 0.37, 20 if algo == "classical" else 12, 3)
    )
