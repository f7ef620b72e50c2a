"""Correctness gate for the outputs of one benchmarked CLI command.

A ``run`` is re-scored with the independent reference evaluator in
``tests/brute_fitness.py``; a ``sweep`` is checked against the grid it was
given.  Each check returns an :class:`Outcome` whose ``problems`` list is
empty when the outputs are correct.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

# Status names of best_schedule.json in status-value order (the output format).
STATUS_NAMES = (
    "IDLE",
    "READY",
    "WAIT_PATIENT",
    "ADJUST_TARGET",
    "WAIT_CONTROL",
    "WAIT_ACCELERATOR",
    "IRRADIATE",
    "DISPOSE",
)

COUNT_NAMES = (
    "conflicts",
    "duration_violations",
    "duplicate_treatments",
    "interruptions",
    "busy_slots",
    "consecutive_runs",
    "ordered_transitions",
    "completed_therapies",
)


@dataclass
class Outcome:
    """What one command produced and what is wrong with it."""

    problems: list[str] = field(default_factory=list)
    best_fitness: float = math.nan
    completed_therapies: int | None = None  # run only
    evaluations: int = 0
    signature: tuple = ()  # deterministic results, equal across repeats of a seed

    @property
    def ok(self) -> bool:
        return not self.problems


def load_brute(root: Path):
    """Import the reference evaluator from the checkout without writing bytecode."""
    path = root / "tests" / "brute_fitness.py"
    spec = importlib.util.spec_from_file_location("_bench_brute_fitness", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _read_json(path: Path, out: Outcome):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as err:
        out.problems.append(f"{path.name}: {err}")
        return None


def check_run(brute, out_dir: Path, config: dict) -> Outcome:
    """Check ``curves.csv``, ``summary.json`` and ``best_schedule.json`` of a run."""
    out = Outcome()
    try:
        with open(out_dir / "curves.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        curve_best = [float(r["best_fitness"]) for r in rows]
        out.evaluations = sum(int(r["population"]) for r in rows)
    except (OSError, KeyError, ValueError) as err:
        out.problems.append(f"curves.csv: {err!r}")
        return out
    if not curve_best:
        out.problems.append("curves.csv has no records")
        return out
    summary = _read_json(out_dir / "summary.json", out)
    doc = _read_json(out_dir / "best_schedule.json", out)
    if summary is None or doc is None:
        return out

    best = summary.get("best_fitness")
    if best != max(curve_best):
        out.problems.append(f"summary best {best!r} != curves maximum {max(curve_best)!r}")
    problems = check_schedule(brute, doc, config)
    out.problems += problems
    if not problems:
        reported = doc["fitness"]
        if reported["total"] != best:
            out.problems.append(
                f"best_schedule total {reported['total']!r} != summary best {best!r}"
            )
        out.completed_therapies = int(reported["counts"]["completed_therapies"])
    out.best_fitness = best
    out.signature = (out.best_fitness, out.completed_therapies)
    return out


def check_schedule(brute, doc: dict, config: dict) -> list[str]:
    """Re-score a best_schedule.json document; list every disagreement."""
    problems = []
    try:
        tracks = doc["tracks"]
        statuses = [[STATUS_NAMES.index(cell["status"]) for cell in row] for row in tracks]
        patients = [[-1 if cell["patient"] is None else cell["patient"] for cell in row] for row in tracks]
        reported = doc["fitness"]
        reported_counts = reported["counts"]
        scores = doc["scores"]
    except (KeyError, TypeError, ValueError) as err:
        return [f"best_schedule.json is malformed: {err!r}"]
    shape = (len(statuses), {len(row) for row in statuses})
    if shape != (config["n_g"], {config["n_t"]}):
        problems.append(f"schedule shape {shape} does not match the config")
    if any(not isinstance(p, int) or not -1 <= p < config["n_p"] for row in patients for p in row):
        problems.append("schedule holds a patient id outside the problem")
    if scores != brute.WEIGHTS:
        problems.append(f"schedule was scored with non-default weights {scores}")
    if problems:
        return problems
    expected = brute.brute_breakdown(statuses, patients)
    for name in COUNT_NAMES:
        if reported_counts.get(name) != expected[name]:
            problems.append(f"{name}: reported {reported_counts.get(name)!r}, oracle {expected[name]}")
    if reported.get("total") != expected["total"]:
        problems.append(f"total: reported {reported.get('total')!r}, oracle {expected['total']!r}")
    return problems


def check_sweep(out_dir: Path, kept_points: list[dict], evaluations: int) -> Outcome:
    """Check ``sweep.csv`` and ``sweep_summary.csv`` against the expected kept points."""
    out = Outcome(evaluations=evaluations)
    try:
        with open(out_dir / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(out_dir / "sweep_summary.csv", newline="") as fh:
            summary = {r["label"]: r for r in csv.DictReader(fh)}
        found = [tuple(float(r[k]) for k in ("r_s", "r_c", "r_m", "r_r")) for r in rows]
        fitness = [float(r["best_fitness"]) for r in rows]
        errors = [r["error"] for r in rows if r["error"]]
        summary_mean = float(summary["all"]["fitness_mean"])
        summary_count = int(summary["all"]["count"])
    except (OSError, KeyError, ValueError) as err:
        out.problems.append(f"sweep outputs: {err!r}")
        return out
    expected = [tuple(p[k] for k in ("r_s", "r_c", "r_m", "r_r")) for p in kept_points]
    if found != expected:
        out.problems.append(f"sweep.csv points {found} != expected kept points {expected}")
    for error in errors:
        out.problems.append(f"sweep point failed: {error}")
    if not all(math.isfinite(f) for f in fitness):
        out.problems.append("sweep.csv holds a non-finite best fitness")
    if out.problems:
        return out
    out.best_fitness = math.fsum(fitness) / len(fitness)
    if summary_count != len(rows) or not math.isclose(summary_mean, out.best_fitness, rel_tol=1e-12):
        out.problems.append(
            f"sweep_summary.csv all-row ({summary_count}, {summary_mean!r}) disagrees with "
            f"sweep.csv ({len(rows)}, {out.best_fitness!r})"
        )
    out.signature = tuple(fitness)
    return out
