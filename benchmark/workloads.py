"""Workload definitions and the inputs generated for them from a seed.

Every workload is one command of the ``gantrysched`` CLI.  The benchmark
writes the config file itself: the problem size, GA ratios and population
limits are copied from a config shipped in ``configs/`` (which is only
read), the generation count is the workload's own, and the GA seed is
derived from the benchmark's ``--seed``.  ``--threads`` is fixed at 1;
everything else is left to the CLI defaults.

Why one thread: the package's thread pools run pure-Python callbacks, so
two threads take turns at the interpreter lock, and how much that costs
depends on where the host's scheduler puts them.  With the CLI default
(``os.cpu_count()`` threads) the same sweep took from 3.0 to 4.7 s on a
2-vCPU host depending on other load, against 2.9 to 3.1 s with one thread.
A fixed thread count also keeps the workload the same on hosts whose
``os.cpu_count()`` differs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Keys of the shipped configs that the benchmark sets itself.
_OWN_KEYS = ("g_max", "seed", "out_dir")

THREADS = 1

# Same slack the GA uses when flooring ratio * count.
_FLOOR_EPS = 1e-9

SWEEP_ORDER = ("r_s", "r_c", "r_m", "r_r")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "sweep"
    algo: str
    base_config: str  # relative to the checkout root
    g_max: int
    why: str
    grid: str | None = None  # sweep grid, relative to the checkout root


WORKLOADS = {
    w.name: w
    for w in (
        # Population grows 40 -> 342 by generation 19, so g_max 20 keeps one
        # generation at the cap.  Repair (~74%) and fitness (~20%) dominate;
        # the quantum layer does no work, so quantum changes must not show.
        Workload(
            name="classical-large",
            command="run",
            algo="classical",
            base_config="configs/large.json",
            g_max=20,
            why=(
                "classical run on 3x650 slots, 72 patients, population 40 to 342: "
                "repair and fitness dominate, the quantum layer is idle"
            ),
        ),
        # Population stays at 10, but each chromosome holds 3*650*(72+8)
        # float64 amplitudes (1.25 MB): observe, norm validation and
        # amplification dominate; fitness is ~9%.  Peak RSS matters here.
        # Runnable by name but not listed in BENCHMARK.json, so that the two
        # listed workloads can measure for longer within the time that a full
        # set of runs may take.  The quantum layer is measured by
        # sweep-medium, and the large-input quantum kernels by the
        # micro-timings of every traced run.
        Workload(
            name="quantum-large",
            command="run",
            algo="quantum",
            base_config="configs/large.json",
            g_max=60,
            why=(
                "quantum run on 3x650 slots, 72 patients, 1.25 MB of amplitudes per "
                "chromosome: observe and amplify dominate, memory-bound"
            ),
        ),
        # 15 independent small runs (12 kept after the grid's exclusion):
        # per-call overhead dominates, and it is the only workload that goes
        # through sweep.
        Workload(
            name="sweep-medium",
            command="sweep",
            algo="quantum",
            base_config="configs/medium.json",
            g_max=20,
            grid="configs/grid_small.json",
            why=(
                "quantum sweep of 15 small runs on 3x108 slots, 12 patients, one after "
                "another: per-call overhead dominates"
            ),
        ),
    )
}


def ga_seed(workload: str, seed: int) -> int:
    """64-bit GA seed derived from the workload name and the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def write_config(root: Path, workload: Workload, seed: int, path: Path) -> dict:
    """Write the config a workload runs on for one benchmark seed; return it."""
    base = json.loads((root / workload.base_config).read_text())
    doc = {key: value for key, value in base.items() if key not in _OWN_KEYS}
    doc["g_max"] = workload.g_max
    doc["seed"] = ga_seed(workload.name, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def cli_args(workload: Workload, root: Path, config: Path, out: Path) -> list[str]:
    """Arguments of the ``gantrysched`` command a workload runs."""
    args = [workload.command, "--config", str(config), "--algo", workload.algo,
            "--threads", str(THREADS)]
    if workload.grid is not None:
        args += ["--grid", str(root / workload.grid)]
    return args + ["--out", str(out)]


def ga_value(doc: dict, algo: str, key: str):
    """A GA setting as the CLI resolves it: the prefixed key wins over the bare one."""
    prefixed = f"{algo}_{key}"
    if prefixed in doc:
        return doc[prefixed]
    if key in doc:
        return doc[key]
    raise KeyError(f"config sets neither {prefixed!r} nor {key!r}")


def population_sizes(n_ini: int, r_s: float, r_c: float, n_max: int, g_max: int) -> list[int]:
    """Population size at each evaluation of a run, from the GA's size rules.

    Selection keeps min(n_max, max(2, floor(r_s * n))) chromosomes and
    crossover adds two children per floor(r_c * k / 2) parent pairs.
    """
    sizes = [n_ini]
    n = n_ini
    for _ in range(g_max):
        k = min(n_max, max(2, math.floor(r_s * n + _FLOOR_EPS)), n)
        n = k + 2 * math.floor(r_c * k / 2 + _FLOOR_EPS)
        sizes.append(n)
    return sizes


def _axis_values(axis: dict) -> list[float]:
    count = math.floor(2 * axis["half_width"] / axis["step"] + _FLOOR_EPS) + 1
    return [round(axis["center"] - axis["half_width"] + k * axis["step"], 2) for k in range(count)]


def sweep_points(doc: dict, algo: str, grid: dict) -> tuple[list[dict], list[dict]]:
    """All grid points of a sweep and the ones its ``exclude`` map keeps.

    Each point maps r_s, r_c, r_m, r_r to its value; axes the grid does not
    name keep the config's value.
    """
    base = {name: round(float(ga_value(doc, algo, name)), 2) for name in SWEEP_ORDER}
    names = [name for name in SWEEP_ORDER if name in grid["axes"]]
    points = [
        {**base, **dict(zip(names, values))}
        for values in itertools.product(*(_axis_values(grid["axes"][n]) for n in names))
    ]
    exclude = grid.get("exclude", {})
    kept = [
        p
        for p in points
        if not any(abs(p[name] - v) <= _FLOOR_EPS for name, vs in exclude.items() for v in vs)
    ]
    return points, kept


def sweep_evaluations(doc: dict, algo: str, points: list[dict]) -> int:
    """Chromosome evaluations a sweep performs over the given points."""
    n_ini = ga_value(doc, algo, "n_ini")
    n_max = ga_value(doc, algo, "n_max")
    return sum(
        sum(population_sizes(n_ini, p["r_s"], p["r_c"], n_max, doc["g_max"])) for p in points
    )
