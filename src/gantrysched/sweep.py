"""Parameter sweeps: grid construction, batched runs, and summary statistics."""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .classical import GaParams, run_classical
from .fitness import ScoreTable
from .model import ConfigError, ProblemSpec, _check_int, _check_real
from .quantum import run_quantum
from .rng import derive_seed

SWEEP_PARAMS = ("r_s", "r_c", "r_m", "r_r")

ALGORITHMS = {"classical": run_classical, "quantum": run_quantum}

_VALUE_TOL = 1e-9

# Values are rounded to two decimals in [0, 1], so a longer axis only repeats.
_MAX_AXIS_VALUES = 101
# Any two full axes still build; every point is a whole GA run.
_MAX_GRID_POINTS = _MAX_AXIS_VALUES**2


@dataclass(frozen=True)
class SweepAxis:
    """Inclusive arithmetic sequence of ratio values around a center."""

    center: float
    half_width: float
    step: float

    def __post_init__(self) -> None:
        for name, low in (("center", -math.inf), ("half_width", 0), ("step", 0)):
            _check_real(f"axis {name}", getattr(self, name), low, math.inf)
        if self.step == 0:
            raise ConfigError(f"axis step must be positive, got {self.step!r}")

    def values(self) -> list[float]:
        """Axis values rounded to two decimals, lowest first."""
        steps = 2 * self.half_width / self.step + _VALUE_TOL
        if steps >= _MAX_AXIS_VALUES:
            raise ConfigError(f"axis has more than {_MAX_AXIS_VALUES} values")
        count = math.floor(steps) + 1
        low = self.center - self.half_width
        for value in (round(low, 2), round(low + (count - 1) * self.step, 2)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"axis value {value} falls outside [0, 1]")
        return [round(low + k * self.step, 2) for k in range(count)]


@dataclass(frozen=True)
class SweepRecord:
    """One grid point and the outcome of its run."""

    point: GaParams
    algorithm: str
    best_fitness: float
    run_seconds: float
    error: str | None = None


@dataclass(frozen=True)
class Stats:
    """Population statistics of one column of values."""

    count: int
    mean: float
    maximum: float
    minimum: float
    std: float


@dataclass(frozen=True)
class SweepSummary:
    """Fitness and time statistics overall and over the top-k points."""

    fitness: Stats
    run_time: Stats
    top_fitness: Stats
    top_run_time: Stats
    k: int


def build_grid(
    base: GaParams, axes: Mapping[str, SweepAxis], exclude: Mapping[str, Sequence[float]]
) -> tuple[list[GaParams], int]:
    """Expand base parameters and axes into the grid points that a sweep runs.

    The full grid is the Cartesian product of the axes, which may vary any
    of r_s, r_c, r_m, r_r.  They vary in that fixed order with the last axis
    fastest, and point ``i`` of the full grid runs on
    ``derive_seed(base.seed, i)``.  A point whose ratio lies within 1e-9 of
    a value that ``exclude`` lists for that ratio is dropped; the others
    keep their seeds.  Returns the kept points in grid order and the number
    dropped.  A grid without axes, or of more than 101**2 points, is
    rejected before any point is built.
    """
    unknown = (set(axes) | set(exclude)) - set(SWEEP_PARAMS)
    if unknown:
        raise ConfigError(f"unknown sweep parameters: {sorted(unknown)}")
    if not axes:
        raise ConfigError("a sweep grid needs at least one axis")
    names = [name for name in SWEEP_PARAMS if name in axes]
    value_lists = [axes[name].values() for name in names]
    size = math.prod(len(values) for values in value_lists)
    if size > _MAX_GRID_POINTS:
        raise ConfigError(f"sweep grid has {size} points, more than {_MAX_GRID_POINTS}")

    def excluded(point: GaParams) -> bool:
        return any(
            abs(getattr(point, name) - value) <= _VALUE_TOL
            for name, values in exclude.items()
            for value in values
        )

    points = (
        dataclasses.replace(base, seed=derive_seed(base.seed, index), **dict(zip(names, values)))
        for index, values in enumerate(itertools.product(*value_lists))
    )
    kept = [point for point in points if not excluded(point)]
    return kept, size - len(kept)


def run_sweep(
    spec: ProblemSpec,
    points: Sequence[GaParams],
    table: ScoreTable,
    algorithm: str,
) -> list[SweepRecord]:
    """Run every point on its own seed, one after another.

    Fitness results are reproducible for given points while wall times are
    not.  A failing point becomes a record with its ``error`` set; the sweep
    goes on.
    """
    if not points:
        raise ConfigError("no sweep points to run")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    runner = ALGORITHMS[algorithm]

    def run_point(point: GaParams) -> SweepRecord:
        try:
            result = runner(spec, point, table)
        except Exception as err:  # noqa: BLE001 - point outcome is reported
            return SweepRecord(point, algorithm, math.nan, math.nan, error=str(err))
        return SweepRecord(point, algorithm, result.best_breakdown.total, result.elapsed)

    return [run_point(point) for point in points]


def _stats(values: Sequence[float]) -> Stats:
    arr = np.asarray(values, dtype=np.float64)
    return Stats(
        count=int(arr.size),
        mean=float(arr.mean()),
        maximum=float(arr.max()),
        minimum=float(arr.min()),
        std=float(arr.std()),  # population standard deviation
    )


def summarize(records: Sequence[SweepRecord], k: int = 10) -> SweepSummary:
    """Fitness and run-time statistics overall and over the k best points.

    The result depends only on the multiset of records, not their order:
    every statistic is taken over the records ranked by fitness, best
    first, then by run time, and records tied on both hold equal values.
    """
    _check_int("k", k, 1)
    if not records:
        raise ConfigError("cannot summarize an empty record set")
    if any(record.error is not None for record in records):
        raise ConfigError("cannot summarize failed runs; filter them out first")
    ranked = sorted(records, key=lambda r: (-r.best_fitness, r.run_seconds))
    top = ranked[:k]
    return SweepSummary(
        fitness=_stats([r.best_fitness for r in ranked]),
        run_time=_stats([r.run_seconds for r in ranked]),
        top_fitness=_stats([r.best_fitness for r in top]),
        top_run_time=_stats([r.run_seconds for r in top]),
        k=k,
    )
