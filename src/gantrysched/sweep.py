"""Parameter sweeps: grid construction, batched runs, and summary statistics."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .classical import GaParams, run_classical
from .fitness import ScoreTable
from .model import ConfigError, ProblemSpec
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
        # Written as ranges that NaN and infinities fail.
        if not 0 < self.step < math.inf:
            raise ConfigError(f"axis step must be positive and finite, got {self.step!r}")
        if not 0 <= self.half_width < math.inf:
            raise ConfigError(f"axis half_width must be finite and >= 0, got {self.half_width!r}")

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
    """One grid point's parameters and run outcome."""

    r_s: float
    r_c: float
    r_m: float
    r_r: float
    algorithm: str
    seed: int
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


def build_grid(base: GaParams, axes: Mapping[str, SweepAxis]) -> list[GaParams]:
    """Expand base parameters and axes into one GaParams per grid point.

    The points form the Cartesian product of the axes, which may vary any of
    r_s, r_c, r_m, r_r.  They vary in that fixed order with the last axis
    fastest, so point indices are stable for a given grid.  A grid without
    axes, or of more than 101**2 points, is rejected before any point is
    built.
    """
    unknown = set(axes) - set(SWEEP_PARAMS)
    if unknown:
        raise ConfigError(f"unknown sweep parameters: {sorted(unknown)}")
    if not axes:
        raise ConfigError("a sweep grid needs at least one axis")
    names = [name for name in SWEEP_PARAMS if name in axes]
    value_lists = [axes[name].values() for name in names]
    size = math.prod(len(values) for values in value_lists)
    if size > _MAX_GRID_POINTS:
        raise ConfigError(f"sweep grid has {size} points, more than {_MAX_GRID_POINTS}")
    points = [base]
    for name, values in zip(names, value_lists):
        points = [
            dataclasses.replace(point, **{name: value})
            for point in points
            for value in values
        ]
    return points


def run_sweep(
    spec: ProblemSpec,
    points: Sequence[GaParams],
    table: ScoreTable | None,
    algorithm: str,
    master_seed: int,
) -> list[SweepRecord]:
    """Run every grid point with a seed derived from the master seed.

    Points run one after another; fitness results are reproducible for a
    given master seed while wall times are not.  A failing point becomes a
    record with its ``error`` set; the sweep goes on.
    """
    if not points:
        raise ConfigError("no sweep points to run")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    runner = ALGORITHMS[algorithm]

    def run_point(index: int, point: GaParams) -> SweepRecord:
        seed = derive_seed(master_seed, index)
        point = dataclasses.replace(point, seed=seed)
        fields = dict(
            r_s=point.r_s, r_c=point.r_c, r_m=point.r_m, r_r=point.r_r,
            algorithm=algorithm, seed=seed,
        )
        try:
            result = runner(spec, point, table)
        except Exception as err:  # noqa: BLE001 - point outcome is reported
            return SweepRecord(
                **fields, best_fitness=math.nan, run_seconds=math.nan, error=str(err)
            )
        return SweepRecord(
            **fields,
            best_fitness=result.best_breakdown.total,
            run_seconds=result.elapsed,
        )

    return [run_point(index, point) for index, point in enumerate(points)]


def filter_records(
    records: Sequence[SweepRecord | GaParams], exclude: Mapping[str, Sequence[float]]
) -> tuple[list, int]:
    """Drop records (or grid points) whose ratios match any excluded value.

    Returns the surviving records and the number removed.
    """
    unknown = set(exclude) - set(SWEEP_PARAMS)
    if unknown:
        raise ConfigError(f"unknown exclusion parameters: {sorted(unknown)}")

    def excluded(record: SweepRecord) -> bool:
        for name, values in exclude.items():
            actual = getattr(record, name)
            if any(abs(actual - value) <= _VALUE_TOL for value in values):
                return True
        return False

    kept = [record for record in records if not excluded(record)]
    return kept, len(records) - len(kept)


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
    ties at the top-k boundary are broken by comparing record contents.
    """
    if not records:
        raise ConfigError("cannot summarize an empty record set")
    if any(record.error is not None for record in records):
        raise ConfigError("cannot summarize failed runs; filter them out first")
    ranked = sorted(
        records,
        key=lambda r: (-r.best_fitness, r.run_seconds, r.r_s, r.r_c, r.r_m, r.r_r, r.seed),
    )
    top = ranked[: min(k, len(ranked))]
    return SweepSummary(
        fitness=_stats([r.best_fitness for r in records]),
        run_time=_stats([r.run_seconds for r in records]),
        top_fitness=_stats([r.best_fitness for r in top]),
        top_run_time=_stats([r.run_seconds for r in top]),
        k=k,
    )
