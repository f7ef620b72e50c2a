"""Parameter sweep tests: grids, execution, filtering, and summaries."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

import gantrysched.sweep as sweep_mod
from gantrysched import (
    ConfigError,
    GaParams,
    ProblemSpec,
    ScoreTable,
    SweepAxis,
    SweepRecord,
    build_grid,
    derive_seed,
    filter_records,
    run_sweep,
    summarize,
)

BASE = GaParams(
    r_s=0.83, r_c=0.27, r_m=0.37, r_r=0.85, n_ini=4, n_max=20, g_max=3, seed=0
)

TINY = ProblemSpec(n_g=1, n_p=3, n_t=30)


def make_record(**overrides) -> SweepRecord:
    values = dict(
        r_s=0.83, r_c=0.27, r_m=0.37, r_r=0.85,
        algorithm="classical", seed=1, best_fitness=10.0, run_seconds=0.5,
    )
    values.update(overrides)
    return SweepRecord(**values)


class TestSweepAxis:
    def test_inclusive_symmetric_values(self):
        axis = SweepAxis(center=0.83, half_width=0.06, step=0.03)
        assert axis.values() == [0.77, 0.80, 0.83, 0.86, 0.89]

    def test_zero_width_yields_center(self):
        assert SweepAxis(center=0.5, half_width=0.0, step=0.1).values() == [0.5]

    def test_step_count_survives_float_rounding(self):
        """2 * 0.3 / 0.1 lands at 5.999..., which must still mean 7 values."""
        axis = SweepAxis(center=0.5, half_width=0.3, step=0.1)
        assert axis.values() == [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]

    def test_rejects_values_outside_unit_interval(self):
        with pytest.raises(ConfigError):
            SweepAxis(center=0.95, half_width=0.1, step=0.05).values()

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigError):
            SweepAxis(center=0.5, half_width=0.1, step=0.0)
        with pytest.raises(ConfigError):
            SweepAxis(center=0.5, half_width=-0.1, step=0.1)
        with pytest.raises(ConfigError):
            SweepAxis(center=0.5, half_width=float("nan"), step=0.1)
        with pytest.raises(ConfigError):
            SweepAxis(center=0.5, half_width=0.1, step=float("nan"))
        with pytest.raises(ConfigError):
            SweepAxis(center=0.5, half_width=math.inf, step=math.inf)

    @pytest.mark.parametrize(
        "bad",
        [dict(center="x"), dict(center=math.nan), dict(half_width=True), dict(step="0.1")],
    )
    def test_rejects_non_numbers(self, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            SweepAxis(**{**dict(center=0.5, half_width=0.1, step=0.1), **bad})


class TestBuildGrid:
    def test_cartesian_product_in_canonical_order(self):
        axes = {
            "r_c": SweepAxis(center=0.2, half_width=0.1, step=0.1),
            "r_s": SweepAxis(center=0.5, half_width=0.1, step=0.1),
        }
        points = build_grid(BASE, axes)
        combos = [(p.r_s, p.r_c) for p in points]
        # r_s is the outer axis no matter how the mapping was ordered
        assert combos == [
            (0.4, 0.1), (0.4, 0.2), (0.4, 0.3),
            (0.5, 0.1), (0.5, 0.2), (0.5, 0.3),
            (0.6, 0.1), (0.6, 0.2), (0.6, 0.3),
        ]
        assert all(p.r_m == BASE.r_m and p.n_ini == BASE.n_ini for p in points)

    def test_point_seeds_derive_from_base_seed_in_grid_order(self):
        base = dataclasses.replace(BASE, seed=5)
        axes = {"r_s": SweepAxis(0.5, 0.1, 0.1), "r_m": SweepAxis(0.3, 0.1, 0.1)}
        points = build_grid(base, axes)
        assert [p.seed for p in points] == [derive_seed(5, i) for i in range(9)]

    def test_point_count_is_bounded(self):
        full = SweepAxis(center=0.5, half_width=0.5, step=0.01)  # 101 values
        assert len(build_grid(BASE, {"r_s": full, "r_c": full})) == 101**2
        three = dict.fromkeys(("r_s", "r_c", "r_m"), full)
        with pytest.raises(ConfigError, match="more than 10201"):
            build_grid(BASE, three)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            build_grid(BASE, {"n_ini": SweepAxis(0.5, 0.0, 0.1)})

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigError):
            build_grid(BASE, {})


class TestRunSweep:
    def test_records_carry_each_points_seed(self):
        points = build_grid(BASE, {"r_m": SweepAxis(center=0.3, half_width=0.1, step=0.1)})
        kept = [points[2], points[0]]
        records = run_sweep(TINY, kept, ScoreTable(), "classical")
        assert [r.seed for r in records] == [p.seed for p in kept]
        assert [r.r_m for r in records] == [p.r_m for p in kept]
        assert all(r.error is None for r in records)
        assert all(math.isfinite(r.best_fitness) for r in records)

    def test_reproducible_fitness(self):
        points = build_grid(BASE, {"r_s": SweepAxis(0.6, 0.2, 0.2)})
        first = run_sweep(TINY, points, ScoreTable(), "classical")
        second = run_sweep(TINY, points, ScoreTable(), "classical")
        assert [r.best_fitness for r in first] == [r.best_fitness for r in second]

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(TINY, [BASE], ScoreTable(), "annealing")

    def test_empty_points_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(TINY, [], ScoreTable(), "classical")

    def test_collect_errors_keeps_going(self, monkeypatch):
        calls = []
        real_runner = sweep_mod.ALGORITHMS["classical"]

        def flaky(spec, params, table):
            calls.append(params)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return real_runner(spec, params, table)

        monkeypatch.setitem(sweep_mod.ALGORITHMS, "classical", flaky)
        points = build_grid(BASE, {"r_s": SweepAxis(0.6, 0.2, 0.2)})
        records = run_sweep(TINY, points, ScoreTable(), "classical")
        assert [r.error for r in records] == [None, "boom", None]
        assert math.isnan(records[1].best_fitness)


class TestFilterRecords:
    def test_drops_matching_values_with_tolerance(self):
        records = [
            make_record(r_s=0.83),
            make_record(r_s=0.8299999999995),
            make_record(r_s=0.86),
        ]
        kept, removed = filter_records(records, {"r_s": [0.83]})
        assert removed == 2
        assert [r.r_s for r in kept] == [0.86]

    def test_multiple_parameters(self):
        records = [make_record(r_s=0.8), make_record(r_c=0.1), make_record()]
        kept, removed = filter_records(records, {"r_s": [0.8], "r_c": [0.1]})
        assert removed == 2 and len(kept) == 1

    def test_no_exclusions_keeps_everything(self):
        records = [make_record(seed=i) for i in range(4)]
        kept, removed = filter_records(records, {})
        assert kept == records and removed == 0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            filter_records([make_record()], {"n_ini": [4]})


class TestSummarize:
    def test_statistics_by_hand(self):
        records = [
            make_record(best_fitness=10.0, run_seconds=1.0),
            make_record(best_fitness=20.0, run_seconds=3.0),
            make_record(best_fitness=30.0, run_seconds=2.0),
        ]
        summary = summarize(records, k=2)
        assert summary.fitness.count == 3
        assert summary.fitness.mean == 20.0
        assert summary.fitness.maximum == 30.0
        assert summary.fitness.minimum == 10.0
        assert summary.fitness.std == pytest.approx(math.sqrt(200 / 3))
        assert summary.top_fitness.count == 2
        assert summary.top_fitness.mean == 25.0
        assert summary.top_run_time.mean == 2.5

    def test_order_invariant(self):
        # exactly representable values keep permuted sums bit-identical
        records = [
            make_record(seed=i, best_fitness=float(i % 5), run_seconds=0.25 * i)
            for i in range(25)
        ]
        shuffled = records[:]
        random.Random(3).shuffle(shuffled)
        assert summarize(records, k=10) == summarize(shuffled, k=10)

    def test_k_larger_than_records(self):
        records = [make_record(seed=i) for i in range(3)]
        summary = summarize(records, k=10)
        assert summary.top_fitness.count == 3

    def test_rejects_empty_and_failed(self):
        with pytest.raises(ConfigError):
            summarize([])
        with pytest.raises(ConfigError):
            summarize([make_record(error="boom")])
        for k in (0, -1, True, 2.5):
            with pytest.raises(ConfigError, match="k must be an integer"):
                summarize([make_record()], k=k)
