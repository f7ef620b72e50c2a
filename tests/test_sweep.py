"""Parameter sweep tests: grids and exclusions, execution, and summaries."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    run_sweep,
    summarize,
)
from gantrysched.sweep import SWEEP_PARAMS

BASE = GaParams(
    r_s=0.83, r_c=0.27, r_m=0.37, r_r=0.85, n_ini=4, n_max=20, g_max=3, seed=0
)

TINY = ProblemSpec(n_g=1, n_p=3, n_t=30)


def make_record(**overrides) -> SweepRecord:
    values = dict(point=BASE, algorithm="classical", best_fitness=10.0, run_seconds=0.5)
    values.update(overrides)
    return SweepRecord(**values)


# Small axes over the ratios, and exclusion maps whose values sit on, near
# (within the 1e-9 tolerance) or off the axes' two-decimal values.
SMALL_AXES = st.dictionaries(
    st.sampled_from(SWEEP_PARAMS),
    st.builds(
        SweepAxis,
        center=st.sampled_from([0.2, 0.37, 0.5, 0.8]),
        half_width=st.sampled_from([0.0, 0.1, 0.2]),
        step=st.sampled_from([0.1, 0.2]),
    ),
    min_size=1,
    max_size=3,
)
EXCLUDED_VALUES = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.17, 0.2, 0.3, 0.37, 0.5, 0.57, 0.85, 1.0]),
        st.sampled_from([0.0, 5e-10, -5e-10, 1e-3]),
    ).map(sum),
    max_size=3,
)
EXCLUSIONS = st.dictionaries(st.sampled_from(SWEEP_PARAMS), EXCLUDED_VALUES, max_size=4)


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
        points, excluded = build_grid(BASE, axes, {})
        combos = [(p.r_s, p.r_c) for p in points]
        # r_s is the outer axis no matter how the mapping was ordered
        assert combos == [
            (0.4, 0.1), (0.4, 0.2), (0.4, 0.3),
            (0.5, 0.1), (0.5, 0.2), (0.5, 0.3),
            (0.6, 0.1), (0.6, 0.2), (0.6, 0.3),
        ]
        assert all(p.r_m == BASE.r_m and p.n_ini == BASE.n_ini for p in points)
        assert excluded == 0

    def test_point_seeds_derive_from_base_seed_in_grid_order(self):
        base = dataclasses.replace(BASE, seed=5)
        axes = {"r_s": SweepAxis(0.5, 0.1, 0.1), "r_m": SweepAxis(0.3, 0.1, 0.1)}
        points, _ = build_grid(base, axes, {})
        assert [p.seed for p in points] == [derive_seed(5, i) for i in range(9)]

    @settings(max_examples=200, deadline=None)
    @given(axes=SMALL_AXES, exclude=EXCLUSIONS, seed=st.integers(0, 2**32 - 1))
    def test_exclusions_keep_full_grid_points_and_seeds(self, axes, exclude, seed):
        base = dataclasses.replace(BASE, seed=seed)
        points, excluded = build_grid(base, axes, exclude)
        names = [name for name in SWEEP_PARAMS if name in axes]
        full = [
            dataclasses.replace(base, seed=derive_seed(seed, i), **dict(zip(names, values)))
            for i, values in enumerate(itertools.product(*(axes[n].values() for n in names)))
        ]

        def matches(point):
            return any(
                abs(getattr(point, name) - value) <= 1e-9
                for name, values in exclude.items()
                for value in values
            )

        assert points == [point for point in full if not matches(point)]
        assert len(points) + excluded == len(full)

    def test_drops_matching_values_with_tolerance(self):
        axes = {"r_s": SweepAxis(center=0.83, half_width=0.03, step=0.03)}
        points, excluded = build_grid(BASE, axes, {"r_s": [0.8299999999995]})
        assert [p.r_s for p in points] == [0.8, 0.86] and excluded == 1
        # a ratio held at its base value is matched too
        assert build_grid(BASE, axes, {"r_m": [0.3700000000005]}) == ([], 3)

    def test_multiple_parameters(self):
        axes = {"r_s": SweepAxis(0.85, 0.05, 0.1), "r_c": SweepAxis(0.15, 0.05, 0.1)}
        points, excluded = build_grid(BASE, axes, {"r_s": [0.8], "r_c": [0.1]})
        assert [(p.r_s, p.r_c) for p in points] == [(0.9, 0.2)] and excluded == 3

    def test_no_exclusions_keeps_everything(self):
        axes = {"r_r": SweepAxis(0.5, 0.2, 0.1)}
        points, excluded = build_grid(BASE, axes, {})
        assert [p.r_r for p in points] == [0.3, 0.4, 0.5, 0.6, 0.7] and excluded == 0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="n_ini"):
            build_grid(BASE, {"r_s": SweepAxis(0.5, 0.0, 0.1)}, {"n_ini": [4]})

    def test_point_count_is_bounded(self):
        full = SweepAxis(center=0.5, half_width=0.5, step=0.01)  # 101 values
        assert len(build_grid(BASE, {"r_s": full, "r_c": full}, {})[0]) == 101**2
        three = dict.fromkeys(("r_s", "r_c", "r_m"), full)
        with pytest.raises(ConfigError, match="more than 10201"):
            build_grid(BASE, three, {})

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            build_grid(BASE, {"n_ini": SweepAxis(0.5, 0.0, 0.1)}, {})

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigError):
            build_grid(BASE, {}, {})


class TestRunSweep:
    def test_records_carry_each_points_seed(self):
        points, _ = build_grid(BASE, {"r_m": SweepAxis(center=0.3, half_width=0.1, step=0.1)}, {})
        kept = [points[2], points[0]]
        records = run_sweep(TINY, kept, ScoreTable(), "classical")
        assert [r.point for r in records] == kept
        assert all(r.error is None for r in records)
        assert all(math.isfinite(r.best_fitness) for r in records)

    def test_reproducible_fitness(self):
        points, _ = build_grid(BASE, {"r_s": SweepAxis(0.6, 0.2, 0.2)}, {})
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
        points, _ = build_grid(BASE, {"r_s": SweepAxis(0.6, 0.2, 0.2)}, {})
        records = run_sweep(TINY, points, ScoreTable(), "classical")
        assert [r.error for r in records] == [None, "boom", None]
        assert math.isnan(records[1].best_fitness)


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

    # The CLI's weight bound keeps fitness totals far below 1e150 in size.
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.floats(-1e150, 1e150), st.floats(0, 1e150)),
            min_size=1,
            max_size=30,
        ),
        k=st.integers(1, 12),
        shuffle=st.randoms(use_true_random=False),
    )
    @example(
        values=[(f, 0.5) for f in [0.1, 0.2, 0.3, 1e-17, 7.7, 1 / 3, 2 / 7, 1e16, 3.0]],
        k=10,
        shuffle=random.Random(1),
    )
    def test_order_invariant(self, values, k, shuffle):
        records = [make_record(best_fitness=f, run_seconds=t) for f, t in values]
        shuffled = records[:]
        shuffle.shuffle(shuffled)
        assert summarize(records, k=k) == summarize(shuffled, k=k)

    def test_k_larger_than_records(self):
        records = [make_record() for _ in range(3)]
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
