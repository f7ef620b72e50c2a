"""Classical genetic algorithm tests: operators, repair, and the full loop."""

from __future__ import annotations

import dataclasses
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gantrysched import (
    VACANT,
    Chromosome,
    ConfigError,
    GaParams,
    GantryStatus,
    ProblemSpec,
    evaluate_breakdown,
    mutate_patient_ids,
    mutate_statuses,
    random_chromosome,
    repair_chromosome,
    run_classical,
    select,
    single_point_crossover,
)
from gantrysched import classical, cli, quantum
from gantrysched import fitness as scoring
from gantrysched.classical import _paired_crossover, _peak_population
from gantrysched.cli import main
from gantrysched.rng import substream

from brute_fitness import brute_breakdown
from brute_repair import brute_repair
from conftest import (
    SMALL_SPECS,
    chromosomes,
    idle_rows,
    perfect_chromosome,
    quantum_chromosomes,
    quantum_from_schedule,
    rows_with_cycle,
)

ROOT = Path(__file__).resolve().parent.parent

PARAMS = GaParams(
    r_s=0.83, r_c=0.27, r_m=0.37, r_r=0.85, n_ini=10, n_max=150, g_max=10, seed=0
)


def tiny_params(**overrides) -> GaParams:
    return dataclasses.replace(PARAMS, **overrides)


def cell_counts(*chroms) -> Counter:
    """Multiset of cells over all given chromosomes of one kind.

    A cell is its row of every grid: (status, patient) for a schedule, the
    pair of amplitude vectors for a quantum chromosome.
    """
    return Counter(
        tuple(tuple(row) for row in cell)
        for chrom in chroms
        for cell in zip(*(grid.reshape(chrom.n_cells, -1).tolist() for grid in chrom.grids))
    )


class TestGaParams:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(r_s=1.5),
            dict(r_c=-0.1),
            dict(n_ini=1),
            dict(n_max=0),
            dict(g_max=-1),
            dict(seed=-3),
            dict(seed=2**64),
            # the counts and the seed are Python ints, never bools or floats
            dict(n_ini=10.5),
            dict(n_max=10.0),
            dict(g_max=2.5),
            dict(g_max=True),
            dict(seed=1.5),
            dict(seed=True),
            dict(seed="1"),
            dict(n_ini=np.int64(10)),
            # the ratios are finite real numbers, never bools or strings
            dict(r_s="0.5"),
            dict(r_s=True),
            dict(r_m=None),
            dict(r_c=float("nan")),
            dict(r_s=10**400),  # too large for a float
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            tiny_params(**bad)


class TestSelect:
    def test_keeps_top_slice_sorted(self):
        pairs = [("a", 1.0), ("b", 5.0), ("c", 3.0), ("d", 4.0)]
        survivors = select(pairs, r_s=0.5, n_max=10)
        assert survivors == [("b", 5.0), ("d", 4.0)]

    def test_ties_prefer_earlier_entries(self):
        pairs = [("a", 2.0), ("b", 2.0), ("c", 2.0)]
        assert select(pairs, r_s=0.67, n_max=10) == [("a", 2.0), ("b", 2.0)]

    def test_keeps_at_least_two(self):
        pairs = [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        assert len(select(pairs, r_s=0.0, n_max=10)) == 2

    def test_cap_applies(self):
        pairs = [(str(i), float(i)) for i in range(30)]
        assert len(select(pairs, r_s=1.0, n_max=5)) == 5

    def test_floor_is_stable_against_rounding(self):
        """0.29 * 100 must floor to 29, not fall to 28 through 28.999..9."""
        pairs = [(str(i), float(i)) for i in range(100)]
        assert len(select(pairs, r_s=0.29, n_max=200)) == 29
        assert len(select(pairs, r_s=0.57, n_max=200)) == 57

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            select([], r_s=0.5, n_max=10)

    @settings(max_examples=50, deadline=None)
    @given(
        fitness=st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=60),
        percent=st.integers(0, 100),
        n_max=st.integers(2, 80),
    )
    @example(fitness=[1.0, 3.0, 2.0], percent=100, n_max=80)  # keeps everyone
    def test_keeps_formula_count_in_descending_order(self, fitness, percent, n_max):
        pairs = list(enumerate(fitness))
        survivors = select(pairs, r_s=percent / 100, n_max=n_max)
        n = len(pairs)
        assert len(survivors) == min(n_max, max(2, percent * n // 100), n)
        kept = [f for _, f in survivors]
        assert kept == sorted(kept, reverse=True)
        kept_ids = {i for i, _ in survivors}
        assert len(kept_ids) == len(survivors)
        assert all(f <= kept[-1] for i, f in pairs if i not in kept_ids)


class TestCrossover:
    def test_swaps_tails_at_point(self):
        a = Chromosome([[1, 1], [2, 2]], [[0, 0], [0, 0]])
        b = Chromosome([[3, 3], [4, 4]], [[1, 1], [1, 1]])
        c1, c2 = single_point_crossover(a, b, point=3)
        assert c1.statuses.tolist() == [[1, 1], [2, 4]]
        assert c1.patients.tolist() == [[0, 0], [0, 1]]
        assert c2.statuses.tolist() == [[3, 3], [4, 2]]
        assert c2.patients.tolist() == [[1, 1], [1, 0]]

    def test_point_bounds(self):
        a = perfect_chromosome()
        with pytest.raises(ValueError):
            single_point_crossover(a, a, point=0)
        with pytest.raises(ValueError):
            single_point_crossover(a, a, point=a.n_cells)

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.data(),
        spec=SMALL_SPECS,
        kind=st.sampled_from([chromosomes, quantum_chromosomes]),
    )
    def test_cell_multiset_is_preserved(self, data, spec, kind):
        assume(spec.n_cells >= 2)
        a, b = data.draw(kind(spec)), data.draw(kind(spec))
        point = data.draw(st.integers(1, spec.n_cells - 1))
        children = single_point_crossover(a, b, point)
        assert all(type(child) is type(a) for child in children)
        assert cell_counts(*children) == cell_counts(a, b)

    def test_kinds_do_not_mix(self):
        spec = ProblemSpec(n_g=2, n_p=3, n_t=4)
        chrom = random_chromosome(spec, substream(33, 0, 0, 0))
        qchrom = quantum_from_schedule(chrom, spec.n_p)
        with pytest.raises(ValueError):
            single_point_crossover(chrom, qchrom, point=3)
        with pytest.raises(ValueError):
            single_point_crossover(qchrom, chrom, point=3)
        assert chrom != qchrom and qchrom != chrom

    def test_population_growth(self, small_spec):
        rng = substream(32, 0, 0, 0)
        pop = [random_chromosome(small_spec, rng) for _ in range(10)]
        grown = _paired_crossover(pop, 0.27, substream(32, 0, 2, 0))
        # floor(0.27 * 10 / 2) = 1 pair, two children appended
        assert len(grown) == 12
        assert grown[:10] == pop


class TestMutatePatientIds:
    def test_rewrites_whole_same_status_run(self):
        statuses = [[2, 2, 2, 1, 1]]
        patients = [[0, 0, 0, 0, 0]]
        chrom = Chromosome(statuses, patients)
        spec = ProblemSpec(n_g=1, n_p=5, n_t=5)
        seen = set()
        for k in range(40):
            mutated = mutate_patient_ids(chrom, spec, substream(40, k, 4, 0))
            assert mutated.statuses.tolist() == statuses
            runs = {tuple(mutated.patients[0, :3]), tuple(mutated.patients[0, 3:])}
            # a rewrite covers a whole status run, so each run keeps one id
            for run in runs:
                assert len(set(run)) == 1
            seen.add(mutated.patients.tolist()[0][0])
        assert len(seen) > 1

    def test_idle_cells_are_never_targeted(self, small_spec):
        rng = substream(41, 0, 0, 0)
        for k in range(50):
            chrom = random_chromosome(small_spec, rng)
            mutated = mutate_patient_ids(chrom, small_spec, substream(41, k, 4, 1))
            assert np.array_equal(mutated.statuses, chrom.statuses)
            idle = mutated.statuses == 0
            assert np.all(mutated.patients[idle] == -1)

    def test_all_idle_is_returned_unchanged(self):
        statuses, patients = idle_rows(6)
        chrom = Chromosome([statuses], [patients])
        spec = ProblemSpec(n_g=1, n_p=3, n_t=6)
        assert mutate_patient_ids(chrom, spec, substream(42, 0, 4, 0)) is chrom


class TestMutateStatuses:
    def test_stamps_nominal_duration(self, small_spec):
        rng = substream(50, 0, 0, 0)
        durations = [1, 1, 3, 15, 1, 1, 1, 4]
        for k in range(100):
            chrom = random_chromosome(small_spec, rng)
            mutated = mutate_statuses(chrom, small_spec, substream(50, k, 6, 0))
            changed = np.argwhere(
                (mutated.statuses != chrom.statuses)
                | (mutated.patients != chrom.patients)
            )
            if changed.size == 0:
                continue  # stamp landed on identical content
            rows = set(changed[:, 0].tolist())
            assert len(rows) == 1
            g = rows.pop()
            t0, t1 = changed[:, 1].min(), changed[:, 1].max()
            status = int(mutated.statuses[g, t0])
            span = t1 - t0 + 1
            assert np.all(mutated.statuses[g, t0 : t1 + 1] == status)
            assert span <= durations[status]

    def test_idle_stamp_vacates_patients(self):
        chrom = Chromosome([[3] * 6], [[2] * 6])
        spec = ProblemSpec(n_g=1, n_p=4, n_t=6)
        for k in range(30):
            mutated = mutate_statuses(chrom, spec, substream(51, k, 6, 0))
            idle = mutated.statuses == 0
            assert np.all(mutated.patients[idle] == -1)
            busy = mutated.patients[~idle]
            assert np.all(busy >= 0) and np.all(busy < spec.n_p)


def assert_single_treatment(chrom: Chromosome, patient: int, start: int):
    """The one track holds exactly one complete treatment, idle elsewhere."""
    statuses, patients = rows_with_cycle(chrom.n_t, patient, start)
    assert chrom.statuses.tolist() == [statuses]
    assert chrom.patients.tolist() == [patients]
    assert brute_breakdown(chrom.statuses, chrom.patients)["completed_therapies"] == 1


def seeded_case(spec: ProblemSpec) -> tuple[ProblemSpec, Chromosome]:
    return spec, random_chromosome(spec, substream(61, 0, 0, spec.n_t))


def seeded_cases(spec: ProblemSpec) -> tuple[ProblemSpec, list[Chromosome]]:
    return spec, [random_chromosome(spec, substream(61, 0, k, spec.n_t)) for k in range(2)]


class TestRepair:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), spec=SMALL_SPECS)
    def test_output_has_no_structural_penalties(self, data, spec):
        fixed = repair_chromosome(data.draw(chromosomes(spec)), spec)
        got = brute_breakdown(fixed.statuses, fixed.patients)
        assert got["conflicts"] == 0
        assert got["duration_violations"] == 0
        assert got["duplicate_treatments"] == 0
        assert got["interruptions"] == 0

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), spec=SMALL_SPECS)
    def test_matches_walking_reference(self, data, spec):
        chrom = data.draw(chromosomes(spec))
        assert repair_chromosome(chrom, spec) == brute_repair(chrom, spec)

    @staticmethod
    def assert_one_layout_score(spec: ProblemSpec, a: Chromosome, b: Chromosome) -> None:
        """Repairs of a and b score alike; b with a's filled episode starts repairs as a."""
        flat = classical._repair_layout(spec)[0]
        statuses, patients = b.statuses.copy(), b.patients.copy()
        statuses.flat[flat], patients.flat[flat] = a.statuses.take(flat), a.patients.take(flat)
        fixed = [repair_chromosome(c, spec) for c in (a, b, Chromosome(statuses, patients))]
        assert fixed[2] == fixed[0]
        want = brute_breakdown(fixed[0].statuses, fixed[0].patients)
        for chrom in fixed[:2]:
            got = evaluate_breakdown(chrom)
            assert {**got.counts(), "total": got.total} == want
            assert brute_breakdown(chrom.statuses, chrom.patients) == want

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), spec=SMALL_SPECS)
    def test_outputs_share_one_score_and_read_only_episode_starts(self, data, spec):
        a, b = data.draw(chromosomes(spec)), data.draw(chromosomes(spec))
        self.assert_one_layout_score(spec, a, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_outputs_share_one_score_and_read_only_episode_starts_on_large(self, seed):
        spec = ProblemSpec(n_g=3, n_p=72, n_t=650)
        rng = substream(63, 0, 0, seed)
        self.assert_one_layout_score(spec, random_chromosome(spec, rng), random_chromosome(spec, rng))

    def test_matches_walking_reference_on_large(self):
        spec = ProblemSpec(n_g=3, n_p=72, n_t=650)
        rng = substream(62, 0, 0, 0)
        for _ in range(3):
            chrom = random_chromosome(spec, rng)
            assert repair_chromosome(chrom, spec) == brute_repair(chrom, spec)

    @pytest.mark.parametrize(
        "n_t, starts",
        [
            (25, []),
            (26, [0]),
            (27, [1]),
            (52, [1]),
            (53, [1, 27]),
            (54, [1, 28]),
            (108, [1, 28, 55, 82]),
            (650, [1 + 27 * k for k in range(24)]),
        ],
    )
    def test_episode_starts(self, n_t, starts):
        spec = ProblemSpec(n_g=2, n_p=60, n_t=n_t)
        idle_day = Chromosome(np.zeros((2, n_t), dtype=np.int8), np.full((2, n_t), VACANT))
        fixed = repair_chromosome(idle_day, spec)
        for row in fixed.statuses:
            assert np.flatnonzero(row == GantryStatus.READY).tolist() == starts

    @settings(max_examples=50, deadline=None)
    @given(
        case=SMALL_SPECS.flatmap(
            lambda spec: st.tuples(st.just(spec), st.lists(chromosomes(spec), min_size=2))
        )
    )
    @example(case=seeded_cases(ProblemSpec(n_g=3, n_p=2, n_t=60)))  # 6 episodes, 2 patients
    @example(case=seeded_cases(ProblemSpec(n_g=1, n_p=5, n_t=60)))  # 2 episodes, 5 patients
    def test_outputs_share_one_read_only_status_grid(self, case):
        """Every repair output of a spec holds the one status grid of the walking reference.

        No other operator hands that grid on: an output that holds it is its
        input, returned unchanged.
        """
        spec, chroms = case
        fixed = [repair_chromosome(chrom, spec) for chrom in chroms]
        statuses = fixed[0].statuses
        assert all(out.statuses is statuses for out in fixed)
        assert not statuses.flags.writeable
        assert statuses.tobytes() == brute_repair(chroms[0], spec).statuses.tobytes()
        rng = substream(64, 0, 0, len(chroms))
        changed = [mutate_patient_ids(fixed[0], spec, rng), mutate_statuses(fixed[0], spec, rng)]
        if spec.n_cells > 1:
            point = int(rng.integers(1, spec.n_cells))
            changed += single_point_crossover(fixed[0], fixed[1], point)
        assert all(out.statuses is not statuses for out in changed if out is not fixed[0])

    @settings(max_examples=100, deadline=None)
    @given(case=SMALL_SPECS.flatmap(lambda spec: st.tuples(st.just(spec), chromosomes(spec))))
    @example(case=seeded_case(ProblemSpec(n_g=2, n_p=3, n_t=25)))  # no episode fits
    @example(case=seeded_case(ProblemSpec(n_g=3, n_p=2, n_t=60)))  # 6 episodes, 2 patients
    def test_idempotent(self, case):
        """A repair output is its own repair."""
        spec, chrom = case
        once = repair_chromosome(chrom, spec)
        assert repair_chromosome(once, spec) == once

    @pytest.mark.parametrize("spec", [ProblemSpec(3, 12, 108), ProblemSpec(3, 72, 650)])
    def test_idempotent_on_medium_and_large(self, spec):
        rng = substream(61, 0, 0, 0)
        for _ in range(10):
            once = repair_chromosome(random_chromosome(spec, rng), spec)
            assert repair_chromosome(once, spec) == once

    def test_fills_idle_day_with_separated_treatments(self):
        spec = ProblemSpec(n_g=1, n_p=4, n_t=27)
        statuses, patients = idle_rows(27)
        fixed = repair_chromosome(Chromosome([statuses], [patients]), spec)
        assert_single_treatment(fixed, patient=0, start=1)  # slots 1 to 26

    def test_exact_fit_uses_whole_track(self):
        spec = ProblemSpec(n_g=1, n_p=2, n_t=26)
        statuses, patients = idle_rows(26)
        fixed = repair_chromosome(Chromosome([statuses], [patients]), spec)
        assert_single_treatment(fixed, patient=0, start=0)  # slots 0 to 25

    def test_short_track_stays_idle(self):
        spec = ProblemSpec(n_g=1, n_p=2, n_t=25)
        statuses, patients = idle_rows(25)
        fixed = repair_chromosome(Chromosome([statuses], [patients]), spec)
        assert np.all(fixed.statuses == 0)

    def test_keeps_untreated_incumbents(self):
        spec = ProblemSpec(n_g=1, n_p=6, n_t=27)
        chrom = Chromosome([[0] + [3] * 26], [[-1] + [4] * 26])
        fixed = repair_chromosome(chrom, spec)
        assert_single_treatment(fixed, patient=4, start=1)

    @pytest.mark.parametrize("n_g, n_t", [(3, 200), (2, 60), (3, 107)])
    def test_rejects_a_schedule_of_another_shape(self, n_g, n_t):
        """A schedule that does not fit the spec is refused, not rebuilt from the wrong cells."""
        spec = ProblemSpec(3, 12, 108)
        chrom = random_chromosome(ProblemSpec(n_g, 12, n_t), substream(62, 0, 0, 0))
        with pytest.raises(ValueError, match=rf"\({n_g}, {n_t}\) does not match .* \(3, 108\)"):
            repair_chromosome(chrom, spec)


class TestRunClassical:
    def test_record_count_and_population_start(self, small_spec):
        result = run_classical(small_spec, tiny_params(g_max=5))
        assert len(result.records) == 6
        assert result.records[0].generation == 0
        assert result.records[-1].generation == 5
        assert result.records[0].population == PARAMS.n_ini

    def test_best_matches_records(self, small_spec):
        result = run_classical(small_spec, tiny_params(g_max=8))
        assert result.best_breakdown.total == max(r.best_fitness for r in result.records)
        assert evaluate_breakdown(result.best_schedule).total == result.best_breakdown.total

    def test_seed_changes_results(self, small_spec):
        a = run_classical(small_spec, tiny_params(seed=1))
        b = run_classical(small_spec, tiny_params(seed=2))
        assert a.records != b.records

    def test_same_seed_reproduces(self, small_spec):
        a = run_classical(small_spec, tiny_params(seed=9))
        b = run_classical(small_spec, tiny_params(seed=9))
        assert a.records == b.records
        assert a.best_schedule == b.best_schedule

    def test_zero_generations(self, small_spec):
        result = run_classical(small_spec, tiny_params(g_max=0))
        assert len(result.records) == 1

    def test_improves_on_medium_problem(self, medium_spec):
        result = run_classical(medium_spec, tiny_params(g_max=10))
        assert result.best_breakdown.total > result.records[0].best_fitness

    @pytest.mark.parametrize("seed", range(3))
    def test_peak_memory_stays_near_the_estimate(self, seed):
        """A run holds about one population's grids: replaced members are freed."""
        spec = ProblemSpec(n_g=3, n_p=72, n_t=650)
        params = tiny_params(r_c=0.37, n_ini=40, n_max=250, g_max=20, seed=seed)
        run_classical(spec, dataclasses.replace(params, g_max=1))  # warm-up: caches and imports
        tracemalloc.start()
        try:
            run_classical(spec, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * classical.memory_estimate(spec, params)

    @settings(max_examples=40, deadline=None)
    @given(
        spec=SMALL_SPECS.filter(lambda spec: spec.n_cells >= 2),
        r_s=st.integers(0, 100).map(lambda k: k / 100),
        r_c=st.integers(0, 100).map(lambda k: k / 100),
        n_ini=st.integers(2, 12),
        n_max=st.integers(2, 30),
        g_max=st.integers(0, 4),
    )
    def test_peak_population_matches_runs(self, spec, r_s, r_c, n_ini, n_max, g_max):
        """The predicted peak is the largest population a run evaluates."""
        params = tiny_params(r_s=r_s, r_c=r_c, n_ini=n_ini, n_max=n_max, g_max=g_max)
        result = run_classical(spec, params)
        assert max(record.population for record in result.records) == _peak_population(params)

    def test_peak_population_of_the_large_configs(self):
        """Classical large grows from 40 to 342; quantum large stays at 10."""
        grows = tiny_params(r_c=0.37, n_ini=40, n_max=250, g_max=20)
        assert _peak_population(grows) == 342
        assert _peak_population(dataclasses.replace(grows, g_max=0)) == 40
        assert _peak_population(dataclasses.replace(grows, n_ini=10, n_max=70, g_max=60)) == 10


class TestScoreReuse:
    """Classical scoring counts each repair layout once and other schedules afresh."""

    @staticmethod
    def record_evaluations(monkeypatch) -> list:
        """Collect every (breakdown, schedule) the loop's evaluate callback returns."""
        returned = []
        evolve = classical._evolve

        def spy(params, fresh, evaluate, *rest):
            def recording(pop, gen):
                evals = evaluate(pop, gen)
                returned.extend(evals)
                return evals

            return evolve(params, fresh, recording, *rest)

        monkeypatch.setattr(classical, "_evolve", spy)
        return returned

    @staticmethod
    def count_calls(monkeypatch, name, *modules) -> list:
        """Count calls of the first module's ``name`` through every module that binds it."""
        calls = []
        function = getattr(modules[0], name)

        def counting(*args, **kwargs):
            calls.append(None)
            return function(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is function:
                monkeypatch.setattr(module, name, counting)
        return calls

    @staticmethod
    def count_schedules(monkeypatch, *modules) -> list:
        """The number of schedules in each ``_count_events`` call through ``modules``."""
        counted = []
        function = scoring._count_events

        def counting(statuses, patients, table):
            counted.append(len(statuses))
            return function(statuses, patients, table)

        for module in modules:
            if getattr(module, "_count_events", None) is function:
                monkeypatch.setattr(module, "_count_events", counting)
        return counted

    @settings(max_examples=15, deadline=None)
    @given(spec=SMALL_SPECS, seed=st.integers(0, 2**32 - 1))
    def test_every_returned_total_matches_oracle(self, spec, seed):
        with pytest.MonkeyPatch.context() as monkeypatch:
            returned = self.record_evaluations(monkeypatch)
            run_classical(spec, tiny_params(seed=seed, g_max=6))
        oracle = {}
        for breakdown, chrom in returned:
            key = chrom.statuses.tobytes() + chrom.patients.tobytes()
            if key not in oracle:
                oracle[key] = brute_breakdown(chrom.statuses, chrom.patients)["total"]
            assert breakdown.total == oracle[key]

    def test_only_repair_outputs_get_the_layout_score(self, medium_spec, monkeypatch):
        callbacks = {}
        evolve = classical._evolve

        def spy(params, fresh, evaluate, crossover_pop, mutators, repair):
            callbacks.update(fresh=fresh, evaluate=evaluate, repair=repair)
            return evolve(params, fresh, evaluate, crossover_pop, mutators, repair)

        monkeypatch.setattr(classical, "_evolve", spy)
        run_classical(medium_spec, tiny_params(g_max=0))
        pop = [callbacks["fresh"](1)]
        callbacks["repair"](pop, 0, [0])
        (fixed,) = pop
        layout = evaluate_breakdown(fixed)
        counted = self.count_schedules(monkeypatch, scoring, classical)
        # the output itself is known without counting ...
        assert callbacks["evaluate"]([fixed], 1)[0][0] == layout
        assert not counted
        # ... while a content copy is counted, and scores the layout ...
        assert callbacks["evaluate"]([Chromosome(*fixed.grids)], 1)[0][0] == layout
        assert counted == [1]
        # ... and one that agrees at every episode start but not elsewhere differs
        statuses, patients = fixed.statuses.copy(), fixed.patients.copy()
        flat = classical._repair_layout(medium_spec)[0]
        assert statuses[0, 0] == 0 and 0 not in flat
        statuses[0, 0], patients[0, 0] = GantryStatus.DISPOSE, patients[0, 1]
        got = callbacks["evaluate"]([Chromosome(statuses, patients)], 1)[0][0]
        assert counted == [1, 1]
        assert {**got.counts(), "total": got.total} == brute_breakdown(statuses, patients)
        assert got != layout

    def test_counts_only_unknown_schedules_on_medium(self, medium_spec, monkeypatch):
        returned = self.record_evaluations(monkeypatch)
        scorer_calls = self.count_calls(monkeypatch, "evaluate_breakdown", classical)
        counted = self.count_schedules(monkeypatch, scoring, classical)
        run_classical(medium_spec, tiny_params(g_max=200))
        assert len(returned) == 2010
        # every evaluation enters the scorer once ...
        assert len(scorer_calls) == 2010
        # ... which counts the repair layout once and, of the rest, only the
        # 256 schedules that are not this generation's repair outputs
        assert sum(counted) == 257

    @pytest.mark.parametrize("runner", [run_classical, quantum.run_quantum])
    @pytest.mark.parametrize("stack_cells", [1, 3 * 324 - 1])
    def test_stack_size_leaves_runs_unchanged(self, medium_spec, monkeypatch, runner, stack_cells):
        """Counting in stacks of one or two schedules gives the run of one stack per generation."""
        want = runner(medium_spec, tiny_params(g_max=8))
        monkeypatch.setattr(scoring, "_COUNT_CELLS", stack_cells)
        counted = self.count_schedules(monkeypatch, scoring, classical)
        assert runner(medium_spec, tiny_params(g_max=8)) == want
        assert max(counted) == max(1, stack_cells // medium_spec.n_cells)

    def test_cli_run_scores_only_evaluations(self, tmp_path, monkeypatch):
        """Writing the outputs reuses the run's breakdown instead of scoring again."""
        scorer_calls = self.count_calls(
            monkeypatch, "evaluate_breakdown", scoring, classical, quantum, cli
        )
        counted = self.count_schedules(monkeypatch, scoring, classical)
        repairs = self.count_calls(monkeypatch, "repair_chromosome", classical)
        code = main(
            [
                "run", "--config", str(ROOT / "configs" / "medium.json"),
                "--algo", "classical", "--seed", "0", "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 0
        assert len(scorer_calls) == 2010
        assert sum(counted) == 257
        # one repair scores the layout; of the 1600 schedules sent to repair, the
        # 604 that already are repair outputs are kept as they are
        assert len(repairs) == 1 + 996
