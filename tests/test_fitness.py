"""Fitness evaluator tests: frozen hand cases, oracle agreement, invariants."""

from __future__ import annotations

import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gantrysched import (
    VACANT,
    Chromosome,
    ConfigError,
    FitnessBreakdown,
    GantryStatus,
    ProblemSpec,
    ScoreTable,
    evaluate_breakdown,
    mutate_patient_ids,
    mutate_statuses,
    random_chromosome,
    repair_chromosome,
    weighted_total,
)
from gantrysched import fitness
from gantrysched.fitness import COUNT_NAMES
from gantrysched.rng import substream

from brute_fitness import brute_breakdown
from conftest import (
    CYCLE_SLOTS,
    SMALL_SPECS,
    chromosomes,
    idle_rows,
    perfect_chromosome,
    rows_with_cycle,
)


def reference_weighted_total(counts, table: ScoreTable) -> float:
    """The eight weighted terms written out, in the library's order of operations.

    ``brute_breakdown`` subtracts each penalty in turn, so its total can differ
    from the library's in the last bit; this one cannot.
    """
    benefit = (
        table.consecutive_run * counts["consecutive_runs"]
        + table.ordered_transition * counts["ordered_transitions"]
        + table.completed_therapy * counts["completed_therapies"]
    )
    penalty = (
        table.conflict * counts["conflicts"]
        + table.duration_violation * counts["duration_violations"]
        + table.duplicate_treatment * counts["duplicate_treatments"]
        + table.interruption * counts["interruptions"]
        + table.time_per_slot * counts["busy_slots"]
    )
    return benefit - penalty


def assert_matches_oracle(chrom: Chromosome):
    got = evaluate_breakdown(chrom)
    assert {**got.counts(), "total": got.total} == brute_breakdown(chrom.statuses, chrom.patients)


class TestScoreTable:
    def test_defaults(self):
        table = ScoreTable()
        assert table.conflict == 20.0
        assert table.duplicate_treatment == 28.0
        assert table.time_per_slot == 1.5
        assert table.consecutive_run == 3.0

    def test_rejects_negative_weight(self):
        for value in (-1.0, math.inf, math.nan):
            with pytest.raises(ConfigError):
                ScoreTable(interruption=value)
        for value in ("1", True, None, 10**400):  # real numbers that fit a float
            with pytest.raises(ConfigError, match="conflict"):
                ScoreTable(conflict=value)

    def test_weighted_total(self):
        counts = dict.fromkeys(
            (
                "conflicts",
                "duration_violations",
                "duplicate_treatments",
                "interruptions",
                "busy_slots",
                "consecutive_runs",
                "ordered_transitions",
                "completed_therapies",
            ),
            0,
        )
        counts.update(consecutive_runs=2, busy_slots=4, conflicts=1)
        assert weighted_total(counts, ScoreTable()) == 2 * 3.0 - 4 * 1.5 - 1 * 20.0
        assert tuple(counts) == COUNT_NAMES

    @settings(max_examples=300, deadline=None)
    @given(
        # small weights round often, so a changed summation order shows
        weights=st.lists(
            st.floats(0.0, 1e3) | st.floats(min_value=0.0, allow_infinity=False),
            min_size=8,
            max_size=8,
        ),
        values=st.lists(st.integers(0, 10**6), min_size=8, max_size=8),
    )
    def test_weighted_total_is_bit_exact(self, weights, values):
        names = [f.name for f in dataclasses.fields(ScoreTable)]
        table = ScoreTable(**dict(zip(names, weights)))
        counts = dict(zip(COUNT_NAMES, values))
        got, want = weighted_total(counts, table), reference_weighted_total(counts, table)
        assert struct.pack("<d", got) == struct.pack("<d", want)


class TestFrozenCases:
    def test_single_perfect_treatment(self):
        """One complete treatment framed by idle slots scores 162."""
        got = evaluate_breakdown(perfect_chromosome(n_g=1, n_t=28, start=1))
        assert got.consecutive_runs == 7
        assert got.ordered_transitions == 8
        assert got.completed_therapies == 1
        assert got.busy_slots == 26
        assert got.duration_violations == 0
        assert got.interruptions == 0
        assert got.conflicts == 0
        assert got.duplicate_treatments == 0
        assert got.total == 162.0

    def test_duplicated_track_is_penalized(self):
        """The same treatment on two gantries conflicts in every busy slot."""
        chrom = perfect_chromosome(n_g=2, n_t=28, start=1, patients=[0, 0])
        got = evaluate_breakdown(chrom)
        assert got.conflicts == 26
        assert got.duplicate_treatments == 1
        assert got.completed_therapies == 2
        assert got.total == -224.0

    def test_all_idle_scores_zero(self):
        statuses, patients = idle_rows(30)
        got = evaluate_breakdown(Chromosome([statuses] * 3, [patients] * 3))
        assert got == FitnessBreakdown(0, 0, 0, 0, 0, 0, 0, 0, 0.0)


class TestEventSemantics:
    def test_interruption_needs_busy_neighbors(self):
        """A patient change across an idle gap is not an interruption."""
        chrom = Chromosome([[1, 0, 1]], [[0, -1, 1]])
        assert evaluate_breakdown(chrom).interruptions == 0

    def test_interruption_on_mid_cycle_handover(self):
        chrom = Chromosome([[6, 1]], [[0, 1]])
        assert evaluate_breakdown(chrom).interruptions == 1

    def test_no_interruption_after_disposal(self):
        """A handover right after the disposal run ends is allowed."""
        chrom = Chromosome([[7, 7, 7, 7, 1]], [[0, 0, 0, 0, 1]])
        got = evaluate_breakdown(chrom)
        assert got.interruptions == 0
        assert got.consecutive_runs == 2  # both runs at nominal duration

    def test_interruption_inside_disposal(self):
        """A patient change inside a disposal block still ends that run."""
        chrom = Chromosome([[7, 7, 7, 7]], [[0, 0, 1, 1]])
        got = evaluate_breakdown(chrom)
        assert got.interruptions == 0  # slot 1 closes the first disposal run
        assert got.duration_violations == 2

    def test_transition_requires_same_patient_between_working_runs(self):
        same = Chromosome([[6, 7]], [[0, 0]])
        different = Chromosome([[6, 7]], [[0, 1]])
        assert evaluate_breakdown(same).ordered_transitions == 1
        assert evaluate_breakdown(different).ordered_transitions == 0

    def test_transitions_through_idle_ignore_patients(self):
        chrom = Chromosome([[7, 0, 1]], [[0, -1, 1]])
        assert evaluate_breakdown(chrom).ordered_transitions == 2

    def test_conflict_counts_slots_not_pairs(self):
        chrom = Chromosome(
            [[1, 1], [2, 2], [0, 3]],
            [[0, 0], [0, 0], [-1, 0]],
        )
        # slot 0: one busy pair; slot 1: all three gantries hold patient 0
        assert evaluate_breakdown(chrom).conflicts == 4

    def test_embedded_cycle_is_not_complete(self):
        """A perfect cycle glued to extra busy slots of the same patient."""
        statuses = [1] + [1] + [2] * 3 + [3] * 15 + [4] + [5] + [6] + [7] * 4
        patients = [0] * len(statuses)
        got = evaluate_breakdown(Chromosome([statuses], [patients]))
        assert got.completed_therapies == 0
        # leading double-ready run breaks the nominal duration as well
        assert got.duration_violations == 1

    @pytest.mark.parametrize(
        "before, after", [([7] * 4, []), ([], [3] * 15)], ids=["led", "followed"]
    )
    def test_cycle_glued_to_a_same_patient_run_is_not_complete(self, before, after):
        """Nominal runs of the same patient on either side embed the cycle."""
        statuses = before + CYCLE_SLOTS + after
        chrom = Chromosome([statuses], [[0] * len(statuses)])
        assert evaluate_breakdown(chrom).completed_therapies == 0
        assert_matches_oracle(chrom)

    def test_duplicates_count_repeat_completions(self):
        chrom = perfect_chromosome(n_g=3, n_t=28, start=1, patients=[4, 4, 4])
        got = evaluate_breakdown(chrom)
        assert got.completed_therapies == 3
        assert got.duplicate_treatments == 2


class TestOracleAgreement:
    def test_random_small_schedules(self, small_spec):
        rng = substream(2024, 0, 0, 0)
        for _ in range(300):
            assert_matches_oracle(random_chromosome(small_spec, rng))

    def test_random_medium_schedules(self, medium_spec):
        rng = substream(2025, 0, 0, 0)
        for _ in range(30):
            assert_matches_oracle(random_chromosome(medium_spec, rng))

    def test_hand_cases(self):
        assert_matches_oracle(perfect_chromosome(n_g=2, n_t=30, start=2, patients=[0, 0]))
        assert_matches_oracle(Chromosome([[7, 7, 7, 7, 1]], [[0, 0, 0, 0, 1]]))
        assert_matches_oracle(Chromosome([[3] * 6], [[1] * 6]))
        assert_matches_oracle(Chromosome([[0, 1, 1, 2, 0]], [[-1, 4, 4, 4, -1]]))
        assert_matches_oracle(Chromosome([[3, 3, 3, 3]], [[0, 0, 1, 1]]))
        assert_matches_oracle(Chromosome([[1, 2, 2, 2, 1, 2]], [[0, 0, 0, 0, 1, 1]]))
        assert_matches_oracle(Chromosome([[1, 0, 1]], [[0, -1, 0]]))
        short_wait = rows_with_cycle(28, patient=5, start=1)
        short_wait[0][4] = 3  # steal one waiting slot for targeting
        assert_matches_oracle(Chromosome([short_wait[0]], [short_wait[1]]))


@st.composite
def multi_track_schedules(draw) -> Chromosome:
    """Grids of 2 to 4 tracks cut from one stream of whole cycles and loose runs.

    Cutting the stream into tracks puts runs and complete cycles across
    track boundaries, where the scorer must not join them.
    """
    n_g, n_t, n_p = draw(st.integers(2, 4)), draw(st.integers(1, 40)), draw(st.integers(1, 3))
    statuses, patients = [], []
    while len(statuses) < n_g * n_t:
        status = draw(st.integers(0, 8))  # 8 stands for a whole cycle
        patient = -1 if status == 0 else draw(st.integers(0, n_p - 1))
        block = CYCLE_SLOTS if status == 8 else [status] * draw(st.integers(1, 16))
        statuses += block
        patients += [patient] * len(block)
    shape = (n_g, n_t)
    cells = n_g * n_t
    return Chromosome(
        np.reshape(statuses[:cells], shape), np.reshape(patients[:cells], shape)
    )


class TestMutatedRepairOutputs:
    """Repair outputs a few mutations away score as the oracle does.

    Such schedules are dense in complete, almost complete, embedded and
    track-crossing episodes, which random schedules rarely contain.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        spec=st.one_of(SMALL_SPECS, st.just(ProblemSpec(n_g=3, n_p=12, n_t=108))),
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(
            st.sampled_from([mutate_statuses, mutate_patient_ids]), min_size=1, max_size=3
        ),
    )
    def test_match_oracle(self, spec, seed, steps):
        chrom = repair_chromosome(random_chromosome(spec, substream(seed, 0, 0, 0)), spec)
        for k, step in enumerate(steps, start=1):
            chrom = step(chrom, spec, substream(seed, k, 0, 0))
        assert_matches_oracle(chrom)


class TestAcrossTracks:
    @settings(max_examples=50, deadline=None)
    @given(chrom=multi_track_schedules())
    def test_matches_oracle(self, chrom):
        assert_matches_oracle(chrom)

    def test_run_continued_on_next_track_is_two_runs(self):
        """10 targeting slots end track 0 and 5 more begin track 1: not one 15-slot run."""
        chrom = Chromosome(
            [[0, 0] + [3] * 10, [3] * 5 + [0] * 7],
            [[-1, -1] + [0] * 10, [0] * 5 + [-1] * 7],
        )
        got = evaluate_breakdown(chrom)
        assert got.duration_violations == 2
        assert got.consecutive_runs == 0
        assert_matches_oracle(chrom)

    def test_cycle_split_across_tracks_is_not_complete(self):
        """Ready through targeting end track 0; the rest of the cycle begins track 1."""
        head = CYCLE_SLOTS[:19]  # ready, waiting for the patient, targeting
        tail = CYCLE_SLOTS[19:]
        chrom = Chromosome(
            [[0] * 7 + head, tail + [0] * 19],
            [[-1] * 7 + [3] * 19, [3] * 7 + [-1] * 19],
        )
        got = evaluate_breakdown(chrom)
        assert got.completed_therapies == 0
        assert got.consecutive_runs == 7  # every run keeps its nominal length
        assert_matches_oracle(chrom)

    def test_cycles_meeting_at_a_track_start_are_both_complete(self):
        """One patient's cycle ends track 0 and another of theirs begins track 1."""
        chrom = Chromosome(
            [[0] + CYCLE_SLOTS, CYCLE_SLOTS + [0]],
            [[-1] + [3] * 26, [3] * 26 + [-1]],
        )
        got = evaluate_breakdown(chrom)
        assert got.completed_therapies == 2
        assert got.duplicate_treatments == 1
        assert_matches_oracle(chrom)


@st.composite
def cycle_stream_schedules(draw, spec: ProblemSpec) -> Chromosome:
    """One spec's grid cut from a stream of whole cycles and loose runs."""
    cells = spec.n_g * spec.n_t
    statuses, patients = [], []
    while len(statuses) < cells:
        status = draw(st.integers(0, 8))  # 8 stands for a whole cycle
        patient = -1 if status == 0 else draw(st.integers(0, spec.n_p - 1))
        block = CYCLE_SLOTS if status == 8 else [status] * draw(st.integers(1, 16))
        statuses += block
        patients += [patient] * len(block)
    shape = (spec.n_g, spec.n_t)
    return Chromosome(np.reshape(statuses[:cells], shape), np.reshape(patients[:cells], shape))


@st.composite
def schedule_stacks(draw) -> list[Chromosome]:
    """1 to 6 schedules of one spec: random, cycle streams and mutated repair outputs."""
    # many gantries with few patients: conflicts at large offsets and among three or more
    crowded = st.builds(
        ProblemSpec, n_g=st.integers(5, 12), n_p=st.integers(1, 3), n_t=st.integers(1, 60)
    )
    spec = draw(SMALL_SPECS | crowded)
    seed = draw(st.integers(0, 2**32 - 1))
    repaired = repair_chromosome(random_chromosome(spec, substream(seed, 0, 0, 0)), spec)
    kinds = st.one_of(
        chromosomes(spec),
        cycle_stream_schedules(spec),
        st.just(repaired),
        st.integers(0, 2**32 - 1).map(
            lambda k: mutate_statuses(repaired, spec, substream(k, 1, 0, 0))
        ),
    )
    return draw(st.lists(kinds, min_size=1, max_size=6))


def handover_stack() -> list[Chromosome]:
    """Each member ends as the next begins: a targeting run of patient 2.

    Joined, the first two members would hold one complete cycle and the
    last two a nominal 15-slot targeting run.
    """
    return [
        Chromosome([[0] * 14 + CYCLE_SLOTS[:12]], [[-1] * 14 + [2] * 12]),
        Chromosome([CYCLE_SLOTS[12:] + [3] * 12], [[2] * 26]),
        Chromosome([[3] * 3 + [0] * 23], [[2] * 3 + [-1] * 23]),
    ]


class TestStackedCount:
    """``_count_events`` scores every member of a stack as the oracle scores it alone."""

    @settings(max_examples=150, deadline=None)
    @given(members=schedule_stacks())
    @example(members=handover_stack())
    @example(members=[perfect_chromosome(n_g=2, n_t=28), perfect_chromosome(n_g=2, n_t=28)])
    @example(members=[Chromosome([[1, 2, 2, 2, 3]], [[0] * 5]), Chromosome([[3] * 5], [[0] * 5])])
    @example(members=[Chromosome([[7, 7, 7, 7, 1]], [[0, 0, 0, 0, 1]])])
    def test_each_member_matches_oracle(self, members):
        statuses = np.stack([m.statuses for m in members])
        patients = np.stack([m.patients for m in members])
        got = fitness._count_events(statuses, patients, ScoreTable())
        assert len(got) == len(members)
        for member, breakdown in zip(members, got):
            want = brute_breakdown(member.statuses, member.patients)
            assert {**breakdown.counts(), "total": breakdown.total} == want

    def test_runs_do_not_join_across_members(self):
        """Alone, the members of the handover stack finish and violate what they do together."""
        members = handover_stack()
        together = fitness._count_events(
            np.stack([m.statuses for m in members]),
            np.stack([m.patients for m in members]),
            ScoreTable(),
        )
        assert together == [evaluate_breakdown(m) for m in members]
        assert [b.completed_therapies for b in together] == [0, 0, 0]
        assert [b.duration_violations for b in together] == [1, 2, 1]


def stacked(schedules: list[Chromosome], spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (N, n_g, n_t) status and patient stacks of a list of schedules."""
    statuses = np.zeros((len(schedules), spec.n_g, spec.n_t), dtype=np.int8)
    patients = np.full(statuses.shape, VACANT, dtype=np.int32)
    for k, chrom in enumerate(schedules):
        statuses[k], patients[k] = chrom.grids
    return statuses, patients


class TestCountStacks:
    """``_count_stacks`` yields the breakdowns of a stack's listed rows, in order,
    one bounded stack at a time."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), spec=SMALL_SPECS, listed=st.booleans())
    def test_yields_each_breakdown_in_order_in_bounded_stacks(self, data, spec, listed):
        bound = data.draw(st.integers(1, 4 * spec.n_cells), label="_COUNT_CELLS")
        schedules = data.draw(st.lists(chromosomes(spec), max_size=12), label="schedules")
        rows = range(len(schedules))
        if listed and schedules:  # any rows, repeats too, in any order
            rows = data.draw(st.lists(st.integers(0, len(schedules) - 1)), label="rows")
        sizes = []
        count = fitness._count_events

        def counting(statuses, patients, table):
            sizes.append(len(statuses))
            return count(statuses, patients, table)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(fitness, "_COUNT_CELLS", bound)
            monkeypatch.setattr(fitness, "_count_events", counting)
            got = list(fitness._count_stacks(*stacked(schedules, spec), ScoreTable(), rows))
        counted = [schedules[k] for k in rows]
        want = [brute_breakdown(chrom.statuses, chrom.patients) for chrom in counted]
        assert [{**b.counts(), "total": b.total} for b in got] == want
        assert sum(sizes) == len(counted)
        assert max(sizes, default=0) <= max(1, bound // spec.n_cells)

    def test_no_schedules_yield_nothing(self):
        spec = ProblemSpec(n_g=2, n_p=3, n_t=5)
        empty = stacked([], spec)
        assert list(fitness._count_stacks(*empty, ScoreTable(), range(0))) == []
        full = stacked([random_chromosome(spec, substream(4, 0, 0, 0))], spec)
        assert list(fitness._count_stacks(*full, ScoreTable(), [])) == []

    @pytest.mark.parametrize("n_g", [1, 3, 200, 400, 800])
    def test_full_stack_peak_stays_within_the_buffer_bound(self, n_g):
        """Every cell its own nominal READY run: the most run arrays a stack can hold."""
        spec = ProblemSpec(n_g=n_g, n_p=8, n_t=30)
        size = max(1, fitness._COUNT_CELLS // spec.n_cells)
        worst = Chromosome(np.ones((n_g, 30), dtype=np.int8), np.tile(np.arange(30) % 2, (n_g, 1)))
        list(fitness._count_stacks(*stacked([worst], spec), ScoreTable(), [0]))  # warm-up
        stacks = stacked([worst] * size, spec)
        tracemalloc.start()
        try:
            list(fitness._count_stacks(*stacks, ScoreTable(), range(size)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 80 * size * spec.n_cells <= peak <= fitness._count_bytes(spec)


class TestInvariants:
    def test_gantry_order_is_irrelevant(self, small_spec):
        rng = substream(5, 0, 0, 0)
        for _ in range(50):
            chrom = random_chromosome(small_spec, rng)
            flipped = Chromosome(chrom.statuses[::-1], chrom.patients[::-1])
            assert evaluate_breakdown(chrom) == evaluate_breakdown(flipped)

    def test_idle_padding_after_idle_tail_changes_nothing(self, small_spec):
        """Extending a trailing idle run never changes any count.

        Padding is only neutral when the track already ends idle: gluing
        idle slots to a busy tail can mint a disposal-to-idle transition.
        """
        rng = substream(6, 0, 0, 0)
        pad_s = np.zeros((small_spec.n_g, 5), dtype=np.int8)
        pad_p = np.full((small_spec.n_g, 5), -1, dtype=np.int32)
        for _ in range(50):
            chrom = random_chromosome(small_spec, rng)
            statuses = chrom.statuses.copy()
            patients = chrom.patients.copy()
            statuses[:, -1] = 0
            patients[:, -1] = -1
            base = Chromosome(statuses, patients)
            padded = Chromosome(
                np.hstack([base.statuses, pad_s]), np.hstack([base.patients, pad_p])
            )
            assert evaluate_breakdown(padded) == evaluate_breakdown(base)

    def test_padding_a_disposal_tail_adds_one_transition(self):
        chrom = Chromosome([[7, 7, 7, 7]], [[2, 2, 2, 2]])
        padded = Chromosome([[7, 7, 7, 7, 0]], [[2, 2, 2, 2, -1]])
        before = evaluate_breakdown(chrom)
        after = evaluate_breakdown(padded)
        assert after.ordered_transitions == before.ordered_transitions + 1

    def test_total_is_linear_in_weights(self, small_spec):
        rng = substream(8, 0, 0, 0)
        table = ScoreTable(conflict=1.0, time_per_slot=0.0, consecutive_run=7.0)
        for _ in range(20):
            chrom = random_chromosome(small_spec, rng)
            got = evaluate_breakdown(chrom, table)
            assert got.total == weighted_total(got.counts(), table)


class TestKnownBreakdown:
    """A breakdown passed as ``known`` comes back uncounted; ``None`` means count."""

    def test_known_breakdown_is_returned_uncounted(self, monkeypatch):
        chrom = perfect_chromosome(n_g=2)
        want = evaluate_breakdown(chrom)
        held = dataclasses.replace(want, total=-1.0)
        counted = []
        count = fitness._count_events
        monkeypatch.setattr(fitness, "_count_events", lambda *a: counted.append(a) or count(*a))
        table = ScoreTable()
        assert evaluate_breakdown(chrom, table, held) is held
        assert not counted
        assert evaluate_breakdown(chrom, table, None) == want
        assert len(counted) == 1

    def test_counts_its_schedule_as_the_one_row_of_a_stack(self, monkeypatch):
        """A schedule scored alone goes through the one stack counter, as a run's members do."""
        listed = []
        count = fitness._count_stacks
        monkeypatch.setattr(fitness, "_count_stacks", lambda *a: listed.append(a[3]) or count(*a))
        chrom = perfect_chromosome(n_g=2)
        got = evaluate_breakdown(chrom)
        want = brute_breakdown(chrom.statuses, chrom.patients)
        assert {**got.counts(), "total": got.total} == want
        assert listed == [[0]]


class TestKnownObjectiveFlaw:
    """The default weights rank a layout with no finished therapy first.

    These pin today's numbers on the medium problem, so a change of the
    objective shows up here; they do not state the intended ranking.
    """

    MEDIUM = ProblemSpec(n_g=3, n_p=12, n_t=108)
    FRAGMENT = [GantryStatus.WAIT_CONTROL, GantryStatus.WAIT_ACCELERATOR, GantryStatus.IRRADIATE]

    def test_fragment_layout_scores_4806_without_a_therapy(self):
        n_g, n_t = self.MEDIUM.n_g, self.MEDIUM.n_t
        statuses = np.tile(np.array(self.FRAGMENT, dtype=np.int8), (n_g, n_t // 3))
        patients = np.repeat(np.arange(n_g, dtype=np.int32)[:, None], n_t, axis=1)
        chrom = Chromosome(statuses, patients, n_p=self.MEDIUM.n_p)
        got = evaluate_breakdown(chrom, ScoreTable())
        assert got.total == 4806.0
        assert got.counts() == dict(
            conflicts=0, duration_violations=0, duplicate_treatments=0, interruptions=0,
            busy_slots=324, consecutive_runs=324, ordered_transitions=216,
            completed_therapies=0,
        )
        assert_matches_oracle(chrom)

    def test_repair_output_scores_1884_with_every_therapy(self):
        chrom = random_chromosome(self.MEDIUM, substream(0, 0, 0, 0))
        got = evaluate_breakdown(repair_chromosome(chrom, self.MEDIUM), ScoreTable())
        assert got.total == 1884.0
        assert got.completed_therapies == 12
