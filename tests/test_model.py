"""Domain model tests: statuses, schedules, and the scorer's run and episode parsing."""

from __future__ import annotations

import numpy as np
import pytest

from gantrysched import (
    STATUS_DURATIONS,
    VACANT,
    Chromosome,
    ConfigError,
    GantryStatus,
    ProblemSpec,
    cycle_status_pattern,
    evaluate_breakdown,
    random_chromosome,
    status_duration,
)
from gantrysched.fitness import _complete_episode_starts, _run_bounds
from gantrysched.rng import substream

from conftest import CYCLE_SLOTS, perfect_chromosome, rows_with_cycle


class TestStatusCycle:
    def test_durations(self):
        """Nominal durations follow the status numbering."""
        assert STATUS_DURATIONS.tolist() == [1, 1, 3, 15, 1, 1, 1, 4]
        assert status_duration(GantryStatus.ADJUST_TARGET) == 15
        assert status_duration(0) == 1

    def test_working_cycle_length(self):
        """The working part of one treatment spans 26 slots."""
        assert cycle_status_pattern().size == 26

    def test_expected_next_wraps(self):
        """The cycle is closed: disposal leads back to idle, idle to ready."""
        for status in range(8):
            follower = (status + 1) % 8
            pair = Chromosome(
                [[status, follower]],
                [[VACANT if s == 0 else 0 for s in (status, follower)]],
            )
            assert evaluate_breakdown(pair).ordered_transitions == 1

    def test_cycle_status_pattern(self):
        """The slot pattern expands each working status to its duration."""
        pattern = cycle_status_pattern()
        assert pattern.tolist() == CYCLE_SLOTS


class TestProblemSpec:
    def test_counts(self):
        spec = ProblemSpec(n_g=3, n_p=12, n_t=108)
        assert spec.n_cells == 324

    @pytest.mark.parametrize("bad", [dict(n_g=0), dict(n_p=-1), dict(n_t=0), dict(n_g=True)])
    def test_rejects_non_positive(self, bad):
        values = dict(n_g=2, n_p=3, n_t=20)
        values.update(bad)
        with pytest.raises(ConfigError):
            ProblemSpec(**values)

    @pytest.mark.parametrize("name", ["n_g", "n_p", "n_t"])
    def test_sizes_fit_2_31(self, name):
        """Up to 2**31 of each size is accepted; one more is a configuration error.

        Patient ids are int32, and no larger grid fits the 2 GiB memory bound.
        """
        sizes = dict(n_g=1, n_p=3, n_t=4)
        spec = ProblemSpec(**{**sizes, name: 2**31})
        if name == "n_p":
            assert random_chromosome(spec, substream(5, 0, 0, 0)).patients.dtype == np.int32
        with pytest.raises(ConfigError, match=name):
            ProblemSpec(**{**sizes, name: 2**31 + 1})


class TestChromosome:
    def test_arrays_are_read_only(self):
        chrom = perfect_chromosome()
        with pytest.raises(ValueError):
            chrom.statuses[0, 0] = 1
        with pytest.raises(ValueError):
            chrom.patients[0, 0] = 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            Chromosome([[0, 9]], [[-1, -1]])  # status out of range
        with pytest.raises(ValueError):
            Chromosome([[0]], [[2]])  # idle cell holding a patient
        with pytest.raises(ValueError):
            Chromosome([[1]], [[-1]])  # busy cell without a patient
        with pytest.raises(ValueError):
            Chromosome([[1]], [[5]], n_p=3)  # patient id beyond the roster
        with pytest.raises(ValueError):
            Chromosome([[1, 1]], [[0]])  # shape mismatch
        with pytest.raises(ValueError):  # would wrap to statuses [[0, 1]], patients [[-1, 5]]
            Chromosome(np.array([[256, 257]]), np.array([[-1, 2**32 + 5]]), n_p=12)
        with pytest.raises(ValueError):
            Chromosome([[1]], [[2**32 + 5]])  # would wrap to patient 5 without a roster
        with pytest.raises(ValueError):
            Chromosome(np.array([[1.7]]), np.array([[0]]))  # would truncate to READY
        with pytest.raises(ValueError):
            Chromosome([[1]], [[0.0]])  # float patient ids

    def test_rejects_zero_cells(self):
        empty = np.zeros((1, 0), dtype=np.int8)
        with pytest.raises(ValueError, match="at least one gantry and one slot"):
            Chromosome(empty, empty)

    def test_equality_is_by_value(self):
        a = perfect_chromosome()
        b = perfect_chromosome()
        assert a == b and a is not b
        c = perfect_chromosome(patients=[1])
        assert a != c
        with pytest.raises(TypeError):
            hash(a)

def runs(statuses, patients) -> list[tuple[int, int, int, int]]:
    """(status, patient, start, length) of every run the scorer sees on one track."""
    starts, lengths, run_stat, run_pat, _ = _run_bounds(
        np.array(statuses, dtype=np.int8), np.array(patients, dtype=np.int32)
    )
    return list(zip(run_stat.tolist(), run_pat.tolist(), starts.tolist(), lengths.tolist()))


def complete_episodes(statuses, patients) -> list[int]:
    """Patients of the complete episodes the scorer finds on one track."""
    _, lengths, run_stat, run_pat, opens = _run_bounds(
        np.array(statuses, dtype=np.int8), np.array(patients, dtype=np.int32)
    )
    nominal = lengths == STATUS_DURATIONS[run_stat]
    joined = np.zeros(run_stat.size + 1, dtype=bool)
    joined[1:-1] = (run_pat[1:] == run_pat[:-1]) & ~opens[1:]
    return run_pat[_complete_episode_starts(run_stat, nominal, joined)].tolist()


class TestParseRuns:
    def test_hand_case(self):
        assert runs([0, 1, 1, 2, 0], [-1, 4, 4, 4, -1]) == [
            (GantryStatus.IDLE, VACANT, 0, 1),
            (GantryStatus.READY, 4, 1, 2),
            (GantryStatus.WAIT_PATIENT, 4, 3, 1),
            (GantryStatus.IDLE, VACANT, 4, 1),
        ]

    def test_patient_change_splits_run(self):
        """Same status with a new patient starts a new run."""
        assert runs([3, 3, 3, 3], [0, 0, 1, 1]) == [(3, 0, 0, 2), (3, 1, 2, 2)]

    def test_lengths_cover_track(self, small_spec):
        rng = substream(7, 0, 0, 0)
        for _ in range(50):
            chrom = random_chromosome(small_spec, rng)
            for g in range(small_spec.n_g):
                found = runs(chrom.statuses[g], chrom.patients[g])
                assert sum(length for *_, length in found) == small_spec.n_t
                assert found[0][2] == 0
                assert all(a[2] + a[3] == b[2] for a, b in zip(found, found[1:]))


class TestParseEpisodes:
    def test_complete_cycle(self):
        assert complete_episodes(*rows_with_cycle(28, patient=5, start=1)) == [5]

    def test_short_run_breaks_completeness(self):
        statuses, patients = rows_with_cycle(28, patient=5, start=1)
        statuses[4] = 3  # steal one waiting slot for targeting
        assert complete_episodes(statuses, patients) == []

    def test_patient_change_splits_episode(self):
        """Back-to-back cycles of two patients are two complete episodes."""
        statuses = CYCLE_SLOTS * 2
        patients = [0] * len(CYCLE_SLOTS) + [1] * len(CYCLE_SLOTS)
        assert complete_episodes(statuses, patients) == [0, 1]

    def test_idle_splits_episode(self):
        """An idle slot between two cycles of one patient separates them."""
        statuses = CYCLE_SLOTS + [0] + CYCLE_SLOTS
        patients = [2] * len(CYCLE_SLOTS) + [VACANT] + [2] * len(CYCLE_SLOTS)
        assert complete_episodes(statuses, patients) == [2, 2]


class TestRandomChromosome:
    def test_shape_and_ranges(self, small_spec):
        chrom = random_chromosome(small_spec, substream(3, 0, 0, 0))
        assert chrom.statuses.shape == (small_spec.n_g, small_spec.n_t)
        assert chrom.statuses.dtype == np.int8
        assert chrom.patients.dtype == np.int32
        idle = chrom.statuses == 0
        assert np.all(chrom.patients[idle] == VACANT)
        busy = chrom.patients[~idle]
        assert busy.size == 0 or (busy.min() >= 0 and busy.max() < small_spec.n_p)

    def test_deterministic_per_stream(self, small_spec):
        a = random_chromosome(small_spec, substream(11, 4, 0, 2))
        b = random_chromosome(small_spec, substream(11, 4, 0, 2))
        assert a == b
