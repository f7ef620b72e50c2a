"""Schedule scoring: weighted occurrence counts of penalties and benefits.

The evaluator counts eight kinds of events and combines them linearly:

Penalties
  conflict             one patient occupies two gantries in the same slot
                       (counted per slot and unordered gantry pair)
  duration_violation   a working-status run whose length differs from the
                       nominal duration of that status
  duplicate_treatment  a finished treatment beyond the first for one patient
  interruption         adjacent busy slots on one track switch patients
                       anywhere except right after a finished disposal run
  time_per_slot        every busy (non-idle) slot

Benefits
  consecutive_run      a working-status run of exactly nominal duration
  ordered_transition   adjacent runs that follow the status cycle; when both
                       runs are working statuses the patient must not change
  completed_therapy    a complete episode

Idle runs are neutral: they are free to hold and never scored directly.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, fields
from functools import reduce
from operator import add
from typing import Mapping

import numpy as np

from .model import (
    STATUS_DURATIONS,
    N_STATUSES,
    Chromosome,
    ConfigError,
    GantryStatus,
)

_DISPOSE = int(GantryStatus.DISPOSE)
# Offsets of the seven working runs of one episode from its first run.
_CYCLE_RUNS = np.arange(N_STATUSES - 1)


@dataclass(frozen=True)
class ScoreTable:
    """Weights applied to event counts. All weights are finite and non-negative."""

    conflict: float = 20.0
    duration_violation: float = 20.0
    duplicate_treatment: float = 28.0
    interruption: float = 12.0
    time_per_slot: float = 1.5
    consecutive_run: float = 3.0
    ordered_transition: float = 20.0
    completed_therapy: float = 20.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"score {f.name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class FitnessBreakdown:
    """Event counts of one schedule plus their weighted total.

    The counts follow :class:`ScoreTable`'s weights in order: the five
    penalties first, then the three benefits.
    """

    conflicts: int
    duration_violations: int
    duplicate_treatments: int
    interruptions: int
    busy_slots: int
    consecutive_runs: int
    ordered_transitions: int
    completed_therapies: int
    total: float

    def counts(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in COUNT_NAMES}


COUNT_NAMES = tuple(f.name for f in fields(FitnessBreakdown) if f.name != "total")
_WEIGHTED_COUNTS = tuple(zip((f.name for f in fields(ScoreTable)), COUNT_NAMES))
_N_PENALTIES = 5  # conflict through time_per_slot


def weighted_total(counts: Mapping[str, int], table: ScoreTable) -> float:
    """Combine event counts into a fitness value: benefits minus penalties.

    Each side is summed left to right in :class:`ScoreTable`'s order.
    """
    terms = [getattr(table, weight) * counts[name] for weight, name in _WEIGHTED_COUNTS]
    return reduce(add, terms[_N_PENALTIES:]) - reduce(add, terms[:_N_PENALTIES])


def _run_bounds(statuses: np.ndarray, patients: np.ndarray):
    """Run-length encode a grid of tracks, one track per row (or one 1-d track).

    Returns (starts, lengths, run_statuses, run_patients, opens) as arrays
    over the track-major flattening; a run boundary falls wherever the
    status or the patient changes and at every track start, and ``opens``
    marks the runs that begin a track.
    """
    n_t = statuses.shape[-1]
    statuses, patients = statuses.reshape(-1), patients.reshape(-1)
    change = (statuses[1:] != statuses[:-1]) | (patients[1:] != patients[:-1])
    change[n_t - 1 :: n_t] = True
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    ends = np.concatenate((starts[1:], [statuses.size]))
    return starts, ends - starts, statuses[starts], patients[starts], starts % n_t == 0


def _complete_episode_patients(
    run_stat: np.ndarray, run_pat: np.ndarray, run_len: np.ndarray, opens: np.ndarray
) -> np.ndarray:
    """Patients of complete episodes, one entry per episode.

    A window of seven consecutive runs of one track forms a complete episode
    when the statuses are the working cycle in order, every run has its
    nominal length, the patient never changes, and the window is not
    embedded in a longer same-patient working segment.
    """
    n_windows = max(run_stat.size - _CYCLE_RUNS.size + 1, 0)
    first = np.flatnonzero(run_stat[:n_windows] == 1)
    window = first[:, None] + _CYCLE_RUNS
    # idle runs hold VACANT, so a patient change also marks every idle neighbor
    apart = np.concatenate(([True], (run_pat[1:] != run_pat[:-1]) | opens[1:], [True]))
    fits = (
        (run_stat[window] == _CYCLE_RUNS + 1)
        & (run_len[window] == STATUS_DURATIONS[1:])
        & (run_pat[window] == run_pat[first, None])
    )
    fits[:, 1:] &= ~opens[window[:, 1:]]
    ok = fits.all(axis=1) & apart[first] & apart[first + _CYCLE_RUNS.size]
    return run_pat[first[ok]]


class ScoreWindow:
    """Breakdowns of the schedules scored in the current and previous generation.

    Keys are the built-in hash of a schedule's bytes.  An entry holds a weak
    reference to its schedule, so the window keeps no dropped schedule alive,
    and counts only while that schedule is alive and equal: a collision or a
    dropped schedule just re-scores.  A window serves one score table.
    """

    __slots__ = ("gen", "current", "previous")

    def __init__(self) -> None:
        self.gen = 0
        self.current: dict[int, tuple] = {}
        self.previous: dict[int, tuple] = {}

    def rotate(self, gen: int) -> None:
        if gen != self.gen:
            self.gen, self.current, self.previous = gen, {}, self.current


def evaluate_breakdown(
    chrom: Chromosome, table: ScoreTable | None = None, window: ScoreWindow | None = None
) -> FitnessBreakdown:
    """Deterministically count all scored events of a schedule in one pass.

    Given a window, a schedule it holds is not counted again, and the
    window's current generation then holds this schedule.
    """
    if table is None:
        table = ScoreTable()
    if window is None:
        return _count_events(chrom, table)
    # the key covers everything the scorer reads of a schedule
    key = hash(chrom.statuses.tobytes() + chrom.patients.tobytes())
    for entry in (window.current.get(key), window.previous.get(key)):
        seen = entry[0]() if entry is not None else None
        if seen is not None and seen == chrom:
            breakdown = entry[1]
            break
    else:
        breakdown = _count_events(chrom, table)
    window.current[key] = (weakref.ref(chrom), breakdown)
    return breakdown


def _count_events(chrom: Chromosome, table: ScoreTable) -> FitnessBreakdown:
    statuses, patients = chrom.statuses, chrom.patients
    _, run_len, run_stat, run_pat, opens = _run_bounds(statuses, patients)
    working = run_stat > 0
    nominal = run_len == STATUS_DURATIONS[run_stat]
    consecutive = int(np.count_nonzero(working & nominal))
    violations = int(np.count_nonzero(working & ~nominal))

    a, b = run_stat[:-1], run_stat[1:]
    follows = (b == (a + 1) % N_STATUSES) & ~opens[1:]
    both_working = (a > 0) & (b > 0)
    same_patient = run_pat[:-1] == run_pat[1:]
    transitions = int(np.count_nonzero(follows & (~both_working | same_patient)))

    # patient change between busy slots, except right after a disposal run ends
    sa, sb = statuses[:, :-1], statuses[:, 1:]
    interrupted = (sa > 0) & (sb > 0) & (patients[:, :-1] != patients[:, 1:]) & (sa != _DISPOSE)
    interruptions = int(np.count_nonzero(interrupted))

    # busy cells of two gantries sharing a slot and a patient, per unordered pair
    busy_cells = statuses > 0
    busy = int(np.count_nonzero(busy_cells))
    shared = (patients[:, None] == patients[None]) & busy_cells[:, None] & busy_cells[None]
    conflicts = (int(np.count_nonzero(shared)) - busy) // 2

    finished = _complete_episode_patients(run_stat, run_pat, run_len, opens).tolist()
    completed = len(finished)
    duplicates = completed - len(set(finished))

    penalties = (conflicts, violations, duplicates, interruptions, busy)
    benefits = (consecutive, transitions, completed)
    counts = dict(zip(COUNT_NAMES, penalties + benefits))
    return FitnessBreakdown(**counts, total=weighted_total(counts, table))
