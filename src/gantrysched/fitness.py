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
from dataclasses import dataclass, fields
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


def weighted_total(counts: Mapping[str, int], table: ScoreTable) -> float:
    """Combine event counts into a fitness value: benefits minus penalties."""
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


@dataclass(frozen=True)
class FitnessBreakdown:
    """Event counts of one schedule plus their weighted total."""

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


def _run_bounds(statuses: np.ndarray, patients: np.ndarray):
    """Run-length encode one track.

    Returns (starts, lengths, run_statuses, run_patients) as arrays; a run
    boundary falls wherever the status or the patient changes.
    """
    n = statuses.size
    change = (statuses[1:] != statuses[:-1]) | (patients[1:] != patients[:-1])
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    ends = np.concatenate((starts[1:], [n]))
    return starts, ends - starts, statuses[starts], patients[starts]


def _complete_episode_patients(
    run_stat: np.ndarray, run_pat: np.ndarray, run_len: np.ndarray
) -> np.ndarray:
    """Patients of complete episodes on one track, one entry per episode.

    A window of seven consecutive runs forms a complete episode when the
    statuses are the working cycle in order, every run has its nominal
    length, the patient never changes, and the window is not embedded in a
    longer same-patient working segment.
    """
    n_r = run_stat.size
    if n_r < N_STATUSES - 1:
        return np.empty(0, dtype=run_pat.dtype)
    m = n_r - (N_STATUSES - 2)
    ok = np.ones(m, dtype=bool)
    first_pat = run_pat[:m]
    for k in range(N_STATUSES - 1):
        ok &= run_stat[k : k + m] == k + 1
        ok &= run_len[k : k + m] == STATUS_DURATIONS[k + 1]
        if k:
            ok &= run_pat[k : k + m] == first_pat
    # window must start and end its same-patient working segment
    left_ok = np.empty(n_r, dtype=bool)
    left_ok[0] = True
    left_ok[1:] = (run_stat[:-1] == 0) | (run_pat[:-1] != run_pat[1:])
    right_ok = np.empty(n_r, dtype=bool)
    right_ok[-1] = True
    right_ok[:-1] = (run_stat[1:] == 0) | (run_pat[1:] != run_pat[:-1])
    ok &= left_ok[:m] & right_ok[N_STATUSES - 2 :]
    return first_pat[ok]


def _track_counts(statuses: np.ndarray, patients: np.ndarray):
    """Count single-track events; returns the counts and complete-episode patients."""
    starts, run_len, run_stat, run_pat = _run_bounds(statuses, patients)
    working = run_stat > 0
    nominal = run_len == STATUS_DURATIONS[run_stat]
    consecutive = int(np.count_nonzero(working & nominal))
    violations = int(np.count_nonzero(working & ~nominal))

    a, b = run_stat[:-1], run_stat[1:]
    follows = b == (a + 1) % N_STATUSES
    both_working = (a > 0) & (b > 0)
    same_patient = run_pat[:-1] == run_pat[1:]
    transitions = int(np.count_nonzero(follows & (~both_working | same_patient)))

    # patient change between busy slots, except right after a disposal run ends
    sa, sb = statuses[:-1], statuses[1:]
    interrupted = (sa > 0) & (sb > 0) & (patients[:-1] != patients[1:]) & (sa != _DISPOSE)
    interruptions = int(np.count_nonzero(interrupted))

    busy = int(np.count_nonzero(statuses))
    complete = _complete_episode_patients(run_stat, run_pat, run_len)
    return consecutive, violations, transitions, interruptions, busy, complete


def evaluate_breakdown(chrom: Chromosome, table: ScoreTable | None = None) -> FitnessBreakdown:
    """Deterministically count all scored events of a schedule."""
    if table is None:
        table = ScoreTable()
    statuses, patients = chrom.statuses, chrom.patients
    n_g = chrom.n_g

    consecutive = violations = transitions = interruptions = busy = 0
    complete_patients: list[np.ndarray] = []
    for g in range(n_g):
        c, v, tr, ir, bu, cp = _track_counts(statuses[g], patients[g])
        consecutive += c
        violations += v
        transitions += tr
        interruptions += ir
        busy += bu
        complete_patients.append(cp)

    conflicts = 0
    for g1 in range(n_g):
        for g2 in range(g1 + 1, n_g):
            both_busy = (statuses[g1] > 0) & (statuses[g2] > 0)
            conflicts += int(
                np.count_nonzero(both_busy & (patients[g1] == patients[g2]))
            )

    finished = np.concatenate(complete_patients) if complete_patients else np.empty(0)
    completed = int(finished.size)
    duplicates = completed - int(np.unique(finished).size)

    counts = {
        "conflicts": conflicts,
        "duration_violations": violations,
        "duplicate_treatments": duplicates,
        "interruptions": interruptions,
        "busy_slots": busy,
        "consecutive_runs": consecutive,
        "ordered_transitions": transitions,
        "completed_therapies": completed,
    }
    return FitnessBreakdown(**counts, total=weighted_total(counts, table))
