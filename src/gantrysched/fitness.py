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
from typing import Iterator, Mapping, Sequence

import numpy as np

from .model import (
    STATUS_DURATIONS,
    N_STATUSES,
    Chromosome,
    GantryStatus,
    ProblemSpec,
    _check_real,
)

_DISPOSE = int(GantryStatus.DISPOSE)
# Offsets of the seven working runs of one episode from its first run.
_CYCLE_RUNS = np.arange(N_STATUSES - 1)
# Cells per stack of schedules counted in one pass (see _count_stacks).
_COUNT_CELLS = 2**13
# Bytes per stacked cell that counting holds at most: about 85 when every cell
# is its own nominal READY run, which maximizes the run arrays.
_COUNT_CELL_BYTES = 96


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
            _check_real(f"score {f.name}", getattr(self, f.name), 0, math.inf)


@dataclass(frozen=True, slots=True)
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
    return sum(terms[_N_PENALTIES:]) - sum(terms[:_N_PENALTIES])


def _run_bounds(statuses: np.ndarray, patients: np.ndarray):
    """Run-length encode a grid of tracks, one track per row (or one 1-d track).

    Returns (starts, lengths, run_statuses, run_patients, opens) as arrays
    over the track-major flattening; a run boundary falls wherever the
    status or the patient changes and at every track start, and ``opens``
    marks the runs that begin a track.
    """
    n_t = statuses.shape[-1]
    statuses, patients = statuses.reshape(-1), patients.reshape(-1)
    breaks = np.ones(statuses.size + 1, dtype=bool)  # before each run and after the last
    inner = breaks[1:-1]
    np.not_equal(statuses[1:], statuses[:-1], out=inner)
    inner |= patients[1:] != patients[:-1]
    breaks[n_t::n_t] = True
    bounds = breaks.nonzero()[0]
    starts = bounds[:-1]
    return starts, bounds[1:] - starts, statuses[starts], patients[starts], starts % n_t == 0


def _complete_episode_starts(
    run_stat: np.ndarray, nominal: np.ndarray, joined: np.ndarray
) -> np.ndarray:
    """Indices of the first runs of complete episodes.

    ``nominal`` marks the runs of nominal length; ``joined[k]`` says that
    run k continues run k - 1's patient on the same track (k = 0 .. number
    of runs, False at both ends).  A complete episode is a READY run of
    nominal length followed by six linked runs, each the next status of
    the cycle at its nominal length on the same track with the same patient,
    and joined to neither neighbor: not embedded in a longer same-patient
    working segment.
    """
    n_windows = max(run_stat.size - _CYCLE_RUNS.size + 1, 0)
    first = ((run_stat[:n_windows] == 1) & nominal[:n_windows]).nonzero()[0]
    links = np.zeros(run_stat.size, dtype=np.intp)  # links among the runs before each run
    ((run_stat[1:] == run_stat[:-1] + 1) & joined[1:-1] & nominal[1:]).cumsum(out=links[1:])
    last = first + _CYCLE_RUNS[-1]
    ok = (links[last] - links[first] == _CYCLE_RUNS[-1]) & ~(joined[first] | joined[last + 1])
    return first[ok]


def evaluate_breakdown(
    chrom: Chromosome, table: ScoreTable = ScoreTable(), known: FitnessBreakdown | None = None
) -> FitnessBreakdown:
    """Deterministically count all scored events of a schedule in one pass.

    ``known``, the breakdown already counted for the schedule, comes back
    uncounted; ``None`` means count.
    """
    return known or next(_count_stacks(chrom.statuses[None], chrom.patients[None], table, [0]))


def _count_bytes(spec: ProblemSpec) -> int:
    """Upper bound on the bytes that counting one stack of the spec's schedules holds."""
    return _COUNT_CELL_BYTES * max(spec.n_cells, _COUNT_CELLS)


def _count_stacks(
    statuses: np.ndarray, patients: np.ndarray, table: ScoreTable, rows: Sequence[int]
) -> Iterator[FitnessBreakdown]:
    """Breakdowns of the listed ``rows`` of stacked (N, n_g, n_t) schedules, a stack at a time.

    A stack holds at most ``_COUNT_CELLS`` cells (or one schedule), which
    bounds the counting kernel's temporaries: a medium generation is one
    stack, a large one a stack per four schedules.  The rows are gathered
    one stack at a time.
    """
    per_stack = max(1, _COUNT_CELLS // (statuses.shape[1] * statuses.shape[2]))
    for k in range(0, len(rows), per_stack):
        part = rows[k : k + per_stack]
        yield from _count_events(statuses[part], patients[part], table)


def _count_events(
    statuses: np.ndarray, patients: np.ndarray, table: ScoreTable
) -> list[FitnessBreakdown]:
    """Breakdowns of N schedules stacked as (N, n_g, n_t) status and patient grids."""
    _, run_len, run_stat, run_pat, opens = _run_bounds(statuses, patients)
    working = run_stat > 0
    nominal = run_len == STATUS_DURATIONS[run_stat]
    consecutive = working & nominal

    # the boundaries between consecutive runs; ``inside`` keeps those within a track
    a, b = run_stat[:-1], run_stat[1:]
    inside = ~opens[1:]
    joined = np.zeros(run_stat.size + 1, dtype=bool)
    same_patient = run_pat[:-1] == run_pat[1:]
    np.logical_and(same_patient, inside, out=joined[1:-1])
    # working runs on either side that switch patients; a boundary's flag sits on
    # its later run, so that a member's slice of runs holds its boundaries too
    handover = working[:-1] & working[1:] & ~same_patient
    transition = np.zeros_like(working)
    np.logical_and((b == (a + 1) % N_STATUSES) & inside, ~handover, out=transition[1:])
    # a patient change between busy slots, except right after a disposal run ends
    interruption = np.zeros_like(working)
    np.logical_and(handover & inside, a != _DISPOSE, out=interruption[1:])
    finished = np.zeros_like(working)
    finished[_complete_episode_starts(run_stat, nominal, joined)] = True

    # busy cells of two gantries sharing a slot and a patient, per gantry offset d;
    # idle cells hold VACANT, so a busy cell's patient matches only busy cells
    busy_cells = statuses > 0
    conflicts = np.zeros(len(statuses), dtype=np.intp)
    for d in range(1, statuses.shape[1]):
        shared = (patients[:, d:] == patients[:, :-d]) & busy_cells[:, d:]
        conflicts += np.count_nonzero(shared, axis=(1, 2))

    # runs break at every track start, so each member owns the runs from its first
    # track's first run to the next member's
    member_runs = opens.nonzero()[0][:: statuses.shape[1]].tolist() + [run_stat.size]
    out = []
    for k, (lo, hi) in enumerate(zip(member_runs, member_runs[1:])):
        busy = np.count_nonzero(busy_cells[k])
        finishers = run_pat[lo:hi][finished[lo:hi]].tolist()
        nominal_runs = np.count_nonzero(consecutive[lo:hi])
        penalties = (
            conflicts[k],
            np.count_nonzero(working[lo:hi]) - nominal_runs,
            len(finishers) - len(set(finishers)),
            np.count_nonzero(interruption[lo:hi]),
            busy,
        )
        benefits = (nominal_runs, np.count_nonzero(transition[lo:hi]), len(finishers))
        counts = dict(zip(COUNT_NAMES, map(int, penalties + benefits)))
        out.append(FitnessBreakdown(**counts, total=weighted_total(counts, table)))
    return out
