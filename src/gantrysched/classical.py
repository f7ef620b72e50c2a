"""Classical genetic algorithm: selection, crossover, mutation, repair, loop.

The generation loop is deterministic for a given seed.  Every randomized
unit of work draws from its own substream (see :mod:`gantrysched.rng`), so
a unit's draws do not depend on how many draws other units made before it.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence, TypeVar

import numpy as np

from .fitness import FitnessBreakdown, ScoreTable, _count_events, evaluate_breakdown
from .model import (
    N_STATUSES,
    VACANT,
    Chromosome,
    ConfigError,
    ProblemSpec,
    _CellGrids,
    _check_int,
    _check_real,
    cycle_status_pattern,
    random_chromosome,
    status_duration,
)
from .rng import (
    PHASE_INIT,
    PHASE_MUTATE_A,
    PHASE_MUTATE_B,
    PHASE_MUTATE_PICK_A,
    PHASE_MUTATE_PICK_B,
    PHASE_PAIRING,
    PHASE_REPAIR_PICK,
    SEED_MAX,
    substream,
)

# Cells per stack of schedules counted in one pass (see _score_members).
_COUNT_CELLS = 2**14

# Ratio-times-count arithmetic uses a tiny slack so that decimal ratios such
# as 0.29 * 100 floor to the intended integer despite binary rounding.
_FLOOR_EPS = 1e-9

G = TypeVar("G", bound=_CellGrids)  # either chromosome kind


def _floor_count(value: float) -> int:
    return math.floor(value + _FLOOR_EPS)


@dataclass(frozen=True)
class GaParams:
    """Run parameters shared by both algorithm variants."""

    r_s: float  # surviving ratio
    r_c: float  # crossover ratio
    r_m: float  # mutation ratio
    r_r: float  # repair ratio
    n_ini: int  # initial population size
    n_max: int  # population cap applied at selection
    g_max: int  # number of generations
    seed: int

    def __post_init__(self) -> None:
        for name in ("r_s", "r_c", "r_m", "r_r"):
            _check_real(name, getattr(self, name), 0, 1)
        for name, low in (("n_ini", 2), ("n_max", 2), ("g_max", 0), ("seed", 0)):
            _check_int(name, getattr(self, name), low)
        if self.seed >= SEED_MAX:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed!r}")


@dataclass(frozen=True)
class GenerationRecord:
    """Best fitness and population size at one evaluation point."""

    generation: int
    best_fitness: float
    population: int


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run: per-generation records and the best schedule seen."""

    records: tuple[GenerationRecord, ...]
    best_schedule: Chromosome
    best_breakdown: FitnessBreakdown
    elapsed: float = field(compare=False)


def select(
    pairs: Sequence[tuple], r_s: float, n_max: int
) -> list[tuple]:
    """Keep the top slice of (chromosome, fitness) pairs by fitness.

    The slice size is min(n_max, max(2, floor(r_s * len(pairs)))), ties are
    broken toward the lower original index, and the survivors come back in
    descending fitness order.
    """
    n = len(pairs)
    if n == 0:
        raise ValueError("cannot select from an empty population")
    k = _survivor_count(n, r_s, n_max)
    order = sorted(range(n), key=lambda i: (-pairs[i][1], i))
    return [pairs[i] for i in order[:k]]


def _survivor_count(n: int, r_s: float, n_max: int) -> int:
    return min(n_max, max(2, _floor_count(r_s * n)), n)


def _pair_count(n: int, r_c: float) -> int:
    return _floor_count(r_c * n / 2)


def _peak_population(params: GaParams) -> int:
    """Largest population a run evaluates, by the selection and crossover counts.

    Mutation and repair keep the size.  Each size determines the next by a
    non-decreasing map, so the sizes only rise or only fall: the peak is
    where they stop rising.
    """
    n = params.n_ini
    for _ in range(params.g_max):
        k = _survivor_count(n, params.r_s, params.n_max)
        grown = k + 2 * _pair_count(k, params.r_c)
        if grown <= n:
            break
        n = grown
    return n


def single_point_crossover(a: G, b: G, point: int) -> tuple[G, G]:
    """Swap cell tails at a cut point in the track-major flattening.

    The parents are of one kind, classical or quantum, and one shape; a
    trailing amplitude axis moves with its cell.
    """
    pairs = tuple(zip(a.grids, b.grids))
    if type(a) is not type(b) or any(x.shape != y.shape for x, y in pairs):
        raise ValueError("parents must be of one type and identical shape")
    n_cells = a.n_cells
    if not 1 <= point <= n_cells - 1:
        raise ValueError(f"crossover point must lie in [1, {n_cells - 1}], got {point}")

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        flat_x, flat_y = x.reshape(n_cells, -1), y.reshape(n_cells, -1)
        return np.concatenate((flat_x[:point], flat_y[point:])).reshape(x.shape)

    return (
        type(a)._adopt(*(mix(x, y) for x, y in pairs)),
        type(a)._adopt(*(mix(y, x) for x, y in pairs)),
    )


def _paired_crossover(pop, r_c, rng):
    """Append children of floor(r_c * N / 2) disjoint random parent pairs."""
    n = len(pop)
    n_pairs = _pair_count(n, r_c)
    out = list(pop)
    if n_pairs == 0 or pop[0].n_cells < 2:
        return out
    chosen = rng.permutation(n)[: 2 * n_pairs]
    points = rng.integers(1, pop[0].n_cells, size=n_pairs)
    for k in range(n_pairs):
        a = pop[int(chosen[2 * k])]
        b = pop[int(chosen[2 * k + 1])]
        out.extend(single_point_crossover(a, b, int(points[k])))
    return out


def mutate_patient_ids(
    chrom: Chromosome, spec: ProblemSpec, rng: np.random.Generator
) -> Chromosome:
    """Rewrite the patient of one busy cell and of its whole same-status run."""
    n_t = chrom.n_t
    flat = int(rng.integers(0, chrom.n_cells))
    g, t = divmod(flat, n_t)
    if chrom.statuses[g, t] == 0:  # idle
        busy = np.flatnonzero(chrom.statuses.reshape(-1))
        if busy.size == 0:
            return chrom
        flat = int(busy[int(rng.integers(0, busy.size))])
        g, t = divmod(flat, n_t)
    new_id = int(rng.integers(0, spec.n_p))
    row = chrom.statuses[g]
    status = row[t]
    left = t
    while left > 0 and row[left - 1] == status:
        left -= 1
    right = t
    while right + 1 < n_t and row[right + 1] == status:
        right += 1
    patients = chrom.patients.copy()
    patients[g, left : right + 1] = new_id
    return Chromosome._adopt(chrom.statuses, patients)


def mutate_statuses(
    chrom: Chromosome, spec: ProblemSpec, rng: np.random.Generator
) -> Chromosome:
    """Stamp a random status over its nominal duration from a random cell."""
    flat = int(rng.integers(0, chrom.n_cells))
    g, t = divmod(flat, chrom.n_t)
    status = int(rng.integers(0, N_STATUSES))
    span = min(status_duration(status), chrom.n_t - t)
    if status == 0:  # idle
        patient = VACANT
    else:
        incumbent = int(chrom.patients[g, t])
        patient = incumbent if incumbent != VACANT else int(rng.integers(0, spec.n_p))
    statuses = chrom.statuses.copy()
    patients = chrom.patients.copy()
    statuses[g, t : t + span] = status
    patients[g, t : t + span] = patient
    return Chromosome._adopt(statuses, patients)


@functools.lru_cache(maxsize=None)
def _repair_layout(n_g: int, n_t: int):
    """Episode start slots, status layout and per-cell episode index of a repair.

    Every track holds the same episodes: one idle separator ahead of each
    complete working cycle while room allows, the last one flush against
    the previous cycle if only that fits.  Episodes are numbered in
    gantry-major order; idle cells hold the episode count.
    """
    cycle = cycle_status_pattern()
    span = cycle.size
    starts = []
    t = 1 if n_t > span else 0
    while t + span <= n_t:
        starts.append(t)
        t += span + 1 if t + 2 * span + 1 <= n_t else span
    n_e = len(starts)
    starts = np.array(starts, dtype=np.intp)
    layout = np.zeros((n_g, n_t), dtype=np.int8)
    episode = np.full((n_g, n_t), n_g * n_e, dtype=np.int64)
    for k, start in enumerate(starts):
        layout[:, start : start + span] = cycle
        episode[:, start : start + span] = np.arange(k, n_g * n_e, n_e)[:, None]
    for table in (starts, layout, episode):
        table.setflags(write=False)
    return starts, layout, episode


def repair_chromosome(chrom: Chromosome, spec: ProblemSpec) -> Chromosome:
    """Rebuild every track as a conflict-free sequence of complete episodes.

    Every track gets the same episode slots: one full working cycle per
    patient, separated by single idle slots when room allows so that the
    cycle transitions stay intact.  The patient of an episode is the
    incumbent cell's id at its first slot when that patient is still
    untreated, otherwise the lowest-index untreated patient; once nobody is
    left the remaining episodes stay idle.  Episodes are filled gantry by
    gantry, so earlier gantries win any contention for patients.  The result
    has no duration violations, conflicts, interruptions, or duplicate
    treatments.
    """
    starts = _repair_layout(spec.n_g, spec.n_t)[0]
    return _repair_starts(chrom.statuses[:, starts], chrom.patients[:, starts], spec)


def _repair_starts(busy_at_starts, incumbents_at_starts, spec: ProblemSpec) -> Chromosome:
    """Repair from the (n_g, episodes) start cells: busy (nonzero) flags and incumbents."""
    _, layout, episode = _repair_layout(spec.n_g, spec.n_t)
    treated = set()
    busy_at = busy_at_starts.ravel().tolist()
    incumbents = incumbents_at_starts.ravel().tolist()
    picks = []
    lowest = 0
    for busy, incumbent in zip(busy_at, incumbents):
        if not busy or incumbent in treated:
            while lowest in treated:
                lowest += 1
            if lowest >= spec.n_p:
                break
            incumbent = lowest
        treated.add(incumbent)
        picks.append(incumbent)
    lookup = np.full(len(busy_at) + 1, VACANT, dtype=np.int32)
    lookup[: len(picks)] = picks
    patients = lookup[episode]
    statuses = np.where(patients != VACANT, layout, 0)
    return Chromosome._adopt(statuses, patients)


def _evolve(
    params: GaParams,
    fresh: Callable[[int], object],
    evaluate: Callable[[list, int], list[tuple[FitnessBreakdown, Chromosome]]],
    crossover_pop: Callable,  # always _paired_crossover; benchmark/tracer.py times it here
    mutators: Sequence[tuple[int, Callable[[list, int, list[int]], None]]],
    repair: Callable[[list, int, list[int]], None],
) -> RunResult:
    """Generation loop shared by the classical and quantum variants.

    ``evaluate(pop, gen)`` returns the breakdown of each member's schedule
    and that schedule; the loop keeps the first best pair it sees.  A
    mutator or ``repair`` called as ``step(pop, gen, picked)`` replaces the
    picked members of ``pop`` in place, each as soon as its replacement is
    built, so that a replaced member can be freed before the next is built.
    """
    started = perf_counter()
    seed = params.seed
    # Mutation and repair alike replace floor(ratio * N) distinct members, so
    # one step reads no result of itself.
    steps = [(tag, params.r_m, mutate) for tag, mutate in mutators]
    steps.append((PHASE_REPAIR_PICK, params.r_r, repair))
    pop = [fresh(i) for i in range(params.n_ini)]
    records: list[GenerationRecord] = []
    best: tuple[FitnessBreakdown, Chromosome] | None = None
    for gen in range(params.g_max + 1):
        evals = evaluate(pop, gen)
        totals = [breakdown.total for breakdown, _ in evals]
        best_idx = int(np.argmax(totals))
        records.append(GenerationRecord(gen, totals[best_idx], len(pop)))
        if best is None or totals[best_idx] > best[0].total:
            best = evals[best_idx]
        if gen == params.g_max:
            break

        # evals and survivors keep the previous generation referenced through mutation
        # and repair; run_classical's weak repair memo depends on it.
        survivors = select(list(zip(pop, totals)), params.r_s, params.n_max)
        pop = [chrom for chrom, _ in survivors]
        pop = crossover_pop(pop, params.r_c, substream(seed, gen, PHASE_PAIRING, 0))

        for pick_phase, ratio, step in steps:
            n_picks = _floor_count(ratio * len(pop))
            if n_picks:
                picked = substream(seed, gen, pick_phase, 0).choice(
                    len(pop), size=n_picks, replace=False
                )
                step(pop, gen, picked.tolist())
    return RunResult(
        records=tuple(records),
        best_schedule=best[1],
        best_breakdown=best[0],
        elapsed=perf_counter() - started,
    )


def _each_member(seed: int, phase: int, operator: Callable) -> Callable:
    """A population step applying ``operator(member, rng)`` on each member's substream."""

    def step(pop: list, gen: int, picked: list[int]) -> None:
        for i in picked:
            pop[i] = operator(pop[i], substream(seed, gen, phase, i))

    return step


def _score_members(
    schedules: list[Chromosome],
    table: ScoreTable,
    held: Callable[[Chromosome], FitnessBreakdown | None] = lambda chrom: None,
) -> list[FitnessBreakdown]:
    """Score a generation's schedules, counting all that ``held`` does not answer at once.

    Every schedule still goes through :func:`evaluate_breakdown`, whose
    ``known`` lookup answers from ``held`` or from that count.  Stacks hold
    at most ``_COUNT_CELLS`` cells (or one schedule), which bounds the
    counting kernel's temporaries: a medium generation is one stack, a
    large one a stack per eight schedules.
    """
    answers = [held(chrom) for chrom in schedules]
    unknown = [chrom for chrom, answer in zip(schedules, answers) if answer is None]
    per_call = max(1, _COUNT_CELLS // schedules[0].n_cells)
    counted = itertools.chain.from_iterable(
        _count_events(
            np.array([chrom.statuses for chrom in chunk]),
            np.array([chrom.patients for chrom in chunk]),
            table,
        )
        for chunk in (unknown[k : k + per_call] for k in range(0, len(unknown), per_call))
    )
    # evaluate_breakdown asks ``known`` once per schedule, in schedule order
    return [
        evaluate_breakdown(chrom, table, lambda _, a=answer: next(counted) if a is None else a)
        for chrom, answer in zip(schedules, answers)
    ]


def run_classical(
    spec: ProblemSpec,
    params: GaParams,
    table: ScoreTable | None = None,
) -> RunResult:
    """Run the classical genetic algorithm; bit-reproducible per seed."""
    if table is None:
        table = ScoreTable()
    seed = params.seed

    def fresh(i: int) -> Chromosome:
        return random_chromosome(spec, substream(seed, 0, PHASE_INIT, i))

    mutators = (
        (
            PHASE_MUTATE_PICK_A,
            _each_member(seed, PHASE_MUTATE_A, lambda c, rng: mutate_patient_ids(c, spec, rng)),
        ),
        (
            PHASE_MUTATE_PICK_B,
            _each_member(seed, PHASE_MUTATE_B, lambda c, rng: mutate_statuses(c, spec, rng)),
        ),
    )

    # Repair reads only the episode starts (busy iff non-vacant), a repair
    # output is its own repair, and all outputs share one score.
    starts = _repair_layout(spec.n_g, spec.n_t)[0]
    repaired = weakref.WeakValueDictionary()
    layout = repair_chromosome(fresh(0), spec)
    (layout_score,) = _count_events(layout.statuses[None], layout.patients[None], table)

    def key(chrom: Chromosome) -> bytes:
        return chrom.patients[:, starts].tobytes()

    def repair(pop: list, gen: int, picked: list[int]) -> None:
        for i in picked:
            fixed = repaired.get(key(pop[i]))
            if fixed is None:
                fixed = repaired[key(pop[i])] = repair_chromosome(pop[i], spec)
                repaired.setdefault(key(fixed), fixed)
            pop[i] = fixed

    def held(chrom: Chromosome) -> FitnessBreakdown | None:  # repair outputs only
        fixed = repaired.get(key(chrom))
        return layout_score if fixed is not None and (fixed is chrom or fixed == chrom) else None

    def evaluate(pop: list, gen: int) -> list[tuple[FitnessBreakdown, Chromosome]]:
        return list(zip(_score_members(pop, table, held), pop))

    return _evolve(params, fresh, evaluate, _paired_crossover, mutators, repair)
