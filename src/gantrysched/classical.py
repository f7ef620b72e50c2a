"""Classical genetic algorithm: selection, crossover, mutation, repair, loop.

The generation loop is deterministic for a given seed.  Every randomized
population step draws from its own substream (see :mod:`gantrysched.rng`),
so a step's draws do not depend on how many draws other steps made.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence, TypeVar

import numpy as np

from .fitness import FitnessBreakdown, ScoreTable, _count_stacks, evaluate_breakdown
from .model import (
    N_STATUSES,
    VACANT,
    Chromosome,
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
        # no population past 2**31 chromosomes fits the 2 GiB memory bound
        bounds = {"n_ini": (2, 2**31), "n_max": (2, 2**31), "g_max": (0, math.inf),
                  "seed": (0, SEED_MAX - 1)}
        for name, (low, high) in bounds.items():
            _check_int(name, getattr(self, name), low, high)


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

    The slice size is min(n_max, max(2, floor(r_s * len(pairs))), len(pairs)),
    ties are broken toward the lower original index, and the kept pairs come
    back in descending fitness order.
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


# A run whose largest population and scoring buffers need more bytes than this exits 2.
MEMORY_BOUND = 2**31
# Generations of growth the peak search follows before it answers with a bound.
_PEAK_STEPS = 10**5


def _peak_population(params: GaParams, most: int) -> int:
    """Largest population a run evaluates, or the first size past ``most``.

    Mutation and repair keep the size.  Each size determines the next by a
    non-decreasing map, so the sizes only rise or only fall: the peak is
    where they stop rising.  At most ``n_max`` members survive, so no size
    after the first exceeds n_max + 2 * pairs(n_max); sizes still rising
    after ``_PEAK_STEPS`` generations give that bound instead of the peak.
    """
    n = params.n_ini
    for step in range(params.g_max):
        k = _survivor_count(n, params.r_s, params.n_max)
        grown = k + 2 * _pair_count(k, params.r_c)
        if grown <= n or n > most:
            break
        if step == _PEAK_STEPS:  # the bound is at least grown, so above n
            return params.n_max + 2 * _pair_count(params.n_max, params.r_c)
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


def _crossover_pairs(n: int, r_c: float, n_cells: int, rng: np.random.Generator) -> list:
    """(first, second, cut point) of floor(r_c * n / 2) disjoint random pairs of n members.

    Members of fewer than two cells cannot be cut and make no pairs.
    """
    n_pairs = _pair_count(n, r_c)
    if n_pairs == 0 or n_cells < 2:
        return []
    chosen = rng.permutation(n)[: 2 * n_pairs].tolist()
    points = rng.integers(1, n_cells, size=n_pairs).tolist()
    return list(zip(chosen[::2], chosen[1::2], points))


def _paired_crossover(pop, r_c, rng):
    """Append the two children of each pair that :func:`_crossover_pairs` draws."""
    out = list(pop)
    for a, b, point in _crossover_pairs(len(pop), r_c, pop[0].n_cells, rng):
        out.extend(single_point_crossover(pop[a], pop[b], point))
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
    return Chromosome._adopt(chrom.statuses.copy(), patients)  # repair outputs alone share grids


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
def _repair_layout(spec: ProblemSpec):
    """Filled start cells, the status grid marking repair outputs, and cell episodes.

    Every track holds the same episode slots: one idle separator ahead of
    each complete working cycle while room allows, the last one flush
    against the previous cycle if only that fits.  Repair fills the first
    min(n_p, episodes) in gantry-major order: their start cells come as
    flat indices in that order, and the episode grid numbers their cells
    alike and points all other cells one past the last, at a VACANT slot.
    """
    cycle = cycle_status_pattern()
    span = cycle.size
    starts = []
    t = 1 if spec.n_t > span else 0
    while t + span <= spec.n_t:
        starts.append(t)
        t += span + 1 if t + 2 * span + 1 <= spec.n_t else span
    starts = np.array(starts, dtype=np.intp)
    flat = (np.arange(0, spec.n_cells, spec.n_t)[:, None] + starts).ravel()[: spec.n_p]
    statuses = np.zeros((spec.n_g, spec.n_t), dtype=np.int8)
    episode = np.full((spec.n_g, spec.n_t), flat.size, dtype=np.intp)
    for k, start in enumerate(flat):
        statuses.flat[start : start + span] = cycle
        episode.flat[start : start + span] = k
    for table in (flat, statuses, episode):
        table.setflags(write=False)
    return flat, statuses, episode


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
    treatments; its statuses are the layout's one grid (:func:`_repair_layout`).
    """
    if chrom.statuses.shape != (spec.n_g, spec.n_t):
        raise ValueError(
            f"schedule shape {chrom.statuses.shape} does not match the spec's (n_g, n_t) "
            f"{(spec.n_g, spec.n_t)}"
        )
    flat, statuses, _ = _repair_layout(spec)
    patients = _repair_patients(chrom.statuses.take(flat), chrom.patients.take(flat), spec)
    return Chromosome._adopt(statuses, patients)


def _repair_patients(busy, incumbents, spec: ProblemSpec) -> np.ndarray:
    """Patient grid of a repair from its filled start cells: busy (nonzero) flags and incumbents."""
    picks = incumbents.tolist()
    if not busy.all() or len(set(picks)) < len(picks):  # else the loop keeps every incumbent
        treated = set()
        lowest = 0
        for k, is_busy in enumerate(busy.tolist()):
            if not is_busy or picks[k] in treated:
                while lowest in treated:  # at most n_p starts: someone is left
                    lowest += 1
                picks[k] = lowest
            treated.add(picks[k])
    picks.append(VACANT)
    return np.array(picks, dtype=np.int32)[_repair_layout(spec)[2]]


def _evolve(
    params: GaParams,
    fresh: Callable[[int], object],
    evaluate: Callable[[list, int], list[tuple[FitnessBreakdown, Chromosome]]],
    crossover_pop: Callable,  # each variant's own; benchmark/tracer.py times it here
    mutators: Sequence[tuple[int, Callable[[list, int, list[int]], None]]],
    repair: Callable[[list, int, list[int]], None],
) -> RunResult:
    """Generation loop shared by the classical and quantum variants.

    A member is what ``fresh`` and ``crossover_pop`` return: a chromosome,
    or the index of its row in an arena that the steps share.
    ``evaluate(pop, gen)`` returns a (breakdown, schedule) pair per member;
    the loop keeps the first best pair it sees.  ``crossover_pop(pop, r_c,
    rng)`` returns the survivors followed by their children.  ``step(pop,
    gen, picked)``, a mutator or ``repair``, replaces each picked member of
    ``pop`` in place.  Through these steps the loop keeps no member of the
    previous generation, only ``pop`` and the best pair, so a replaced
    member can be freed.
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
        del evals
        if gen == params.g_max:
            break

        pop = [chrom for chrom, _ in select(list(zip(pop, totals)), params.r_s, params.n_max)]
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
    """A population step applying ``operator(member, rng)`` to each pick in turn, on one rng."""

    def step(pop: list, gen: int, picked: list[int]) -> None:
        rng = substream(seed, gen, phase, 0)
        for i in picked:
            pop[i] = operator(pop[i], rng)

    return step


def _score_members(
    schedules: list[Chromosome],
    table: ScoreTable,
    held: Callable[[Chromosome], FitnessBreakdown | None] = lambda chrom: None,
) -> list[FitnessBreakdown]:
    """Score a generation's schedules, counting all that ``held`` does not answer in stacks.

    Every schedule still goes through :func:`evaluate_breakdown`, whose
    ``known`` lookup answers from ``held`` or from the stacks of
    :func:`_count_stacks`.
    """
    counted = _count_stacks([chrom for chrom in schedules if held(chrom) is None], table)
    # evaluate_breakdown asks ``known`` once per schedule, in schedule order
    known = lambda chrom: held(chrom) or next(counted)  # noqa: E731
    return [evaluate_breakdown(chrom, table, known) for chrom in schedules]


def run_classical(
    spec: ProblemSpec,
    params: GaParams,
    table: ScoreTable = ScoreTable(),
) -> RunResult:
    """Run the classical genetic algorithm; bit-reproducible per seed."""
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

    # Every repair output scores as the layout, and only repair outputs hold its statuses.
    layout = repair_chromosome(fresh(0), spec)
    (layout_score,) = _count_stacks([layout], table)

    def repair(pop: list, gen: int, picked: list[int]) -> None:
        for i in picked:
            if pop[i].statuses is not layout.statuses:  # repair outputs repair to themselves
                pop[i] = repair_chromosome(pop[i], spec)

    def held(chrom: Chromosome) -> FitnessBreakdown | None:
        return layout_score if chrom.statuses is layout.statuses else None

    def evaluate(pop: list, gen: int) -> list[tuple[FitnessBreakdown, Chromosome]]:
        return list(zip(_score_members(pop, table, held), pop))

    return _evolve(params, fresh, evaluate, _paired_crossover, mutators, repair)


def memory_estimate(spec: ProblemSpec, params: GaParams) -> int:
    """Grid bytes of a run's largest classical population: 5 per cell (int8 + int32).

    Past the bound the estimate stops at the first population beyond it.
    """
    member_bytes = spec.n_cells * 5
    return member_bytes * _peak_population(params, MEMORY_BOUND // member_bytes)
