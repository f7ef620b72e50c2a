"""Classical genetic algorithm: selection, crossover, mutation, repair, loop.

The generation loop is deterministic for a given seed.  Every randomized
population step draws from its own substream (see :mod:`gantrysched.rng`),
so a step's draws do not depend on how many draws other steps made.  A run
of either variant holds its population as the rows of one arena of stacked
grids, and each step rewrites the rows it picks in place; the public
operators are one-row calls into those kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Sequence, TypeVar

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
    PHASE_EVAL,
    PHASE_INIT,
    PHASE_MUTATE_A,
    PHASE_MUTATE_B,
    PHASE_PAIRING,
    PHASE_REPAIR,
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


def select(pairs: Sequence[tuple], r_s: float, n_max: int) -> list[tuple]:
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
# Bytes of the objects a run holds per member besides its arena row: its breakdown,
# schedule view, result pair, selection key and free-row entry.  tracemalloc reads
# about 560 per member of one-cell runs of 2**14 members.
_MEMBER_OBJECT_BYTES = 1024


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


def _patient_dtype(n_p: int) -> np.dtype:
    """Narrowest integer type that holds VACANT and every patient id below ``n_p``."""
    return np.min_scalar_type(-n_p)


def _population_bytes(params: GaParams, row_bytes: int) -> int:
    """Bytes of a run's largest population whose members hold ``row_bytes`` of arena each.

    Every member also holds ``_MEMBER_OBJECT_BYTES`` of loop objects.  Past
    the bound the estimate stops at the first population beyond it.
    """
    member_bytes = row_bytes + _MEMBER_OBJECT_BYTES
    return member_bytes * _peak_population(params, MEMORY_BOUND // member_bytes)


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
    grids = tuple(np.concatenate((x, y, x, y)) for x, y in zip(a._one_row(), b._one_row()))
    children = _crossover(grids, [0, 1], [(0, 1, point)])[2:]
    return tuple(type(a)._from_row(grids, row, (a.n_g, a.n_t)) for row in children)


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


def _crossover(grids: tuple[np.ndarray, ...], pop: list[int], pairs: list) -> list[int]:
    """The rows ``pop`` followed by the rows of the two children of each (i, j, cut p) pair.

    A population arena stacks each grid of its members over rows, the cells
    flattened, and its kernels rewrite the rows they are handed in place.
    The children take pop[i]'s cells before p and pop[j]'s from p on, and the
    reverse, in the lowest rows of ``grids`` that ``pop`` does not hold.
    """
    children = sorted(set(range(len(grids[0]))).difference(pop))[: 2 * len(pairs)]
    for (i, j, point), c, d in zip(pairs, children[::2], children[1::2], strict=True):
        a, b = pop[i], pop[j]
        for grid in grids:
            grid[c, :point], grid[c, point:] = grid[a, :point], grid[b, point:]
            grid[d, :point], grid[d, point:] = grid[b, :point], grid[a, point:]
    return pop + children


def _mutate_patient_rows(grids, rows: list[int], n_t: int, n_p: int, rng) -> None:
    """Rewrite the patient of one busy cell's same-status run in each of ``rows`` in turn."""
    statuses, patients = grids
    for row in rows:
        cells = statuses[row]
        flat = int(rng.integers(0, cells.size))
        if cells[flat] == 0:  # idle
            busy = np.flatnonzero(cells)
            if busy.size == 0:
                continue
            flat = int(busy[int(rng.integers(0, busy.size))])
        new_id = int(rng.integers(0, n_p))
        status, first = cells[flat], flat - flat % n_t  # the cell's track starts at first
        left = right = flat
        while left > first and cells[left - 1] == status:
            left -= 1
        while right + 1 < first + n_t and cells[right + 1] == status:
            right += 1
        patients[row, left : right + 1] = new_id


def mutate_patient_ids(
    chrom: Chromosome, spec: ProblemSpec, rng: np.random.Generator
) -> Chromosome:
    """Rewrite the patient of one busy cell and of its whole same-status run.

    An all-idle schedule has no patient to rewrite and comes back as it is.
    """
    mutated = chrom._through(_mutate_patient_rows, chrom.n_t, spec.n_p, rng)
    return mutated if chrom.statuses.any() else chrom


def _mutate_status_rows(grids, rows: list[int], n_t: int, n_p: int, rng) -> None:
    """Stamp a random status over its nominal duration from a random cell of each row in turn."""
    statuses, patients = grids
    for row in rows:
        flat = int(rng.integers(0, statuses.shape[1]))
        status = int(rng.integers(0, N_STATUSES))
        end = flat + min(status_duration(status), n_t - flat % n_t)
        if status == 0:  # idle
            patient = VACANT
        else:
            incumbent = int(patients[row, flat])
            patient = incumbent if incumbent != VACANT else int(rng.integers(0, n_p))
        statuses[row, flat:end] = status
        patients[row, flat:end] = patient


def mutate_statuses(
    chrom: Chromosome, spec: ProblemSpec, rng: np.random.Generator
) -> Chromosome:
    """Stamp a random status over its nominal duration from a random cell."""
    return chrom._through(_mutate_status_rows, chrom.n_t, spec.n_p, rng)


@functools.lru_cache(maxsize=None)
def _repair_layout(spec: ProblemSpec):
    """Filled start cells, and the status and episode of each cell of a repair output.

    Every track holds the same episode slots: one idle separator ahead of
    each complete working cycle while room allows, the last one flush
    against the previous cycle if only that fits.  Repair fills the first
    min(n_p, episodes) in gantry-major order: their start cells come as
    flat indices in that order, and the episode table numbers their cells
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
    statuses = np.zeros(spec.n_cells, dtype=np.int8)
    episode = np.full(spec.n_cells, flat.size, dtype=np.intp)
    for k, start in enumerate(flat):
        statuses[start : start + span] = cycle
        episode[start : start + span] = k
    for table in (flat, statuses, episode):
        table.setflags(write=False)
    return flat, statuses, episode


def _repair_schedule_rows(grids, rows: list[int], spec: ProblemSpec) -> None:
    """Replace each of ``rows`` by its :func:`repair_chromosome`, in place."""
    statuses, patients = grids
    flat, layout, episode = _repair_layout(spec)
    starts = np.ix_(rows, flat)
    for row, picks in zip(rows, _repair_patients(statuses[starts], patients[starts])):
        patients[row] = picks[episode]
    statuses[rows] = layout


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
    treatments; its statuses are the same for every input of the spec
    (:func:`_repair_layout`), and it is its own repair.
    """
    if chrom.statuses.shape != (spec.n_g, spec.n_t):
        raise ValueError(
            f"schedule shape {chrom.statuses.shape} does not match the spec's (n_g, n_t) "
            f"{(spec.n_g, spec.n_t)}"
        )
    return chrom._through(_repair_schedule_rows, spec)


def _repair_patients(busy: np.ndarray, incumbents: np.ndarray) -> np.ndarray:
    """Each row's episode patients, then VACANT, from (rows, starts) busy flags and incumbents."""
    picks = incumbents.tolist()
    for row, flags in zip(picks, busy.tolist()):
        treated, lowest = set(), 0
        for k, is_busy in enumerate(flags):
            if not is_busy or row[k] in treated:
                while lowest in treated:  # at most n_p starts: someone is left
                    lowest += 1
                row[k] = lowest
            treated.add(row[k])
        row.append(VACANT)
    return np.array(picks, dtype=np.int32).reshape(len(picks), busy.shape[1] + 1)


def _evolve(
    params: GaParams,
    fresh: Callable[[list[int], np.random.Generator], None],
    evaluate: Callable[[list[int], int, np.random.Generator], list],
    crossover_pop: Callable,  # benchmark/tracer.py times it here
    mutators: Sequence[tuple[int, Callable[[list[int], np.random.Generator], None]]],
    repair: Callable[[list[int], np.random.Generator], None],
) -> RunResult:
    """Generation loop shared by the classical and quantum variants.

    A member is the index of its row in a population arena that the steps
    share; the loop derives each step's one generator and passes it last.
    ``fresh(rows, rng)`` fills the first rows, ``evaluate(pop, gen, rng)`` returns
    a (breakdown, schedule) pair per member (``gen`` serves wrappers such as
    benchmark/tracer.py), and ``crossover_pop(pop, r_c, rng)`` appends children.
    A mutator or ``repair`` picks rows with its generator and rewrites them as
    ``step(rows, rng)``.  The first best schedule is copied, its patients as
    int32: steps rewrite rows, and a classical arena's patients are narrower.
    """
    started = perf_counter()
    # Mutation and repair alike replace floor(ratio * N) distinct members, so
    # one step reads no result of itself.
    steps = [(tag, params.r_m, step) for tag, step in mutators]
    steps.append((PHASE_REPAIR, params.r_r, repair))
    pop = list(range(params.n_ini))
    fresh(pop, substream(params.seed, 0, PHASE_INIT, 0))
    records: list[GenerationRecord] = []
    best: tuple[FitnessBreakdown, Chromosome] | None = None
    for gen in range(params.g_max + 1):
        evals = evaluate(pop, gen, substream(params.seed, gen, PHASE_EVAL, 0))
        totals = [breakdown.total for breakdown, _ in evals]
        best_idx = int(np.argmax(totals))
        records.append(GenerationRecord(gen, totals[best_idx], len(pop)))
        if best is None or totals[best_idx] > best[0].total:
            breakdown, schedule = evals[best_idx]
            statuses, patients = schedule.statuses.copy(), schedule.patients.astype(np.int32)
            best = breakdown, Chromosome._adopt(statuses, patients)
        del evals
        if gen == params.g_max:
            break

        pop = [row for row, _ in select(list(zip(pop, totals)), params.r_s, params.n_max)]
        pop = crossover_pop(pop, params.r_c, substream(params.seed, gen, PHASE_PAIRING, 0))

        for phase, ratio, step in steps:
            n_picks = _floor_count(ratio * len(pop))
            if n_picks:
                rng = substream(params.seed, gen, phase, 0)
                picked = rng.choice(len(pop), size=n_picks, replace=False)
                step([pop[i] for i in picked.tolist()], rng)
    return RunResult(
        records=tuple(records),
        best_schedule=best[1],
        best_breakdown=best[0],
        elapsed=perf_counter() - started,
    )


def _score_members(
    statuses: np.ndarray, patients: np.ndarray, rows: Iterable[int], table: ScoreTable, breakdowns
) -> list[tuple[FitnessBreakdown, Chromosome]]:
    """(breakdown, schedule view) per listed row of stacked grids, given its counted breakdown."""
    views = (Chromosome._adopt(statuses[row], patients[row]) for row in rows)
    return [(evaluate_breakdown(s, table, known), s) for s, known in zip(views, breakdowns)]


def run_classical(
    spec: ProblemSpec, params: GaParams, table: ScoreTable = ScoreTable()
) -> RunResult:
    """Run the classical genetic algorithm; bit-reproducible per seed.

    The members are rows of a status and a patient arena sized for the largest
    population, the patient arena in the narrowest integer type that holds the
    ids.  Repair sets a row's ``repaired`` flag and every other step that writes
    the row clears it: a flagged row is its own repair and scores as the
    layout, so repair skips it and scoring does not count it.
    """
    capacity = _peak_population(params, math.inf)
    dtypes = (np.int8, _patient_dtype(spec.n_p))
    grids = tuple(np.empty((capacity, spec.n_cells), dtype) for dtype in dtypes)
    statuses, patients = (grid.reshape(capacity, spec.n_g, spec.n_t) for grid in grids)
    repaired = np.zeros(capacity, dtype=bool)
    idle = np.zeros((spec.n_g, spec.n_t), dtype=np.int8)
    layout = repair_chromosome(Chromosome(idle, np.full(idle.shape, VACANT)), spec)
    (layout_score,) = _count_stacks(layout.statuses[None], layout.patients[None], table, [0])

    def fresh(rows: list[int], rng: np.random.Generator) -> None:
        for i in rows:
            for grid, cells in zip(grids, random_chromosome(spec, rng).grids):
                grid[i] = cells.reshape(-1)

    def evaluate(pop: list, gen: int, rng) -> list[tuple[FitnessBreakdown, Chromosome]]:
        flags = repaired[pop].tolist()
        unflagged = [row for row, done in zip(pop, flags) if not done]
        counted = _count_stacks(statuses, patients, table, unflagged)
        breakdowns = (layout_score if done else next(counted) for done in flags)
        return _score_members(statuses, patients, pop, table, breakdowns)

    def crossover(pop: list, r_c: float, rng: np.random.Generator) -> list:
        grown = _crossover(grids, pop, _crossover_pairs(len(pop), r_c, spec.n_cells, rng))
        repaired[grown[len(pop) :]] = False
        return grown

    def mutate(kernel: Callable, rows: list[int], rng: np.random.Generator) -> None:
        kernel(grids, rows, spec.n_t, spec.n_p, rng)
        repaired[rows] = False

    def repair(rows: list[int], rng: np.random.Generator) -> None:
        _repair_schedule_rows(grids, [row for row in rows if not repaired[row]], spec)
        repaired[rows] = True

    mutators = (
        (PHASE_MUTATE_A, functools.partial(mutate, _mutate_patient_rows)),
        (PHASE_MUTATE_B, functools.partial(mutate, _mutate_status_rows)),
    )
    return _evolve(params, fresh, evaluate, crossover, mutators, repair)


def memory_estimate(spec: ProblemSpec, params: GaParams) -> int:
    """Bytes of a run's largest population: per cell an int8 status and a patient id
    of the arena's width (1, 2 or 4 bytes), and the loop objects."""
    return _population_bytes(params, spec.n_cells * (1 + _patient_dtype(spec.n_p).itemsize))
