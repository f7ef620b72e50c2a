"""Quantum-inspired genetic algorithm over amplitude-valued schedules.

Every cell of a quantum chromosome holds two real amplitude vectors: one
over the patient ids and one over the eight gantry statuses.  Observation
projects each cell onto a classical slot without disturbing the stored
amplitudes; mutation collapses one cell to random basis states; repair
amplifies the amplitudes of the classical repair of a shadow schedule so
that later observations concentrate near it.  The generation loop, the
population arena and crossover are the classical ones (see
:mod:`gantrysched.classical`), with these operators substituted.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .classical import (
    GaParams,
    RunResult,
    _crossover,
    _crossover_pairs,
    _evolve,
    _peak_population,
    _population_bytes,
    _repair_layout,
    _repair_patients,
    _score_members,
)
from .fitness import FitnessBreakdown, ScoreTable, _count_stacks
from .model import (
    N_STATUSES,
    VACANT,
    Chromosome,
    ProblemSpec,
    _CellGrids,
    _check_int,
)
from .rng import PHASE_MUTATE_A

_NORM_TOL = 1e-9
_TINY = np.nextafter(0.0, 1.0)  # the least positive float

# Amplification bounds: a target amplitude is boosted tenfold but never
# below sqrt(1/4) nor above sqrt(0.99); at or beyond the cap it is left as is.
_AMP_FLOOR = 0.5
_AMP_CAP = math.sqrt(0.99)


class QuantumChromosome(_CellGrids):
    """Grid of per-cell amplitude vectors for patient ids and statuses.

    ``id_amps`` has shape (n_g, n_t, n_p) and ``status_amps`` has shape
    (n_g, n_t, 8).  Every vector is unit norm within 1e-9.  ``id_cum`` and
    ``status_cum`` carry the cumulative squared amplitudes along each vector,
    which observation reads and the operators keep current.  Instances are
    immutable; operations return new objects.
    """

    _GRIDS = ("id_amps", "status_amps", "id_cum", "status_cum")
    __slots__ = _GRIDS

    def __new__(cls, id_amps, status_amps) -> QuantumChromosome:
        id_amps = np.array(id_amps, dtype=np.float64)
        status_amps = np.array(status_amps, dtype=np.float64)
        if id_amps.ndim != 3 or status_amps.ndim != 3:
            raise ValueError("amplitude grids must be 3-d arrays")
        if id_amps.shape[:2] != status_amps.shape[:2]:
            raise ValueError("id and status grids must cover the same cells")
        if status_amps.shape[2] != N_STATUSES:
            raise ValueError(f"status vectors must have dimension {N_STATUSES}")
        if status_amps.size == 0:
            raise ValueError("a chromosome needs at least one gantry and one slot")
        for name, grid in (("id", id_amps), ("status", status_amps)):
            norms = np.sum(grid * grid, axis=-1)
            drift = float(np.max(np.abs(norms - 1.0)))
            if not drift <= _NORM_TOL:  # NaN drift fails too
                raise ValueError(f"{name} amplitudes are not unit norm (drift {drift:.3g})")
        return cls._adopt(id_amps, status_amps, _cumulative(id_amps), _cumulative(status_amps))

    @property
    def n_p(self) -> int:
        return int(self.id_amps.shape[2])

    def __repr__(self) -> str:
        return f"QuantumChromosome(n_g={self.n_g}, n_t={self.n_t}, n_p={self.n_p})"


def _cumulative(amps: np.ndarray) -> np.ndarray:
    """Cumulative squared amplitudes along the last axis."""
    return (amps * amps).cumsum(axis=-1)


def uniform_quantum_chromosome(spec: ProblemSpec) -> QuantumChromosome:
    """Every cell starts as the uniform superposition in both registers."""
    ids = np.full((spec.n_g, spec.n_t, spec.n_p), 1.0 / math.sqrt(spec.n_p))
    statuses = np.full((spec.n_g, spec.n_t, N_STATUSES), 1.0 / math.sqrt(N_STATUSES))
    return QuantumChromosome._adopt(ids, statuses, _cumulative(ids), _cumulative(statuses))


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-transform indices from cumulative squares; ``u`` in [0, 1] unchecked."""
    # The first index whose cumulative square reaches u * total, or the first nonzero
    # amplitude if that is 0: no cumulative square lies strictly between 0 and _TINY.
    return (cum < np.maximum(u[..., None] * cum[..., -1:], _TINY)).argmin(axis=-1)


# A population arena (see classical._crossover) of QuantumChromosome's four grids.
_Arena = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _observe(grids: _Arena, rows: list[int], u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Status and patient grids that uniforms ``u`` (row, register, cell) pick in ``rows``.

    The status register reads ``u[:, 0]`` and the id register ``u[:, 1]``;
    the cells may take any shape.  Every row is read in place: gathering
    the rows would copy the cumulative grids of the whole population.
    """
    _, _, id_cum, status_cum = grids
    statuses = np.empty((len(u), *u.shape[2:]), dtype=np.int8)
    patients = np.empty(statuses.shape, dtype=np.int32)
    for i, row in enumerate(rows):
        statuses[i] = _pick(status_cum[row], u[i, 0])
        patients[i] = _pick(id_cum[row], u[i, 1])
    patients[statuses == 0] = VACANT
    return statuses, patients


def observe(qchrom: QuantumChromosome, rng: np.random.Generator) -> Chromosome:
    """Project every cell onto a classical slot; the amplitudes are untouched."""
    grids = tuple(grid[None] for grid in qchrom.grids)
    statuses, patients = _observe(grids, [0], rng.random((1, 2, *qchrom.id_amps.shape[:2])))
    return Chromosome._adopt(statuses[0], patients[0])


def _collapse(grids: _Arena, rows: list[int], rng: np.random.Generator) -> None:
    """Collapse one random cell of each row, in turn, to random basis states in both registers."""
    n_cells, n_p = grids[0].shape[1:]
    draws = [
        (rng.integers(0, n_cells), rng.integers(0, n_p), rng.integers(0, N_STATUSES))
        for _ in rows
    ]
    cells, *bases = np.array(draws, dtype=np.intp).reshape(-1, 3).T
    for amps, cum, basis in zip(grids[:2], grids[2:], bases):
        amps[rows, cells] = 0.0
        amps[rows, cells, basis] = 1.0
        cum[rows, cells] = np.arange(amps.shape[-1]) >= basis[:, None]


def q_mutate(qchrom: QuantumChromosome, rng: np.random.Generator) -> QuantumChromosome:
    """Collapse one random cell to random basis states in both registers."""
    return qchrom._through(_collapse, rng)


def _amplify_rows(
    amps: np.ndarray, cum: np.ndarray, rows: np.ndarray, targets: np.ndarray, per_pass: int
) -> None:
    """Amplify the listed rows of ``amps`` toward their targets in place, ``per_pass`` at a time.

    ``amps`` holds one vector per row and ``cum`` its cumulative squares.
    The listed rows of both are rewritten as :func:`_amplify_grid`
    describes, and no other row is read.  A pass's temporaries hold
    ``per_pass`` vectors.
    """
    below = np.abs(amps[rows, targets]) < _AMP_CAP
    rows, targets = rows[below], targets[below]
    n = amps.shape[-1]
    for start in range(0, rows.size, per_pass):
        part, at = rows[start : start + per_pass], targets[start : start + per_pass]
        index = np.arange(part.size)
        vectors = amps[part]
        tgt = vectors[index, at]
        squares = vectors * vectors  # reused for the cumulative squares of the result
        boosted = np.minimum(np.maximum(10.0 * np.abs(tgt), _AMP_FLOOR), _AMP_CAP)
        residual = 1.0 - boosted * boosted
        others = squares.sum(axis=-1) - tgt * tgt
        safe = others > 0.0
        vectors *= np.sqrt(residual / np.where(safe, others, 1.0))[:, None]
        if not safe.all():
            vectors[~safe] = np.sqrt(residual[~safe] / (n - 1))[:, None]
        vectors[index, at] = np.where(tgt < 0, -boosted, boosted)
        np.multiply(vectors, vectors, out=squares).cumsum(axis=-1, out=squares)
        amps[part] = vectors
        cum[part] = squares


def _amplify_grid(
    amps: np.ndarray, targets: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Boost each active vector's target amplitude and rescale the rest of it.

    The vectors lie along the last axis of ``amps``; ``targets`` (each in
    [0, vector length)) and ``active`` cover the other axes.  The target's
    magnitude becomes min(max(10 * |a|, 0.5), sqrt(0.99)); the other
    amplitudes shrink in proportion to their previous squared values (or
    share the residual uniformly if they were all zero).  A target at or
    above the cap leaves the vector unchanged, as does an inactive cell.
    Signs are preserved.  Returns a new grid and its cumulative squares.
    """
    n = amps.shape[-1]
    out = amps.copy()
    out_cum = _cumulative(out)
    rows = np.asarray(active).reshape(-1).nonzero()[0]
    targets = np.asarray(targets).reshape(-1)[rows]
    _amplify_rows(out.reshape(-1, n), out_cum.reshape(-1, n), rows, targets, out.size // n)
    return out, out_cum


def _repair_rows(
    grids: _Arena, rows: list[int], spec: ProblemSpec, rng: np.random.Generator
) -> None:
    """Replace each of ``rows``, in turn, by its :func:`q_repair` on ``rng``, in place.

    Every row's status target is the status grid of all repair outputs, so
    a row samples only the filled episode starts and picks only their
    patients.  One draw holds the uniforms of one observation per row, the
    picks of all rows come in one pass per register, and one call chooses
    their patients.  The vectors below the cap of all rows are then
    amplified together, one member's grid of vectors per pass, over the
    cumulative grids the rows carry.
    """
    ids, statuses, id_cum, status_cum = grids
    n_cells = spec.n_cells
    flat, layout, episode = _repair_layout(spec)
    rows = np.array(rows, dtype=np.intp)[:, None]
    u = rng.random((rows.size, 2, n_cells))[..., flat]
    at_starts = _pick(status_cum[rows, flat], u[:, 0]), _pick(id_cum[rows, flat], u[:, 1])
    patients = _repair_patients(*at_starts)[:, episode]
    busy = layout.nonzero()[0]
    everywhere = np.arange(n_cells)
    for amps, cum, cells, targets in (
        (ids, id_cum, busy, patients[:, busy]),
        (statuses, status_cum, everywhere, np.broadcast_to(layout, patients.shape)),
    ):
        n = amps.shape[-1]
        vectors = (rows * n_cells + cells).reshape(-1)
        targets = targets.reshape(-1).astype(np.intp)
        _amplify_rows(amps.reshape(-1, n), cum.reshape(-1, n), vectors, targets, n_cells)


def q_repair(
    qchrom: QuantumChromosome, spec: ProblemSpec, rng: np.random.Generator
) -> QuantumChromosome:
    """Amplify the amplitudes of the classical repair of a shadow of the chromosome.

    The shadow is the classical repair of one observation.  Repair reads
    only the starts of the episodes it fills, so only they are sampled, from
    uniforms drawn as :func:`observe` draws them.  Every status vector is
    then amplified toward the repair's status, and the id vector toward the
    repair's patient wherever that status is not idle; other id vectors
    stay as is.
    """
    if qchrom.id_amps.shape != (spec.n_g, spec.n_t, spec.n_p):
        raise ValueError(
            f"chromosome shape {qchrom.id_amps.shape} does not match the spec's (n_g, n_t, n_p) "
            f"{(spec.n_g, spec.n_t, spec.n_p)}"
        )
    return qchrom._through(_repair_rows, spec, rng)


def run_quantum(spec: ProblemSpec, params: GaParams, table: ScoreTable = ScoreTable()) -> RunResult:
    """Run the quantum-inspired genetic algorithm; bit-reproducible per seed.

    The members are the rows of an arena of the four grids, sized for the
    largest population, and evaluation scores every row of the observed stacks.
    """
    uniform = [grid.reshape(spec.n_cells, -1) for grid in uniform_quantum_chromosome(spec).grids]
    capacity = _peak_population(params, math.inf)
    grids = tuple(np.empty((capacity, *grid.shape)) for grid in uniform)

    def fresh(rows: list[int], rng: np.random.Generator) -> None:
        for grid, row in zip(grids, uniform):
            grid[rows] = row

    def evaluate(pop: list, gen: int, rng) -> list[tuple[FitnessBreakdown, Chromosome]]:
        u = rng.random((len(pop), 2, spec.n_cells))
        stacks = [stack.reshape(-1, spec.n_g, spec.n_t) for stack in _observe(grids, pop, u)]
        rows = range(len(pop))
        return _score_members(*stacks, rows, table, _count_stacks(*stacks, table, rows))

    def crossover(pop: list, r_c: float, rng: np.random.Generator) -> list:
        return _crossover(grids, pop, _crossover_pairs(len(pop), r_c, spec.n_cells, rng))

    def repair(rows: list[int], rng: np.random.Generator) -> None:
        _repair_rows(grids, rows, spec, rng)

    mutators = ((PHASE_MUTATE_A, functools.partial(_collapse, grids)),)
    return _evolve(params, fresh, evaluate, crossover, mutators, repair)


def memory_estimate(spec: ProblemSpec, params: GaParams) -> int:
    """Bytes of a run's largest quantum population, grids and loop objects.

    A chromosome holds amplitude and cumulative grids of float64 over both
    registers: n_g * n_t * (n_p + 8) * 16 bytes.
    """
    return _population_bytes(params, spec.n_cells * (spec.n_p + N_STATUSES) * 16)


def qubit_estimate(n_chromosomes: int, n_t: int, n_g: int, n_p: int, n_s: int) -> int:
    """Qubits needed to hold a population on hardware, two registers per cell.

    Each cell stores a patient register of ceil(log2 n_p) qubits and a
    status register of ceil(log2 n_s) qubits.
    """
    names = ("n_chromosomes", "n_t", "n_g", "n_p", "n_s")
    for name, value in zip(names, (n_chromosomes, n_t, n_g, n_p, n_s)):
        _check_int(name, value, 1)
    bits = (n_p - 1).bit_length() + (n_s - 1).bit_length()
    return n_chromosomes * n_t * n_g * bits
