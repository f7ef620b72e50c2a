"""Quantum-inspired genetic algorithm over amplitude-valued schedules.

Every cell of a quantum chromosome holds two real amplitude vectors: one
over the patient ids and one over the eight gantry statuses.  Observation
projects each cell onto a classical slot without disturbing the stored
amplitudes; mutation collapses one cell to random basis states; repair
amplifies the amplitudes of the classical repair of a shadow schedule so
that later observations concentrate near it.  The generation loop mirrors the
classical one with these operators substituted.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

from .classical import (
    GaParams,
    RunResult,
    _each_member,
    _evolve,
    _paired_crossover,
    _peak_population,
    _repair_layout,
    _repair_patients,
    _score_members,
)
from .fitness import FitnessBreakdown, ScoreTable
from .model import (
    N_STATUSES,
    VACANT,
    Chromosome,
    ProblemSpec,
    _CellGrids,
    _check_int,
)
from .rng import (
    PHASE_EVAL,
    PHASE_MUTATE_A,
    PHASE_MUTATE_PICK_A,
    PHASE_REPAIR,
    substreams,
)

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


def observe(qchrom: QuantumChromosome, rng: np.random.Generator) -> Chromosome:
    """Project every cell onto a classical slot; the amplitudes are untouched."""
    u_status, u_id = rng.random((2, qchrom.n_g, qchrom.n_t))
    statuses = _pick(qchrom.status_cum, u_status).astype(np.int8)
    patients = _pick(qchrom.id_cum, u_id).astype(np.int32)
    patients[statuses == 0] = VACANT
    return Chromosome._adopt(statuses, patients)


def q_mutate(qchrom: QuantumChromosome, rng: np.random.Generator) -> QuantumChromosome:
    """Collapse one random cell to random basis states in both registers."""
    flat = int(rng.integers(0, qchrom.n_cells))
    g, t = divmod(flat, qchrom.n_t)
    id_basis = int(rng.integers(0, qchrom.n_p))
    status_basis = int(rng.integers(0, N_STATUSES))
    ids, statuses, id_cum, status_cum = (grid.copy() for grid in qchrom.grids)
    for amps, cum, basis in ((ids, id_cum, id_basis), (statuses, status_cum, status_basis)):
        amps[g, t] = 0.0
        amps[g, t, basis] = 1.0
        cum[g, t, :basis] = 0.0
        cum[g, t, basis:] = 1.0
    return QuantumChromosome._adopt(ids, statuses, id_cum, status_cum)


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
    Signs are preserved.

    Returns the new grid and its cumulative squares.  Only the changed
    vectors are recomputed over the input's cumulative squares, and when
    none changes ``amps`` itself comes back.
    """
    targets = np.asarray(targets)[None]
    rows = _rows_below_cap([amps], targets, np.asarray(active)[None])
    (change,) = _amplify_rows([amps], targets, rows)
    return _apply(amps, _cumulative(amps), *change)


def _rows_below_cap(
    grids: list[np.ndarray], targets: np.ndarray, active: np.ndarray
) -> list[np.ndarray]:
    """Per grid, the active vectors whose target lies below the cap.

    ``targets`` and ``active`` stack the grids' arguments of
    :func:`_amplify_grid` along a new first axis; rows number the vectors
    in the grid's flattening.
    """
    n = grids[0].shape[-1]
    flat = np.arange(0, targets[0].size * n, n) + targets.reshape(len(grids), -1)
    tgt = np.array([amps.take(idx) for amps, idx in zip(grids, flat)])
    return [row.nonzero()[0] for row in active.reshape(flat.shape) & (np.abs(tgt) < _AMP_CAP)]


def _amplify_rows(
    grids: list[np.ndarray], targets: np.ndarray, rows: list[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Amplify the given rows of several grids in one pass.

    Each grid gets back its rows, their new vectors and their cumulative
    squares, for :func:`_apply`.
    """
    n = grids[0].shape[-1]
    vectors = np.concatenate([amps.reshape(-1, n)[r] for amps, r in zip(grids, rows)])
    targets = np.concatenate([t[r] for t, r in zip(targets.reshape(len(grids), -1), rows)])
    index = np.arange(targets.size)
    tgt = vectors[index, targets]
    squares = vectors * vectors  # reused for the cumulative squares of the result
    boosted = np.minimum(np.maximum(10.0 * np.abs(tgt), _AMP_FLOOR), _AMP_CAP)
    residual = 1.0 - boosted * boosted
    others = squares.sum(axis=-1) - tgt * tgt
    safe = others > 0.0
    vectors *= np.sqrt(residual / np.where(safe, others, 1.0))[:, None]
    if not safe.all():
        vectors[~safe] = np.sqrt(residual[~safe] / (n - 1))[:, None]
    vectors[index, targets] = np.where(tgt < 0, -boosted, boosted)
    vector_cums = np.multiply(vectors, vectors, out=squares).cumsum(axis=-1, out=squares)
    bounds = [0, *itertools.accumulate(r.size for r in rows)]
    return [(r, vectors[lo:hi], vector_cums[lo:hi]) for r, lo, hi in zip(rows, bounds, bounds[1:])]


def _apply(
    amps: np.ndarray,
    cum: np.ndarray,
    rows: np.ndarray,
    vectors: np.ndarray,
    vector_cums: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Copies of a grid and its cumulative squares with ``rows`` replaced, or both as is."""
    if not rows.size:
        return amps, cum
    n = amps.shape[-1]
    out, out_cum = amps.copy(), cum.copy()
    out.reshape(-1, n)[rows] = vectors
    out_cum.reshape(-1, n)[rows] = vector_cums
    return out, out_cum


def q_repair(
    qchrom: QuantumChromosome,
    spec: ProblemSpec,
    rng: np.random.Generator,
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
    pop = [qchrom]
    _q_repair_members(pop, [0], spec, [rng])
    return pop[0]


def _q_repair_members(
    pop: list[QuantumChromosome],
    picked: list[int],
    spec: ProblemSpec,
    rngs: Iterable[np.random.Generator],
) -> None:
    """Replace each picked member by its :func:`q_repair` on its own generator.

    Every member's status target is the status grid of all repair outputs,
    so a member samples only the filled episode starts and picks only their
    patients.  The changed vectors of several members are amplified in one
    pass per register, in groups of about one grid's worth of vectors so
    that the temporaries stay as small as a single member's; each member
    then gets its own copies of the grids.
    """
    flat, statuses, _ = _repair_layout(spec)
    u = np.array([rng.random((2, spec.n_cells)) for rng in rngs])[..., flat]
    status_cum = np.array([pop[i].status_cum.reshape(-1, N_STATUSES)[flat] for i in picked])
    id_cum = np.array([pop[i].id_cum.reshape(-1, spec.n_p)[flat] for i in picked])
    status_at, id_at = _pick(status_cum, u[:, 0]), _pick(id_cum, u[:, 1])
    patients = np.array([_repair_patients(*at, spec) for at in zip(status_at, id_at)])
    statuses = np.broadcast_to(statuses, patients.shape)
    busy = statuses != 0
    id_targets = np.where(busy, patients, 0)
    id_rows = _rows_below_cap([pop[i].id_amps for i in picked], id_targets, busy)
    status_rows = _rows_below_cap(
        [pop[i].status_amps for i in picked], statuses, np.ones_like(busy)
    )
    # a group starts wherever the changed vectors so far pass another grid's worth
    sizes = [a.size + b.size for a, b in zip(id_rows, status_rows)]
    offsets = list(itertools.accumulate(sizes, initial=0))
    for _, group in itertools.groupby(range(len(picked)), key=lambda k: offsets[k] // spec.n_cells):
        group = list(group)
        id_changes = _amplify_rows(
            [pop[picked[k]].id_amps for k in group],
            id_targets[group],
            [id_rows[k] for k in group],
        )
        status_changes = _amplify_rows(
            [pop[picked[k]].status_amps for k in group],
            statuses[group],
            [status_rows[k] for k in group],
        )
        for k, id_change, status_change in zip(group, id_changes, status_changes):
            q = pop[picked[k]]
            ids, id_cum = _apply(q.id_amps, q.id_cum, *id_change)
            status_amps, status_cum = _apply(q.status_amps, q.status_cum, *status_change)
            pop[picked[k]] = QuantumChromosome._adopt(ids, status_amps, id_cum, status_cum)


def run_quantum(
    spec: ProblemSpec,
    params: GaParams,
    table: ScoreTable = ScoreTable(),
) -> RunResult:
    """Run the quantum-inspired genetic algorithm; bit-reproducible per seed."""
    seed = params.seed
    uniform = uniform_quantum_chromosome(spec)

    def fresh(i: int) -> QuantumChromosome:
        return uniform

    def evaluate(pop: list, gen: int) -> list[tuple[FitnessBreakdown, Chromosome]]:
        rngs = substreams(seed, gen, PHASE_EVAL, range(len(pop)))
        shadows = [observe(q, rng) for q, rng in zip(pop, rngs)]
        return list(zip(_score_members(shadows, table), shadows))

    mutators = ((PHASE_MUTATE_PICK_A, _each_member(seed, PHASE_MUTATE_A, q_mutate)),)

    def repair(pop: list, gen: int, picked: list[int]) -> None:
        _q_repair_members(pop, picked, spec, substreams(seed, gen, PHASE_REPAIR, picked))

    return _evolve(params, fresh, evaluate, _paired_crossover, mutators, repair)


def memory_estimate(spec: ProblemSpec, params: GaParams) -> int:
    """Bytes that the grids of a run's largest quantum population take.

    A chromosome holds amplitude and cumulative grids of float64 over both
    registers: n_g * n_t * (n_p + 8) * 16 bytes.
    """
    return spec.n_g * spec.n_t * (spec.n_p + N_STATUSES) * 16 * _peak_population(params)


def qubit_estimate(n_chromosomes: int, n_t: int, n_g: int, n_p: int, n_s: int) -> int:
    """Qubits needed to hold a population on hardware, two registers per cell.

    Each cell stores a patient register of ceil(log2 n_p) qubits and a
    status register of ceil(log2 n_s) qubits.
    """
    values = {
        "n_chromosomes": n_chromosomes,
        "n_t": n_t,
        "n_g": n_g,
        "n_p": n_p,
        "n_s": n_s,
    }
    for name, value in values.items():
        _check_int(name, value, 1)
    bits = (n_p - 1).bit_length() + (n_s - 1).bit_length()
    return n_chromosomes * n_t * n_g * bits
