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

import math

import numpy as np

from .classical import (
    MEMORY_BOUND,
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
    substream,
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
    amps: np.ndarray, targets: np.ndarray, active: np.ndarray, cum: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Boost each active vector's target amplitude and rescale the rest of it.

    The vectors lie along the last axis of ``amps``; ``targets`` (each in
    [0, vector length)) and ``active`` cover the other axes.  The target's
    magnitude becomes min(max(10 * |a|, 0.5), sqrt(0.99)); the other
    amplitudes shrink in proportion to their previous squared values (or
    share the residual uniformly if they were all zero).  A target at or
    above the cap leaves the vector unchanged, as does an inactive cell.
    Signs are preserved.

    Returns the new grid and its cumulative squares.  ``cum`` holds the
    input's cumulative squares (``None`` computes them); only the changed
    vectors are recomputed over it, and when none changes ``amps`` and
    ``cum`` themselves come back.
    """
    n = amps.shape[-1]
    cum = _cumulative(amps) if cum is None else cum
    flat, targets = amps.reshape(-1, n), np.asarray(targets).reshape(-1)
    tgt = flat[np.arange(targets.size), targets]
    rows = (np.asarray(active).reshape(-1) & (np.abs(tgt) < _AMP_CAP)).nonzero()[0]
    if not rows.size:
        return amps, cum
    vectors, targets, tgt = flat[rows], targets[rows], tgt[rows]
    index = np.arange(rows.size)
    squares = vectors * vectors  # reused for the cumulative squares of the result
    boosted = np.minimum(np.maximum(10.0 * np.abs(tgt), _AMP_FLOOR), _AMP_CAP)
    residual = 1.0 - boosted * boosted
    others = squares.sum(axis=-1) - tgt * tgt
    safe = others > 0.0
    vectors *= np.sqrt(residual / np.where(safe, others, 1.0))[:, None]
    if not safe.all():
        vectors[~safe] = np.sqrt(residual[~safe] / (n - 1))[:, None]
    vectors[index, targets] = np.where(tgt < 0, -boosted, boosted)
    np.multiply(vectors, vectors, out=squares).cumsum(axis=-1, out=squares)
    out, out_cum = amps.copy(), cum.copy()
    out.reshape(-1, n)[rows] = vectors
    out_cum.reshape(-1, n)[rows] = squares
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
    _q_repair_members(pop, [0], spec, rng)
    return pop[0]


def _q_repair_members(
    pop: list[QuantumChromosome],
    picked: list[int],
    spec: ProblemSpec,
    rng: np.random.Generator,
) -> None:
    """Replace each picked member, in turn, by its :func:`q_repair` on ``rng``.

    Every member's status target is the status grid of all repair outputs,
    so a member samples only the filled episode starts and picks only their
    patients.  One draw holds the uniforms of one observation per member,
    and the picks of all members come in one pass per register.  Each
    member's registers are then amplified by :func:`_amplify_grid` over the
    cumulative grids it carries.
    """
    flat, statuses, _ = _repair_layout(spec)
    u = rng.random((len(picked), 2, spec.n_cells))[..., flat]
    status_cums = np.array([pop[i].status_cum.reshape(-1, N_STATUSES)[flat] for i in picked])
    id_cums = np.array([pop[i].id_cum.reshape(-1, spec.n_p)[flat] for i in picked])
    busy = statuses != 0
    every = np.ones_like(busy)
    for i, *at in zip(picked, _pick(status_cums, u[:, 0]), _pick(id_cums, u[:, 1])):
        q = pop[i]
        id_targets = np.where(busy, _repair_patients(*at, spec), 0)
        ids, id_cum = _amplify_grid(q.id_amps, id_targets, busy, q.id_cum)
        status_amps, status_cum = _amplify_grid(q.status_amps, statuses, every, q.status_cum)
        pop[i] = QuantumChromosome._adopt(ids, status_amps, id_cum, status_cum)


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
        rng = substream(seed, gen, PHASE_EVAL, 0)
        shadows = [observe(q, rng) for q in pop]
        return list(zip(_score_members(shadows, table), shadows))

    mutators = ((PHASE_MUTATE_PICK_A, _each_member(seed, PHASE_MUTATE_A, q_mutate)),)

    def repair(pop: list, gen: int, picked: list[int]) -> None:
        _q_repair_members(pop, picked, spec, substream(seed, gen, PHASE_REPAIR, 0))

    return _evolve(params, fresh, evaluate, _paired_crossover, mutators, repair)


def memory_estimate(spec: ProblemSpec, params: GaParams) -> int:
    """Bytes that the grids of a run's largest quantum population take.

    A chromosome holds amplitude and cumulative grids of float64 over both
    registers: n_g * n_t * (n_p + 8) * 16 bytes.  Past the bound the
    estimate stops at the first population beyond it.
    """
    member_bytes = spec.n_cells * (spec.n_p + N_STATUSES) * 16
    return member_bytes * _peak_population(params, MEMORY_BOUND // member_bytes)


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
