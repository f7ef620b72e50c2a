"""Quantum-inspired genetic algorithm over amplitude-valued schedules.

Every cell of a quantum chromosome holds two real amplitude vectors: one
over the patient ids and one over the eight gantry statuses.  Observation
projects each cell onto a classical slot without disturbing the stored
amplitudes; mutation collapses one cell to random basis states; repair
amplifies the amplitudes of a classically repaired shadow schedule so that
later observations concentrate near it.  The generation loop mirrors the
classical one with these operators substituted.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .classical import (
    GaParams,
    RunResult,
    _evolve,
    _paired_crossover,
    repair_chromosome,
)
from .fitness import FitnessBreakdown, ScoreTable, evaluate_breakdown
from .model import (
    N_STATUSES,
    VACANT,
    Chromosome,
    ConfigError,
    ProblemSpec,
    _CellGrids,
)
from .rng import (
    PHASE_EVAL,
    PHASE_MUTATE_A,
    PHASE_MUTATE_PICK_A,
    PHASE_REPAIR,
    substream,
)

_NORM_TOL = 1e-9

# Amplification bounds: a target amplitude is boosted tenfold but never
# below sqrt(1/4) nor above sqrt(0.99); at or beyond the cap it is left as is.
_AMP_FLOOR = 0.5
_AMP_CAP = math.sqrt(0.99)


class QuantumChromosome(_CellGrids):
    """Grid of per-cell amplitude vectors for patient ids and statuses.

    ``id_amps`` has shape (n_g, n_t, n_p) and ``status_amps`` has shape
    (n_g, n_t, 8).  Every vector is unit norm within 1e-9.  Instances are
    immutable; operations return new objects.
    """

    _GRIDS = ("id_amps", "status_amps")
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
        return cls._adopt(id_amps, status_amps)

    @property
    def n_p(self) -> int:
        return int(self.id_amps.shape[2])

    def __repr__(self) -> str:
        return f"QuantumChromosome(n_g={self.n_g}, n_t={self.n_t}, n_p={self.n_p})"


def uniform_quantum_chromosome(spec: ProblemSpec) -> QuantumChromosome:
    """Every cell starts as the uniform superposition in both registers."""
    ids = np.full((spec.n_g, spec.n_t, spec.n_p), 1.0 / math.sqrt(spec.n_p))
    statuses = np.full((spec.n_g, spec.n_t, N_STATUSES), 1.0 / math.sqrt(N_STATUSES))
    return QuantumChromosome._adopt(ids, statuses)


def sample_index(v, u):
    """Sample basis indices from squared amplitudes by inverse transform.

    Each vector along the last axis of ``v`` takes its draw from ``u`` (one
    vector may also take a batch of draws).  The result is the smallest index
    whose cumulative squared amplitude reaches ``u`` times the vector's total.
    ``u = 0`` picks the first nonzero amplitude; a scalar ``u`` gives an ``int``.
    """
    v = np.asarray(v, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    sq = v * v
    cum = np.cumsum(sq, axis=-1)
    idx = np.sum(cum < u[..., None] * cum[..., -1:], axis=-1)
    if np.any(u == 0):
        idx = np.where(u == 0, np.argmax(sq > 0, axis=-1), idx)
    return int(idx) if np.ndim(idx) == 0 else idx


def observe(qchrom: QuantumChromosome, rng: np.random.Generator) -> Chromosome:
    """Project every cell onto a classical slot; the amplitudes are untouched."""
    shape = (qchrom.n_g, qchrom.n_t)
    statuses = sample_index(qchrom.status_amps, rng.random(shape)).astype(np.int8)
    patients = sample_index(qchrom.id_amps, rng.random(shape)).astype(np.int32)
    patients[statuses == 0] = VACANT
    return Chromosome._adopt(statuses, patients)


def q_mutate(qchrom: QuantumChromosome, rng: np.random.Generator) -> QuantumChromosome:
    """Collapse one random cell to random basis states in both registers."""
    flat = int(rng.integers(0, qchrom.n_cells))
    g, t = divmod(flat, qchrom.n_t)
    id_basis = int(rng.integers(0, qchrom.n_p))
    status_basis = int(rng.integers(0, N_STATUSES))
    ids = qchrom.id_amps.copy()
    statuses = qchrom.status_amps.copy()
    ids[g, t] = 0.0
    ids[g, t, id_basis] = 1.0
    statuses[g, t] = 0.0
    statuses[g, t, status_basis] = 1.0
    return QuantumChromosome._adopt(ids, statuses)


def amplify(v, target: int) -> np.ndarray:
    """Boost the target amplitude and rescale the rest of the vector.

    The target's magnitude becomes min(max(10 * |a|, 0.5), sqrt(0.99)); the
    other amplitudes shrink in proportion to their previous squared values
    (or share the residual uniformly if they were all zero).  A target at or
    above the cap leaves the vector unchanged.  Signs are preserved.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"amplify takes a 1-d vector, got {v.ndim} dimensions")
    try:
        index = operator.index(target)
    except TypeError:
        raise ValueError(f"target must be an integer, got {target!r}") from None
    if isinstance(target, bool) or not 0 <= index < v.size:
        raise ValueError(f"target must index into the vector, got {target!r}")
    return _amplify_grid(v, np.asarray(index), np.asarray(True))


def _amplify_grid(amps: np.ndarray, targets: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Amplify each active cell toward its target as :func:`amplify` describes."""
    tgt = np.take_along_axis(amps, targets[..., None], axis=-1)[..., 0]
    a = np.abs(tgt)
    do = active & (a < _AMP_CAP)
    if not np.any(do):
        return amps.copy()
    boosted = np.clip(10.0 * a, _AMP_FLOOR, _AMP_CAP)
    residual = 1.0 - boosted * boosted
    sq = amps * amps
    others = np.sum(sq, axis=-1) - tgt * tgt
    safe = others > 0.0
    scale = np.sqrt(residual / np.where(safe, others, 1.0))
    factor = np.where(do & safe, scale, 1.0)
    out = amps * factor[..., None]
    uniform = do & ~safe
    if np.any(uniform):
        share = np.sqrt(residual / (amps.shape[-1] - 1))
        out = np.where(uniform[..., None], share[..., None], out)
    new_tgt = np.where(do, np.where(tgt < 0, -boosted, boosted), tgt)
    np.put_along_axis(out, targets[..., None], new_tgt[..., None], axis=-1)
    return out


def q_repair(
    qchrom: QuantumChromosome,
    spec: ProblemSpec,
    rng: np.random.Generator,
) -> QuantumChromosome:
    """Amplify the amplitudes of a repaired shadow of the chromosome.

    One observation is repaired classically; every status vector is then
    amplified toward the repaired status, and the id vector toward the
    repaired patient wherever that status is not idle.  Id vectors of idle
    cells are left untouched.
    """
    shadow = observe(qchrom, rng)
    desired = repair_chromosome(shadow, spec)
    all_cells = np.ones((qchrom.n_g, qchrom.n_t), dtype=bool)
    statuses = _amplify_grid(
        qchrom.status_amps, desired.statuses.astype(np.int64), all_cells
    )
    busy = desired.statuses != 0
    id_targets = np.where(busy, desired.patients, 0).astype(np.int64)
    ids = _amplify_grid(qchrom.id_amps, id_targets, busy)
    return QuantumChromosome._adopt(ids, statuses)


def run_quantum(
    spec: ProblemSpec,
    params: GaParams,
    table: ScoreTable | None = None,
) -> RunResult:
    """Run the quantum-inspired genetic algorithm; bit-reproducible per seed."""
    if table is None:
        table = ScoreTable()
    seed = params.seed
    uniform = uniform_quantum_chromosome(spec)

    def fresh(i: int) -> QuantumChromosome:
        return uniform

    def evaluate(qchrom, gen: int, i: int) -> tuple[FitnessBreakdown, Chromosome]:
        shadow = observe(qchrom, substream(seed, gen, PHASE_EVAL, i))
        return evaluate_breakdown(shadow, table), shadow

    def crossover_pop(pop, r_c, rng):
        return _paired_crossover(pop, r_c, rng, spec.n_cells)

    mutators = (
        (
            PHASE_MUTATE_PICK_A,
            lambda q, gen, i: q_mutate(q, substream(seed, gen, PHASE_MUTATE_A, i)),
        ),
    )

    def repair(qchrom, gen: int, i: int) -> QuantumChromosome:
        return q_repair(qchrom, spec, substream(seed, gen, PHASE_REPAIR, i))

    return _evolve(params, fresh, evaluate, crossover_pop, mutators, repair)


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
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    bits = (n_p - 1).bit_length() + (n_s - 1).bit_length()
    return n_chromosomes * n_t * n_g * bits
