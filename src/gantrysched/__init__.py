"""Genetic optimization of daily multi-gantry radiotherapy schedules.

The package models a treatment day as a grid of gantry/time-slot cells,
scores candidate schedules with a deterministic penalty/benefit evaluator,
and searches the space with either a classical genetic algorithm or a
quantum-inspired variant operating on amplitude vectors.  Everything keyed
off a single seed reproduces bit for bit.
"""

from __future__ import annotations

from .classical import (
    GaParams,
    GenerationRecord,
    RunResult,
    mutate_patient_ids,
    mutate_statuses,
    repair_chromosome,
    run_classical,
    select,
    single_point_crossover,
)
from .fitness import COUNT_NAMES, FitnessBreakdown, ScoreTable, evaluate_breakdown, weighted_total
from .model import (
    N_STATUSES,
    STATUS_DURATIONS,
    VACANT,
    Chromosome,
    ConfigError,
    GantryStatus,
    ProblemSpec,
    cycle_status_pattern,
    random_chromosome,
    status_duration,
)
from .quantum import (
    QuantumChromosome,
    amplify,
    observe,
    q_mutate,
    q_repair,
    qubit_estimate,
    run_quantum,
    sample_index,
    uniform_quantum_chromosome,
)
from .rng import derive_seed, substream
from .sweep import (
    SweepAxis,
    SweepRecord,
    SweepSummary,
    build_grid,
    filter_records,
    run_sweep,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "COUNT_NAMES",
    "Chromosome",
    "ConfigError",
    "FitnessBreakdown",
    "GaParams",
    "GantryStatus",
    "GenerationRecord",
    "N_STATUSES",
    "ProblemSpec",
    "QuantumChromosome",
    "RunResult",
    "STATUS_DURATIONS",
    "ScoreTable",
    "SweepAxis",
    "SweepRecord",
    "SweepSummary",
    "VACANT",
    "amplify",
    "build_grid",
    "cycle_status_pattern",
    "derive_seed",
    "evaluate_breakdown",
    "filter_records",
    "mutate_patient_ids",
    "mutate_statuses",
    "observe",
    "q_mutate",
    "q_repair",
    "qubit_estimate",
    "random_chromosome",
    "repair_chromosome",
    "run_classical",
    "run_quantum",
    "run_sweep",
    "sample_index",
    "select",
    "single_point_crossover",
    "status_duration",
    "substream",
    "summarize",
    "uniform_quantum_chromosome",
    "weighted_total",
]
