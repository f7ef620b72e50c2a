"""Independent reference generation loop used to cross-check both runners.

This is the generation loop written out once per algorithm, step by step:
no memo, no shared callbacks, every schedule and quantum chromosome built
through its validating constructor, schedules scored by the brute-force
evaluator and repaired by the slot-by-slot reference repair.  It draws
from the same substream coordinates as the package's loop, so a seeded run
of either runner must match it exactly.  The single-chromosome operators
(random schedules, mutations, observation) come from the package; the
selection, pairing, crossover, pick-and-replace and amplification steps
are written again here.
"""

from __future__ import annotations

import math

import numpy as np

from gantrysched import (
    Chromosome,
    QuantumChromosome,
    mutate_patient_ids,
    mutate_statuses,
    observe,
    q_mutate,
    random_chromosome,
)
from gantrysched.rng import (
    PHASE_EVAL,
    PHASE_INIT,
    PHASE_MUTATE_A,
    PHASE_MUTATE_B,
    PHASE_MUTATE_PICK_A,
    PHASE_MUTATE_PICK_B,
    PHASE_PAIRING,
    PHASE_REPAIR,
    PHASE_REPAIR_PICK,
    substream,
)

from brute_amplify import brute_amplify
from brute_fitness import brute_breakdown
from brute_repair import brute_repair

N_STATUSES = 8


def floor_count(value):
    """Floor with the same 1e-9 slack the package uses for ratio counts."""
    return math.floor(value + 1e-9)


def build(kind, grids, spec):
    """Build a chromosome of either kind through its validating constructor.

    A quantum chromosome is built from its two amplitude grids; the
    constructor recomputes the cumulative grids that follow them.
    """
    if kind is Chromosome:
        return Chromosome(*grids, n_p=spec.n_p)
    return QuantumChromosome(*grids[:2])


def rebuild(chrom, spec):
    return build(type(chrom), chrom.grids, spec)


def crossover(pop, r_c, rng, spec):
    """Append two children for each of floor(r_c * N / 2) random disjoint pairs."""
    n_pairs = floor_count(r_c * len(pop) / 2)
    n_cells = spec.n_g * spec.n_t
    out = list(pop)
    if n_pairs == 0 or n_cells < 2:
        return out
    chosen = rng.permutation(len(pop))[: 2 * n_pairs]
    points = rng.integers(1, n_cells, size=n_pairs)
    for k in range(n_pairs):
        a, b = pop[int(chosen[2 * k])], pop[int(chosen[2 * k + 1])]
        point = int(points[k])
        for head, tail in ((a, b), (b, a)):
            grids = []
            for x, y in zip(head.grids, tail.grids):
                flat_x, flat_y = x.reshape(n_cells, -1), y.reshape(n_cells, -1)
                grids.append(np.concatenate((flat_x[:point], flat_y[point:])).reshape(x.shape))
            out.append(build(type(a), grids, spec))
    return out


def quantum_repair(qchrom, spec, rng):
    """Amplify every cell toward a reference repair of one observation."""
    shadow = rebuild(observe(qchrom, rng), spec)
    desired = brute_repair(shadow, spec)
    ids = qchrom.id_amps.copy()
    statuses = qchrom.status_amps.copy()
    for g in range(spec.n_g):
        for t in range(spec.n_t):
            status = int(desired.statuses[g, t])
            statuses[g, t] = brute_amplify(qchrom.status_amps[g, t], status)
            if status != 0:
                ids[g, t] = brute_amplify(qchrom.id_amps[g, t], int(desired.patients[g, t]))
    return QuantumChromosome(ids, statuses)


def brute_evolve(spec, params, algorithm):
    """Run one algorithm's generation loop the slow way.

    Returns the per-generation (generation, best total, population size)
    triples, the first best schedule seen and its brute-force breakdown.
    """
    seed = params.seed
    quantum = algorithm == "quantum"

    def draw(gen, phase, index):
        return substream(seed, gen, phase, index)

    if quantum:
        uniform = QuantumChromosome(
            np.full((spec.n_g, spec.n_t, spec.n_p), 1.0 / math.sqrt(spec.n_p)),
            np.full((spec.n_g, spec.n_t, N_STATUSES), 1.0 / math.sqrt(N_STATUSES)),
        )
        pop = [uniform] * params.n_ini
        mutators = [
            (PHASE_MUTATE_PICK_A, lambda q, gen, i: q_mutate(q, draw(gen, PHASE_MUTATE_A, i))),
        ]

        def repair(q, gen, i):
            return quantum_repair(q, spec, draw(gen, PHASE_REPAIR, i))

    else:
        pop = [
            rebuild(random_chromosome(spec, draw(0, PHASE_INIT, i)), spec)
            for i in range(params.n_ini)
        ]
        mutators = [
            (
                PHASE_MUTATE_PICK_A,
                lambda c, gen, i: mutate_patient_ids(c, spec, draw(gen, PHASE_MUTATE_A, i)),
            ),
            (
                PHASE_MUTATE_PICK_B,
                lambda c, gen, i: mutate_statuses(c, spec, draw(gen, PHASE_MUTATE_B, i)),
            ),
        ]

        def repair(c, gen, i):
            return brute_repair(c, spec)

    records = []
    best = None
    for gen in range(params.g_max + 1):
        scored = []
        for i, chrom in enumerate(pop):
            schedule = rebuild(observe(chrom, draw(gen, PHASE_EVAL, i)), spec) if quantum else chrom
            scored.append((brute_breakdown(schedule.statuses, schedule.patients), schedule))
        totals = [breakdown["total"] for breakdown, _ in scored]
        top = max(totals)
        first_top = totals.index(top)
        records.append((gen, top, len(pop)))
        if best is None or top > best[0]["total"]:
            best = scored[first_top]
        if gen == params.g_max:
            break

        keep = min(params.n_max, max(2, floor_count(params.r_s * len(pop))), len(pop))
        order = sorted(range(len(pop)), key=lambda i: (-totals[i], i))
        pop = [pop[i] for i in order[:keep]]
        pop = crossover(pop, params.r_c, draw(gen, PHASE_PAIRING, 0), spec)

        for pick_phase, mutate in mutators:
            n_mut = floor_count(params.r_m * len(pop))
            if n_mut:
                picked = draw(gen, pick_phase, 0).choice(len(pop), size=n_mut, replace=False)
                for i in picked.tolist():
                    pop[i] = rebuild(mutate(pop[i], gen, i), spec)
        n_rep = floor_count(params.r_r * len(pop))
        if n_rep:
            picked = draw(gen, PHASE_REPAIR_PICK, 0).choice(len(pop), size=n_rep, replace=False)
            for i in picked.tolist():
                pop[i] = repair(pop[i], gen, i)
    return records, best[1], best[0]
