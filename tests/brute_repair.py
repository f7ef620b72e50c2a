"""Independent reference repair used to cross-check the table-driven one.

This is the original slot-by-slot walk: each gantry is scanned left to
right and a full working cycle is placed wherever it still fits, with an
idle separator ahead of it when room allows.  The cycle pattern comes from
the brute-force scorer, not from the package under test.
"""

from __future__ import annotations

import numpy as np

from gantrysched import Chromosome

from brute_fitness import CYCLE_PATTERN, IDLE, VACANT


def brute_repair(chrom, spec):
    """Rebuild every track as a conflict-free sequence of complete episodes.

    The patient of a new episode is the incumbent cell's id when that
    patient is still untreated, otherwise the lowest-index untreated
    patient; when nobody is left the track stays idle.  Gantries are rebuilt
    in index order, so earlier gantries win any contention for patients.
    """
    treated = set()
    n_g, n_t = spec.n_g, spec.n_t
    cycle = np.array(CYCLE_PATTERN, dtype=np.int8)
    span = cycle.size
    out_stat = np.zeros((n_g, n_t), dtype=np.int8)
    out_pat = np.full((n_g, n_t), VACANT, dtype=np.int32)
    for g in range(n_g):
        t = 0
        while t < n_t:
            if t > 0 and out_stat[g, t - 1] == IDLE:
                start = t
            elif t + 1 + span <= n_t:
                start = t + 1  # leave an idle separator ahead of the episode
            else:
                start = t
            if start + span > n_t:
                break  # remaining slots stay idle
            patient = _pick_patient(chrom, g, start, treated, spec.n_p)
            if patient is None:
                break
            out_stat[g, start : start + span] = cycle
            out_pat[g, start : start + span] = patient
            treated.add(patient)
            t = start + span
    return Chromosome(out_stat, out_pat, n_p=spec.n_p)


def _pick_patient(chrom, g, start, treated, n_p):
    if chrom.statuses[g, start] != IDLE:
        incumbent = int(chrom.patients[g, start])
        if incumbent not in treated:
            return incumbent
    for p in range(n_p):
        if p not in treated:
            return p
    return None
