"""A fixed reference computation that measures how fast the host runs now.

The speed of a shared host drifts by tens of percent over seconds to
minutes, and a program's CPU time drifts with it.  The benchmark runs
:func:`reference_cpu_s` between its timed commands and scales their median
CPU time by how much slower or faster the reference ran than its nominal
time, so the result reads as CPU seconds on a host of constant speed.  One
reference run is short and sees the host's fast jitter; the median over a
run follows its slower drift, which is what moves one run against another.

The reference mixes the kinds of work the package does: Python loops that
read numpy arrays one element at a time, compare enum members and keep sets
of ids, short slice writes, and whole-array numpy operations.  It belongs to
the benchmark, not to the package, so a change to the package never changes
it.
"""

from __future__ import annotations

import enum
import time

import numpy as np

# CPU seconds the reference took on an idle 2-vCPU Intel Xeon VM
# (Python 3.11.7, numpy 2.4.6).  Only ratios to it matter.
NOMINAL_S = 0.4

_ROUNDS = 24
_SHAPE = (3, 650)
_N_IDS = 72


class _Status(enum.IntEnum):
    IDLE = 0
    BUSY = 1


def _round(status: np.ndarray, ids: np.ndarray, pattern: np.ndarray) -> int:
    out_status = np.zeros_like(status)
    out_ids = np.full_like(ids, -1)
    taken: set[int] = set()
    span = pattern.size
    for g in range(status.shape[0]):
        t = 0
        while t + span <= status.shape[1]:
            if status[g, t] != _Status.IDLE:
                candidate = int(ids[g, t])
                if candidate not in taken:
                    taken.add(candidate)
                    out_status[g, t : t + span] = pattern
                    out_ids[g, t : t + span] = candidate
                    t += span
                    continue
            t += 1
    weights = np.arange(1, status.shape[1] + 1, dtype=np.float64)
    score = float((out_status * weights).sum()) + float(np.bincount(out_ids[out_ids >= 0]).max(initial=0))
    return len(taken) + int(score) % 7


def reference_cpu_s() -> float:
    """Run the reference once and return the CPU seconds it took."""
    rng = np.random.default_rng(20250605)
    status = rng.integers(0, 2, size=_SHAPE, dtype=np.int8)
    ids = rng.integers(0, _N_IDS, size=_SHAPE, dtype=np.int32)
    pattern = np.array([1, 1, 1, 0], dtype=np.int8)
    start = time.process_time()
    check = 0
    for _ in range(_ROUNDS):
        check += _round(status, ids, pattern)
        ids = np.roll(ids, 1, axis=1)
    elapsed = time.process_time() - start
    if check <= 0:
        raise RuntimeError("reference computation produced no work")
    return elapsed
