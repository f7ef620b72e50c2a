"""Micro-timings of the hot kernels on medium- and large-sized inputs.

Inputs come from the first generation of a seeded run: random schedules
for the classical kernels; for the quantum ones the uniform chromosome
every quantum run starts from, amplified toward the repair of one seeded
observation, as the first quantum repair does.  Each kernel is warmed up, then
timed in batches of at least ``BATCH_S`` seconds; the result is the median
microseconds per call over the batches and their spread, the distance
between the first and third quartile as a share of the median.
"""

from __future__ import annotations

import statistics
from time import perf_counter

SIZES = {"medium": (3, 12, 108), "large": (3, 72, 650)}
KERNELS = ("evaluate_breakdown", "repair_chromosome", "observe", "_amplify_grid", "substream")
WARMUP_CALLS = 5
BATCHES = 9
BATCH_S = 0.05


def _time(call) -> tuple[float, float]:
    for i in range(WARMUP_CALLS):
        call(i)
    n = 1
    while True:
        t0 = perf_counter()
        for i in range(n):
            call(i)
        if perf_counter() - t0 >= BATCH_S / 4:
            break
        n *= 2
    n = max(1, round(n * BATCH_S / max(perf_counter() - t0, 1e-9)))
    per_call = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for i in range(n):
            call(i)
        per_call.append(1e6 * (perf_counter() - t0) / n)
    q1, _, q3 = statistics.quantiles(per_call, n=4)
    mid = statistics.median(per_call)
    return mid, (q3 - q1) / mid


def kernel_metrics(seed: int) -> dict[str, float]:
    """``kernel.<name>.<size>.{us_per_call,spread}`` for every kernel and size."""
    import numpy as np

    from gantrysched import quantum
    from gantrysched.classical import repair_chromosome
    from gantrysched.fitness import ScoreTable, evaluate_breakdown
    from gantrysched.model import GantryStatus, ProblemSpec, random_chromosome
    from gantrysched.rng import substream

    table = ScoreTable()
    metrics = {}
    for size, (n_g, n_p, n_t) in SIZES.items():
        spec = ProblemSpec(n_g=n_g, n_p=n_p, n_t=n_t)
        schedules = [random_chromosome(spec, substream(seed, 0, 0, i)) for i in range(4)]
        qchrom = quantum.uniform_quantum_chromosome(spec)
        observe_rng = substream(seed, 1, 1, 0)
        desired = repair_chromosome(quantum.observe(qchrom, observe_rng), spec)
        busy = desired.statuses != GantryStatus.IDLE
        # the two calls one quantum repair makes: status grid, then id grid
        amplify_args = (
            (qchrom.status_amps, desired.statuses.astype(np.int64), np.ones_like(busy)),
            (qchrom.id_amps, np.where(busy, desired.patients, 0).astype(np.int64), busy),
        )
        calls = {
            "evaluate_breakdown": lambda i: evaluate_breakdown(schedules[i % 4], table),
            "repair_chromosome": lambda i: repair_chromosome(schedules[i % 4], spec),
            "observe": lambda i: quantum.observe(qchrom, observe_rng),
            "_amplify_grid": lambda i: quantum._amplify_grid(*amplify_args[i % 2]),
            "substream": lambda i: substream(seed, i // 64, i % 9, i % 64),
        }
        for name in KERNELS:
            us, spread = _time(calls[name])
            metrics[f"kernel.{name}.{size}.us_per_call"] = us
            metrics[f"kernel.{name}.{size}.spread"] = spread
    return metrics
