"""In-process tracing of the package's modules, installed from outside.

:class:`Tracer` replaces the module-level functions of ``cli``, ``sweep``,
``classical``, ``quantum``, ``fitness``, ``model`` and ``rng`` with wrappers
that count calls and busy time, and restores them on exit.  A function
imported into several modules is replaced in each of them.  The wrapper of
the generation loop (``classical._evolve``) also wraps the phase callbacks
it is handed, so that init, evaluate, select, crossover, mutate and repair
are timed without changing the package.

Callbacks may run on worker threads, so a phase's time is the union of its
call intervals within one loop; the rest of the loop's wall time is its
self time (loop bookkeeping and thread-pool overhead).  Busy time of a
function is summed over threads and therefore includes time spent waiting
for the interpreter lock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import statistics
import threading
from time import perf_counter

TRACED_MODULES = ("cli", "sweep", "classical", "quantum", "fitness", "model", "rng")
TRACED_PRIVATE = frozenset({"classical._evolve", "quantum._amplify_grid", "cli._write_atomic"})
PHASES = ("init", "evaluate", "select", "crossover", "mutate", "repair")

# Parameters of the generation loop that carry phase callbacks.
_PHASE_PARAMS = {
    "fresh": "init",
    "evaluate": "evaluate",
    "crossover_pop": "crossover",
    "repair": "repair",
}

# Bytes a call computes on, from the sizes of the amplitude arrays it reads.
_COMPUTED_BYTES = {
    "quantum.observe": lambda q, *a, **k: q.id_amps.nbytes + q.status_amps.nbytes,
    "quantum._amplify_grid": lambda amps, *a, **k: amps.nbytes,
}


class Stat:
    __slots__ = ("calls", "busy_s", "bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.bytes = 0


class LoopTrace:
    """Spans of one call of the generation loop."""

    def __init__(self) -> None:
        self.start = self.end = 0.0
        self.phases: dict[str, list[tuple[float, float]]] = {p: [] for p in PHASES}
        self.gen_start: dict[int, float] = {}
        self.gen_eval_end: dict[int, float] = {}
        self.records: tuple = ()

    def phase_seconds(self) -> dict[str, float]:
        return {p: union_length(iv) for p, iv in self.phases.items()}


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Context manager that traces a package while it is active."""

    def __init__(self, package) -> None:
        self.package = package
        self.stats: dict[str, Stat] = {}
        self.loops: list[LoopTrace] = []
        self.missing_params: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            (short, importlib.import_module(f"{self.package.__name__}.{short}"))
            for short in TRACED_MODULES
        ]
        wrappers = {}
        for short, module in modules:
            for name, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                span = f"{short}.{name}"
                if name.startswith("_") and span not in TRACED_PRIVATE:
                    continue
                wrappers[obj] = self._wrap(span, obj)
        for module in [self.package] + [m for _, m in modules]:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrappers[obj])
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def stat(self, span: str) -> Stat:
        return self.stats.get(span, Stat())

    def _record(self, stat: Stat, seconds: float, nbytes: int = 0) -> None:
        with self._lock:
            stat.calls += 1
            stat.busy_s += seconds
            stat.bytes += nbytes

    def _wrap(self, span: str, fn):
        stat = self.stats.setdefault(span, Stat())
        if span == "classical._evolve":
            return self._wrap_loop(stat, fn)
        size = _COMPUTED_BYTES.get(span)
        phase = "select" if span == "classical.select" else None
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._record(stat, t1 - t0, size(*args, **kwargs) if size else 0)
                loop = getattr(local, "loop", None) if phase else None
                if loop is not None:
                    loop.phases[phase].append((t0, t1))

        return wrapper

    def _wrap_loop(self, stat: Stat, fn):
        signature = inspect.signature(fn)
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loop = LoopTrace()
            bound = signature.bind(*args, **kwargs)
            arguments = bound.arguments
            for param, phase in _PHASE_PARAMS.items():
                if param in arguments:
                    arguments[param] = self._wrap_phase(loop, phase, arguments[param])
                else:
                    self.missing_params.add(param)
            if "mutators" in arguments:
                arguments["mutators"] = tuple(
                    (tag, self._wrap_phase(loop, "mutate", mutate))
                    for tag, mutate in arguments["mutators"]
                )
            else:
                self.missing_params.add("mutators")
            outer = getattr(local, "loop", None)
            local.loop = loop
            loop.start = perf_counter()
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                loop.end = perf_counter()
                local.loop = outer
                self._record(stat, loop.end - loop.start)
                with self._lock:
                    self.loops.append(loop)
            loop.records = tuple(getattr(result, "records", ()))
            return result

        return wrapper

    def _wrap_phase(self, loop: LoopTrace, phase: str, fn):
        intervals = loop.phases[phase]
        lock = self._lock

        def wrapper(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                t1 = perf_counter()
                intervals.append((t0, t1))
                if phase == "evaluate":  # evaluate(chromosome, generation, index)
                    gen = args[1]
                    with lock:
                        loop.gen_start[gen] = min(loop.gen_start.get(gen, t0), t0)
                        loop.gen_eval_end[gen] = max(loop.gen_eval_end.get(gen, t1), t1)

        return wrapper

    def metrics(self, wall_s: float, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced command (see BENCHMARK.json).

        ``wall_s`` is the traced command's wall time and ``overhead_s`` how
        much longer traced runs take than untraced ones.
        """
        m: dict[str, float] = {}

        def per_call(span: str, fields=("calls", "busy_s", "us_per_call")):
            s = self.stat(span)
            values = {
                "calls": s.calls,
                "busy_s": s.busy_s,
                "us_per_call": 1e6 * s.busy_s / s.calls if s.calls else 0.0,
                "gbps_computed": s.bytes / s.busy_s / 1e9 if s.busy_s else 0.0,
            }
            for name in fields:
                m[f"{span}.{name}"] = values[name]

        per_call("fitness.evaluate_breakdown")
        per_call("classical.repair_chromosome")
        per_call("classical.select", fields=("busy_s",))
        mutate_a = self.stat("classical.mutate_patient_ids")
        mutate_b = self.stat("classical.mutate_statuses")
        mutate_calls = mutate_a.calls + mutate_b.calls
        m["classical.mutate.us_per_call"] = (
            1e6 * (mutate_a.busy_s + mutate_b.busy_s) / mutate_calls if mutate_calls else 0.0
        )
        per_call("quantum.observe", fields=("calls", "us_per_call", "gbps_computed"))
        per_call("quantum._amplify_grid", fields=("calls", "us_per_call", "gbps_computed"))
        per_call("quantum.q_repair", fields=("us_per_call",))
        per_call("quantum.q_mutate", fields=("us_per_call",))
        per_call("rng.substream", fields=("calls", "us_per_call", "busy_s"))

        phase_totals = {p: 0.0 for p in PHASES}
        for loop in self.loops:
            for phase, seconds in loop.phase_seconds().items():
                phase_totals[phase] += seconds
        for phase in PHASES:
            m[f"phase.{phase}_s"] = phase_totals[phase]
        loop_wall = sum(loop.end - loop.start for loop in self.loops)
        m["classical.evolve_self_s"] = loop_wall - sum(phase_totals.values())

        gen_ms, first_best, to_best, improve = [], [], [], []
        for loop in self.loops:
            starts = [loop.gen_start[g] for g in sorted(loop.gen_start)]
            gen_ms += [1e3 * (b - a) for a, b in zip(starts, starts[1:])]
            best = [r.best_fitness for r in loop.records]
            if not best:
                continue
            gen = loop.records[best.index(max(best))].generation
            first_best.append(gen)
            to_best.append(loop.gen_eval_end.get(gen, loop.end) - loop.start)
            so_far = list(itertools.accumulate(best, max))
            raised = sum(1 for g in range(1, len(best)) if best[g] > so_far[g - 1])
            improve.append(raised / (len(best) - 1) if len(best) > 1 else 0.0)
        m["classical.gen_ms_p50"] = statistics.median(gen_ms) if gen_ms else 0.0
        m["classical.gen_ms_p95"] = nearest_rank(gen_ms, 0.95)
        m["classical.first_best_gen"] = statistics.median(first_best) if first_best else 0.0
        m["classical.time_to_best_s"] = statistics.median(to_best) if to_best else 0.0
        m["classical.improve_ratio"] = statistics.median(improve) if improve else 0.0

        sweep = self.stat("sweep.run_sweep")
        points = [loop.end - loop.start for loop in self.loops] if sweep.calls else []
        m["sweep.points"] = len(points)
        m["sweep.point_s_p50"] = statistics.median(points) if points else 0.0
        m["sweep.concurrency"] = sum(points) / sweep.busy_s if points else 0.0

        m["cli.write_s"] = self.stat("cli.schedule_document").busy_s + self.stat("cli._write_atomic").busy_s
        m["trace.wall_s"] = wall_s
        m["trace.overhead_s"] = overhead_s
        return m


def nearest_rank(values, q: float) -> float:
    """The nearest-rank q-quantile of a list (0.0 for an empty one)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
