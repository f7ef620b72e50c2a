"""Benchmark of the gantrysched CLI, end to end and layer by layer.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are defined in
``workloads.py``; metrics, units and bounds in ``BENCHMARK.json``.

``--trace 0`` times the user's own command: ``python -m gantrysched.cli``
in a child process on a config generated from ``--seed``, repeated for
about ``--seconds`` seconds (at least three times), with every repeat
checked by the oracle gate in ``oracle.py``.  It reports the medians of

* ``ref_cpu_s``           CPU time (user + system) of the child command,
                          at reference speed (below);
* ``setup_s``             CPU time, at reference speed, of a fresh
                          interpreter that imports ``gantrysched.cli`` and
                          resolves the workload config (median of several);
* ``evals_per_ref_cpu_s`` chromosome evaluations (the population column of
                          ``curves.csv``, summed over sweep points) per
                          second of ``ref_cpu_s``;
* ``peak_rss_mb``         peak resident set size of the child;
* ``best_fitness``        best score, for a sweep the mean over kept points.

Times are CPU times, not wall times: every workload runs the CLI with one
thread, so on an idle machine the two agree, but on a shared host the wall
time also counts the time the child waited for a processor.  A shared host
also changes speed over minutes, so the medians of CPU time are scaled by
``calibrate.NOMINAL_S`` over the median time of a fixed reference
computation (``calibrate.py``) that runs after every command of the run.
The raw medians of CPU time, wall time and the reference time are printed
beside the metrics.

``--trace 1`` runs the same command in-process twice, untraced and then
under :class:`tracer.Tracer`, and adds kernel micro-timings; it reports the
per-layer metrics.  Both modes print human-readable lines, an ``env`` line
and, last, one JSON result line.  The exit status is 1 when any output
fails the oracle gate, and 2 without a result when the checkout lacks the
program or its inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import calibrate
import kernels
import oracle
import workloads
from tracer import PHASES, Tracer

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = (
    "src/gantrysched/cli.py",
    "tests/brute_fitness.py",
    "configs/large.json",
    "configs/medium.json",
    "configs/grid_small.json",
)
MIN_REPEATS = 3
MAX_REPEATS = 50
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120

# Run in a fresh interpreter by setup_s: import the CLI, resolve the
# workload config as `run` and `sweep` do first, report the thread count.
SETUP_SNIPPET = """
import sys
from gantrysched import cli
args = cli.build_parser().parse_args(sys.argv[1:])
cli._resolve_config(cli._load_json(args.config, "config"), args.algo, args.seed, args.out)
print(args.threads)
"""

class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], cwd: Path, stdout, stderr) -> tuple[int, float, float, float]:
    """Run a child to completion.

    Returns the exit code, wall seconds, CPU seconds (user + system) and
    peak RSS in MiB.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def environment(threads) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "threads_used": threads,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu_model": cpu_model,
        "git_commit": commit,
    }


def setup_sample(workload, config: Path, work: Path) -> tuple[float, int]:
    """Time one fresh interpreter importing the CLI and resolving the config.

    Returns its CPU time and the thread count the CLI would use.
    """
    argv = [sys.executable, "-c", SETUP_SNIPPET] + workloads.cli_args(
        workload, ROOT, config, work / "setup-out"
    )
    log = work / "setup.log"
    with open(log, "w") as out:
        code, _, cpu, _ = run_child(argv, work, out, subprocess.STDOUT)
    if code != 0:
        raise BenchError(f"setup exited {code}: {log.read_text().strip()[-500:]}")
    return cpu, int(log.read_text().split()[-1])


def check_outputs(workload, brute, out_dir: Path, doc: dict, grid: dict | None) -> oracle.Outcome:
    if workload.command == "run":
        return oracle.check_run(brute, out_dir, doc)
    points, kept = workloads.sweep_points(doc, workload.algo, grid)
    return oracle.check_sweep(
        out_dir, kept, workloads.sweep_evaluations(doc, workload.algo, points)
    )


def gate(outcomes: list[oracle.Outcome]) -> int:
    """Count failed outcomes; a result differing from the first counts as failed."""
    failed = 0
    reference = next((o.signature for o in outcomes if o.ok), None)
    for o in outcomes:
        if o.ok and o.signature != reference:
            o.problems.append(f"result {o.signature} differs from an earlier repeat {reference}")
        failed += not o.ok
    return failed


def bench_timed(workload, seed: int, seconds: int, work: Path) -> tuple[dict, dict]:
    config = work / "config.json"
    doc = workloads.write_config(ROOT, workload, seed, config)
    grid = json.loads((ROOT / workload.grid).read_text()) if workload.grid else None
    brute = oracle.load_brute(ROOT)

    _, threads = setup_sample(workload, config, work)  # warms caches and bytecode
    calibrate.reference_cpu_s()  # warms the reference

    # Setup samples and reference runs are interleaved with the repeats, so
    # that all three spread over the whole measured interval.
    setup_times, walls, cpus, rates, rss, outcomes = [], [], [], [], [], []
    refs = [calibrate.reference_cpu_s()]
    started = perf_counter()
    while len(walls) < MAX_REPEATS:
        setup_times.append(setup_sample(workload, config, work)[0])
        out_dir = work / f"out{len(walls)}"
        argv = [sys.executable, "-m", "gantrysched.cli"] + workloads.cli_args(
            workload, ROOT, config, out_dir
        )
        with open(work / "child.log", "w") as log:
            code, wall, cpu, peak = run_child(argv, work, subprocess.DEVNULL, log)
        refs.append(calibrate.reference_cpu_s())
        if code == 0:
            outcome = check_outputs(workload, brute, out_dir, doc, grid)
        else:
            outcome = oracle.Outcome(problems=[f"exit code {code}: {(work / 'child.log').read_text()[-500:]}"])
        shutil.rmtree(out_dir, ignore_errors=True)
        walls.append(wall)
        cpus.append(cpu)
        rates.append(outcome.evaluations / cpu)
        rss.append(peak)
        outcomes.append(outcome)
        elapsed = perf_counter() - started
        if len(walls) >= MIN_REPEATS and elapsed + statistics.median(walls) > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_sample(workload, config, work)[0])
    failed = gate(outcomes)
    for i, o in enumerate(outcomes):
        for problem in o.problems:
            print(f"FAIL repeat {i}: {problem}", file=sys.stderr)
    good = [o for o in outcomes if o.ok]
    # Medians of CPU times, scaled by the median reference time of the run.
    scale = calibrate.NOMINAL_S / statistics.median(refs)
    metrics = {
        "ref_cpu_s": statistics.median(cpus) * scale,
        "setup_s": statistics.median(setup_times) * scale,
        "evals_per_ref_cpu_s": statistics.median(rates) / scale,
        "peak_rss_mb": statistics.median(rss),
        "best_fitness": good[0].best_fitness if good else 0.0,
    }
    units = metric_units("end_to_end")
    print(
        f"workload {workload.name} seed {seed} (GA seed {doc['seed']}): "
        f"gantrysched {' '.join(workloads.cli_args(workload, Path(), Path('CONFIG'), Path('OUT')))}"
    )
    for name, value in metrics.items():
        what = f"identical in {len(good)}" if name == "best_fitness" else (
            f"median of {len(setup_times if name == 'setup_s' else walls)}")
        print(f"  {name:<20} {value:>14.6g} {units[name]:<6} {what}")
    for name, values in (("cpu_s", cpus), ("setup_cpu_s", setup_times), ("wall_s", walls),
                         ("reference_s", refs)):
        print(f"  {name:<20} {statistics.median(values):>14.6g} {'s':<6} median of {len(values)}, "
              "not a metric: it moves with the host's speed and load")
    if workload.command == "run" and good:
        print(f"  {'completed_therapies':<20} {good[0].completed_therapies:>14d} count")
    print(f"  {'failed_ratio':<20} {failed / len(outcomes):>14.6g} ratio  {failed} of {len(outcomes)} runs")
    print("samples " + json.dumps({"cpu_s": cpus, "setup_cpu_s": setup_times, "wall_s": walls, "reference_s": refs}))
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, environment(threads)


def bench_traced(workload, seed: int, work: Path) -> tuple[dict, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    import gantrysched
    from gantrysched import cli

    if Path(gantrysched.__file__).resolve().parent != ROOT / "src" / "gantrysched":
        raise BenchError(f"imported gantrysched from {gantrysched.__file__}, not from this checkout")
    config = work / "config.json"
    doc = workloads.write_config(ROOT, workload, seed, config)
    grid = json.loads((ROOT / workload.grid).read_text()) if workload.grid else None
    brute = oracle.load_brute(ROOT)
    threads = cli.build_parser().parse_args(workloads.cli_args(workload, ROOT, config, work)).threads

    def command(out_dir: Path) -> tuple[int, float]:
        argv = workloads.cli_args(workload, ROOT, config, out_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = gantrysched.cli.main(argv)  # looked up at call time, so traced when patched
            return code, perf_counter() - t0

    # Untraced and traced runs alternate twice; the second traced run gives
    # the per-layer metrics and the mean difference gives the overhead.
    outcomes, walls = [], {False: [], True: []}
    for traced in (False, True, False, True):
        out_dir = work / f"out{len(outcomes)}"
        tracer = Tracer(gantrysched) if traced else contextlib.nullcontext()
        with tracer:
            code, wall = command(out_dir)
        walls[traced].append(wall)
        outcomes.append(
            check_outputs(workload, brute, out_dir, doc, grid)
            if code == 0
            else oracle.Outcome(problems=[f"exit code {code}"])
        )
        shutil.rmtree(out_dir, ignore_errors=True)
    if tracer.missing_params:
        print(f"warning: generation loop has no {sorted(tracer.missing_params)} parameters; "
              "their phases read 0", file=sys.stderr)
    failed = gate(outcomes)
    for i, o in enumerate(outcomes):
        for problem in o.problems:
            print(f"FAIL {'traced' if i % 2 else 'untraced'} run {i}: {problem}", file=sys.stderr)

    overhead = statistics.mean(walls[True]) - statistics.mean(walls[False])
    metrics = tracer.metrics(wall_s=walls[True][-1], overhead_s=overhead)
    metrics.update(kernels.kernel_metrics(workloads.ga_seed(workload.name, seed)))
    units = metric_units("per_layer")
    print(f"traced workload {workload.name} seed {seed}: untraced {walls[False]} s, traced {walls[True]} s")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    if workload.command == "run":
        phases = sum(metrics[f"phase.{p}_s"] for p in PHASES)
        loop = phases + metrics["classical.evolve_self_s"]
        print(f"  accounting: phases {phases:.4f} + loop self {metrics['classical.evolve_self_s']:.4f} "
              f"= loop {loop:.4f} s; + cli.write_s {metrics['cli.write_s']:.4f} = {loop + metrics['cli.write_s']:.4f} "
              f"of traced wall {walls[True][-1]:.4f} s")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, environment(threads)


def metric_units(kind: str) -> dict[str, str]:
    """Units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"error: this checkout lacks {missing}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            result, env = bench_traced(workload, args.seed, work)
        else:
            result, env = bench_timed(workload, args.seed, args.seconds, work)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
