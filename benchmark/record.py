"""Run the benchmark over several seeds and record the spread of every metric.

    python3 benchmark/record.py --label baseline [--seeds 0-9] [--workloads a,b]

For each workload it runs ``run.py --trace 0`` once per seed, then one
``--trace 1`` run on the first seed, and writes
``benchmark/results/BENCH_<label>.json``: every run's result line, the
median, quartiles and spread (interquartile distance over median) of each
end-to-end metric next to its bound, the traced per-layer metrics, and the
environment record.  A spread of a third of the bound or more is flagged;
the exit status is 1 when a run fails or a spread (setup_s aside) exceeds
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict | None, dict | None, dict | None]:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    samples = next((json.loads(l[8:]) for l in lines if l.startswith("samples ")), None)
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return result, env, samples


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    record = {"label": args.label, "command": spec["command"], "run_seconds": spec["run_seconds"],
              "seeds": seeds, "env": None, "workloads": {}}
    status = 0
    for name in names:
        runs = []
        for seed in seeds:
            result, env, samples = run(spec, name, seed, 0)
            record["env"] = record["env"] or env
            runs.append({"seed": seed, "result": result, "samples": samples})
            ok = result is not None and result["correct"]
            status |= not ok
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()} if result else None
            print(f"{name} seed {seed}: {'ok' if ok else 'FAILED'} {shown}", flush=True)
        summary = {}
        for metric, info in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs if r["result"]]
            if len(values) < 2:
                continue
            summary[metric] = {**spread(values), "unit": info["unit"], "bound": info["bound"]}
            s = summary[metric]["spread"]
            flag = "ok" if s < info["bound"] / 3 else ("WIDE" if s <= info["bound"] else "OVER BOUND")
            if flag == "OVER BOUND" and metric != "setup_s":
                status = 1
            print(f"  {metric:<14} median {summary[metric]['median']:.6g} {info['unit']:<6} "
                  f"spread {s:.4f} bound {info['bound']} {flag}", flush=True)
        traced, _, _ = run(spec, name, seeds[0], 1)
        status |= traced is None or not traced["correct"]
        record["workloads"][name] = {
            "runs": runs, "summary": summary, "traced": {"seed": seeds[0], "result": traced}
        }
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
