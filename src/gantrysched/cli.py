"""Command-line front end: single runs, parameter sweeps, resource estimates.

Exit codes: 0 on success, 2 for configuration problems (bad flags, missing
or invalid config files), 3 for runtime failures.  Output files are written
atomically, so a failed command never leaves partial files behind.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import io
import json
import math
import sys
import uuid
from pathlib import Path
from typing import NoReturn

from . import classical, fitness, quantum
from .classical import MEMORY_BOUND, GaParams, RunResult
from .fitness import FitnessBreakdown, ScoreTable
from .model import VACANT, Chromosome, ConfigError, GantryStatus, ProblemSpec, _check_real
from .quantum import qubit_estimate
from .sweep import (
    _MAX_GRID_POINTS,
    ALGORITHMS,
    SWEEP_PARAMS,
    SweepAxis,
    SweepRecord,
    build_grid,
    run_sweep,
    summarize,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_MEMORY_ESTIMATES = {"classical": classical.memory_estimate, "quantum": quantum.memory_estimate}

_SPEC_DEFAULTS = {"n_g": 3, "n_p": 12, "n_t": 108}
_PARAM_DEFAULTS = {
    "r_s": 0.83,
    "r_c": 0.27,
    "r_m": 0.37,
    "r_r": 0.85,
    "n_ini": 10,
    "g_max": 200,
    "seed": 0,
}
_N_MAX_DEFAULTS = {"classical": 150, "quantum": 50}
_GA_FIELDS = tuple(f.name for f in dataclasses.fields(GaParams))
_GA_INT_FIELDS = {f.name for f in dataclasses.fields(GaParams) if f.type == "int"}
_SCORE_FIELDS = tuple(f.name for f in dataclasses.fields(ScoreTable))
_AXIS_FIELDS = tuple(f.name for f in dataclasses.fields(SweepAxis))


def _require_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field {name!r} must be an integer, got {value!r}")
    return value


def _require_number(name: str, value) -> float:
    _check_real(f"config field {name!r}", value, -math.inf, math.inf)
    return float(value)


def _check_keys(doc: dict, what: str, allowed, required=()) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"{what} has unknown keys: {unknown}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigError(f"{what} is missing keys: {missing}")


def _unique_keys(pairs: list) -> dict:
    """The dict of a JSON object's (key, value) pairs, refusing a repeated key."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ConfigError(f"repeated key {next(k for k in doc if keys.count(k) > 1)!r}")
    return doc


def _load_json(path: Path, what: str) -> dict:
    try:
        if not path.exists():
            raise ConfigError(f"{what} file not found: {path}")
        if not path.is_file():  # never read it: reading a FIFO would block
            raise ConfigError(f"{what} file {path} is not a regular file")
        text = path.read_text(encoding="utf-8")
    except OSError as err:  # a name the file system refuses, say
        raise ConfigError(f"{what} file {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text at byte {err.start}") from err
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except RecursionError as err:
        raise ConfigError(f"{path}: JSON nested too deeply") from err
    except ValueError as err:  # a repeated key, or an integer past the interpreter's digit limit
        raise ConfigError(f"{path}: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def _resolve_config(
    doc: dict,
    algo: str,
    seed_override: int | None = None,
    out_override: str | Path | None = None,
):
    """Turn a flat config document into (spec, params, table, out_dir)."""
    allowed = [*_SPEC_DEFAULTS, *_GA_FIELDS, "out_dir"]
    allowed += [f"score_{name}" for name in _SCORE_FIELDS]
    allowed += [f"{name}_{field}" for name in ALGORITHMS for field in _GA_FIELDS]
    _check_keys(doc, "config", allowed)
    spec = ProblemSpec(**{name: doc.get(name, default) for name, default in _SPEC_DEFAULTS.items()})

    ga_values = {**_PARAM_DEFAULTS, "n_max": _N_MAX_DEFAULTS[algo]}
    for field in _GA_FIELDS:  # the algorithm's own key wins over the shared one
        source = next((key for key in (f"{algo}_{field}", field) if key in doc), None)
        if source is not None:
            check = _require_int if field in _GA_INT_FIELDS else _require_number
            ga_values[field] = check(source, doc[source])
    if seed_override is not None:
        ga_values["seed"] = seed_override
    params = GaParams(**ga_values)

    score_values = {
        f.name: _require_number(f"score_{f.name}", doc.get(f"score_{f.name}", f.default))
        for f in dataclasses.fields(ScoreTable)
    }
    table = ScoreTable(**score_values)
    # No event count passes n_g * n_cells, so no total passes `bound` in size, and a
    # sweep's std sums at most _MAX_GRID_POINTS squares of differences below 2 * bound.
    bound = sum(score_values.values()) * spec.n_g * spec.n_cells
    if 2 * bound * math.sqrt(_MAX_GRID_POINTS) > math.sqrt(sys.float_info.max):
        raise ConfigError(
            f"score weights this large can overflow a fitness total on {spec.n_g}x{spec.n_t} slots"
        )

    out_name = doc.get("out_dir", "out")
    if not isinstance(out_name, str):
        raise ConfigError("config field 'out_dir' must be a string")
    out_name = out_name if out_override is None else str(out_override)
    if not out_name:  # Path("") would be the working directory
        raise ConfigError("output directory name '' is empty; '.' names the working directory")
    if "\0" in out_name:
        raise ConfigError(f"output directory {out_name!r} contains a NUL character")
    out_dir = Path(out_name)
    try:
        existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    except OSError as err:  # a name too long, say
        raise ConfigError(f"output directory {out_dir}: {err.strerror}") from err
    if not existing.is_dir():
        raise ConfigError(f"output directory {out_dir}: {existing} is not a directory")
    return spec, params, table, out_dir


def _check_memory(spec: ProblemSpec, params: GaParams, algo: str) -> None:
    need = _MEMORY_ESTIMATES[algo](spec, params) + fitness._count_bytes(spec)
    if need > MEMORY_BOUND:
        raise ConfigError(
            f"a {algo} run would need about {need / 2**20:.0f} MiB of grids and scoring "
            f"buffers, above the {MEMORY_BOUND // 2**20} MiB bound"
        )


def _resolve_grid(doc: dict) -> tuple[dict[str, SweepAxis], dict[str, list[float]]]:
    _check_keys(doc, "grid", ("axes", "exclude"))
    axes_doc = doc.get("axes")
    if not isinstance(axes_doc, dict):
        raise ConfigError("grid file must define an 'axes' object")
    axes = {}
    for name, axis in axes_doc.items():
        if not isinstance(axis, dict):
            raise ConfigError(f"axis {name!r} must be an object")
        _check_keys(axis, f"axis {name!r}", _AXIS_FIELDS, _AXIS_FIELDS)
        axes[name] = SweepAxis(
            **{key: _require_number(f"{name}.{key}", axis[key]) for key in _AXIS_FIELDS}
        )
    exclude_doc = doc.get("exclude", {})
    if not isinstance(exclude_doc, dict):
        raise ConfigError("grid 'exclude' must be an object of value lists")
    exclude = {}
    for name, values in exclude_doc.items():
        if not isinstance(values, list):
            raise ConfigError(f"exclusion {name!r} must list values")
        exclude[name] = [_require_number(f"exclude.{name}", v) for v in values]
    return axes, exclude


def _write_atomic(out_dir: Path, outputs: dict[str, str | dict]) -> None:
    """Write a command's output files into ``out_dir`` through temporary files.

    Each file is written in full to a temporary file of a unique name in
    ``out_dir`` first: text as it is, a JSON document as it is serialized
    (indented, and refusing NaN and infinities, which JSON lacks).  Only
    when all are written do they replace their targets, in order, so a
    failed write leaves no output.  On a failure the temporary files not
    yet renamed are removed.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    tmps = []
    try:
        for name, content in outputs.items():
            tmp = out_dir / f".{name}.{uuid.uuid4().hex}.tmp"
            tmps.append(tmp)
            with open(tmp, "x", encoding="utf-8") as fh:
                if isinstance(content, str):
                    fh.write(content)
                else:
                    fh.write(json.dumps(content, indent=2, allow_nan=False) + "\n")
        for tmp, name in zip(tmps, outputs):
            tmp.replace(out_dir / name)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def schedule_document(
    spec: ProblemSpec, table: ScoreTable, schedule: Chromosome, breakdown: FitnessBreakdown
) -> dict:
    """Self-contained JSON document of a schedule and its fitness under ``table``."""
    tracks = [
        [
            {"status": GantryStatus(status).name, "patient": None if who == VACANT else who}
            for status, who in zip(statuses, patients)
        ]
        for statuses, patients in zip(schedule.statuses.tolist(), schedule.patients.tolist())
    ]
    return {
        "n_g": spec.n_g,
        "n_p": spec.n_p,
        "n_t": spec.n_t,
        "scores": dataclasses.asdict(table),
        "fitness": {"total": breakdown.total, "counts": breakdown.counts()},
        "tracks": tracks,
    }


def _csv(header: str, rows) -> str:
    """CSV text with "\n" line ends; every field is a number or a fixed word."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return out.getvalue()


def _curves_csv(result: RunResult) -> str:
    rows = [(r.generation, r.best_fitness, r.population) for r in result.records]
    return _csv("generation,best_fitness,population", rows)


def _sweep_csv(records: list[SweepRecord]) -> str:
    # The error column stays, always empty, until benchmark/oracle.py stops reading it.
    rows = [
        [*(f"{getattr(r.point, name):.2f}" for name in SWEEP_PARAMS), r.algorithm,
         r.point.seed, r.best_fitness, r.run_seconds, ""]
        for r in records
    ]
    return _csv("r_s,r_c,r_m,r_r,algorithm,seed,best_fitness,run_seconds,error", rows)


def _summary_csv(summary) -> str:
    header = (
        "label,count,fitness_mean,fitness_max,fitness_min,fitness_std,"
        "time_mean,time_max,time_min,time_std"
    )
    rows = [  # a Stats is (count, mean, maximum, minimum, std); the count is shared
        [label, *dataclasses.astuple(fit), *dataclasses.astuple(tim)[1:]]
        for label, fit, tim in (
            ("all", summary.fitness, summary.run_time),
            ("top10", summary.top_fitness, summary.top_run_time),
        )
    ]
    return _csv(header, rows)


def _cmd_run(args: argparse.Namespace) -> int:
    doc = _load_json(args.config, "config")
    spec, params, table, out_dir = _resolve_config(doc, args.algo, args.seed, args.out)
    _check_memory(spec, params, args.algo)
    result = ALGORITHMS[args.algo](spec, params, table)
    summary = {
        "algorithm": args.algo,
        "seed": params.seed,
        "best_fitness": result.best_breakdown.total,
        "elapsed_seconds": result.elapsed,
        "config": {
            **dataclasses.asdict(spec),
            **dataclasses.asdict(params),
            "out_dir": str(out_dir),
            "scores": dataclasses.asdict(table),
        },
    }
    outputs = {
        "curves.csv": _curves_csv(result),
        "best_schedule.json": schedule_document(
            spec, table, result.best_schedule, result.best_breakdown
        ),
        "summary.json": summary,
    }
    _write_atomic(out_dir, outputs)
    print(
        f"{args.algo} run (seed {params.seed}): best fitness "
        f"{result.best_breakdown.total!r} over {len(result.records)} records -> {out_dir}"
    )
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    doc = _load_json(args.config, "config")
    spec, params, table, out_dir = _resolve_config(doc, args.algo, args.seed, args.out)
    axes, exclude = _resolve_grid(_load_json(args.grid, "grid"))
    kept, excluded = build_grid(params, axes, exclude)
    if not kept:
        raise ConfigError(f"the grid's exclusions remove all {excluded} points")
    for point in kept:
        _check_memory(spec, point, args.algo)
    records = run_sweep(spec, kept, table, args.algo)
    _write_atomic(
        out_dir,
        {"sweep.csv": _sweep_csv(records), "sweep_summary.csv": _summary_csv(summarize(records))},
    )
    print(f"swept {len(kept)} {args.algo} points, {excluded} excluded -> {out_dir}")
    return EXIT_OK


def _cmd_qubits(args: argparse.Namespace) -> int:
    print(qubit_estimate(args.N, args.nt, args.ng, args.np, args.ns))
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gantrysched",
        description="Genetic optimization of daily multi-gantry treatment schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one optimization and write its outputs")
    sweep_p = sub.add_parser("sweep", help="run a parameter grid and summarize it")
    for p in (run_p, sweep_p):
        p.add_argument("--config", type=Path, required=True, help="flat JSON config file")
        p.add_argument(
            "--algo", choices=sorted(ALGORITHMS), default="classical", help="algorithm variant"
        )
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument(
            "--threads",
            type=_positive_int,
            default=1,
            help="accepted and ignored; runs are always serial",
        )
        p.add_argument("--out", default=None, help="overrides the output directory")
    sweep_p.add_argument("--grid", type=Path, required=True, help="JSON grid file")
    run_p.set_defaults(func=_cmd_run)
    sweep_p.set_defaults(func=_cmd_sweep)

    qubits_p = sub.add_parser("qubits", help="print the qubit count for a problem size")
    qubits_p.add_argument("--N", type=int, required=True, help="number of chromosomes")
    qubits_p.add_argument("--nt", type=int, required=True, help="time slots")
    qubits_p.add_argument("--ng", type=int, required=True, help="gantries")
    qubits_p.add_argument("--np", type=int, required=True, help="patients")
    qubits_p.add_argument("--ns", type=int, required=True, help="statuses")
    qubits_p.set_defaults(func=_cmd_qubits)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # noqa: BLE001 - report and exit nonzero
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


def console() -> NoReturn:
    """The process entry: ``main`` on ``sys.argv``, then exit with its code."""
    code = main()
    gc.freeze()  # the shutdown collections skip every object tracked so far
    sys.exit(code)


if __name__ == "__main__":
    console()
