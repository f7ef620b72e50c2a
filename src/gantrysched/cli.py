"""Command-line front end: single runs, parameter sweeps, resource estimates.

Exit codes: 0 on success, 2 for configuration problems (bad flags, missing
or invalid config files), 3 for runtime failures.  Output files are written
atomically, so a failed command never leaves partial files behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import uuid
from pathlib import Path

from .classical import GaParams, RunResult
from .fitness import FitnessBreakdown, ScoreTable
from .model import VACANT, Chromosome, ConfigError, GantryStatus, ProblemSpec
from .quantum import qubit_estimate
from .sweep import (
    ALGORITHMS,
    SweepAxis,
    SweepRecord,
    build_grid,
    filter_records,
    run_sweep,
    summarize,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

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


def _require_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field {name!r} must be an integer, got {value!r}")
    return value


def _require_number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {name!r} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"config field {name!r} must be finite, got {value!r}")
    return float(value)


def _load_json(path: Path, what: str) -> dict:
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text at byte {err.start}") from err
    except RecursionError as err:
        raise ConfigError(f"{path}: JSON nested too deeply") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def _resolve_config(
    doc: dict,
    algo: str,
    seed_override: int | None = None,
    out_override: Path | None = None,
):
    """Turn a flat config document into (spec, params, table, out_dir, echo)."""
    allowed = (
        set(_SPEC_DEFAULTS)
        | set(_GA_FIELDS)
        | {f"{name}_{field}" for name in ALGORITHMS for field in _GA_FIELDS}
        | {f"score_{name}" for name in _SCORE_FIELDS}
        | {"out_dir"}
    )
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")

    spec_values = {
        name: _require_int(name, doc.get(name, default))
        for name, default in _SPEC_DEFAULTS.items()
    }
    spec = ProblemSpec(**spec_values)

    ga_values = {}
    for field in _GA_FIELDS:
        prefixed = f"{algo}_{field}"
        if prefixed in doc:
            value = doc[prefixed]
            source = prefixed
        elif field in doc:
            value = doc[field]
            source = field
        elif field == "n_max":
            value, source = _N_MAX_DEFAULTS[algo], None
        else:
            value, source = _PARAM_DEFAULTS[field], None
        if source is not None:
            value = (
                _require_int(source, value)
                if field in _GA_INT_FIELDS
                else _require_number(source, value)
            )
        ga_values[field] = value
    if seed_override is not None:
        ga_values["seed"] = seed_override
    params = GaParams(**ga_values)

    score_values = {
        f.name: _require_number(f"score_{f.name}", doc.get(f"score_{f.name}", f.default))
        for f in dataclasses.fields(ScoreTable)
    }
    table = ScoreTable(**score_values)

    out_name = doc.get("out_dir", "out")
    if not isinstance(out_name, str):
        raise ConfigError("config field 'out_dir' must be a string")
    out_dir = Path(out_override) if out_override is not None else Path(out_name)
    echo = {
        **spec_values,
        **ga_values,
        "out_dir": str(out_dir),
        "scores": dataclasses.asdict(table),
    }
    return spec, params, table, out_dir, echo


def _resolve_grid(doc: dict) -> tuple[dict[str, SweepAxis], dict[str, list[float]]]:
    unknown = sorted(set(doc) - {"axes", "exclude"})
    if unknown:
        raise ConfigError(f"unknown grid keys: {unknown}")
    axes_doc = doc.get("axes")
    if not isinstance(axes_doc, dict):
        raise ConfigError("grid file must define an 'axes' object")
    axes = {}
    for name, axis in axes_doc.items():
        if not isinstance(axis, dict):
            raise ConfigError(f"axis {name!r} must be an object")
        extra = sorted(set(axis) - {"center", "half_width", "step"})
        if extra:
            raise ConfigError(f"axis {name!r} has unknown keys: {extra}")
        missing = sorted({"center", "half_width", "step"} - set(axis))
        if missing:
            raise ConfigError(f"axis {name!r} is missing keys: {missing}")
        axes[name] = SweepAxis(
            center=_require_number(f"{name}.center", axis["center"]),
            half_width=_require_number(f"{name}.half_width", axis["half_width"]),
            step=_require_number(f"{name}.step", axis["step"]),
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


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file of a unique name in the target directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def schedule_document(
    spec: ProblemSpec, table: ScoreTable, schedule: Chromosome, breakdown: FitnessBreakdown
) -> dict:
    """Self-contained JSON document of a schedule and its fitness under ``table``."""
    tracks = []
    for g in range(schedule.n_g):
        row = []
        for t in range(schedule.n_t):
            patient = int(schedule.patients[g, t])
            row.append(
                {
                    "status": GantryStatus(int(schedule.statuses[g, t])).name,
                    "patient": None if patient == VACANT else patient,
                }
            )
        tracks.append(row)
    return {
        "n_g": spec.n_g,
        "n_p": spec.n_p,
        "n_t": spec.n_t,
        "scores": dataclasses.asdict(table),
        "fitness": {"total": breakdown.total, "counts": breakdown.counts()},
        "tracks": tracks,
    }


def _curves_csv(result: RunResult) -> str:
    lines = ["generation,best_fitness,population"]
    for record in result.records:
        lines.append(f"{record.generation},{record.best_fitness!r},{record.population}")
    return "\n".join(lines) + "\n"


def _sweep_csv(records: list[SweepRecord]) -> str:
    lines = ["r_s,r_c,r_m,r_r,algorithm,seed,best_fitness,run_seconds,error"]
    for r in records:
        error = "" if r.error is None else r.error.replace("\n", " ").replace(",", ";")
        lines.append(
            f"{r.r_s:.2f},{r.r_c:.2f},{r.r_m:.2f},{r.r_r:.2f},"
            f"{r.algorithm},{r.seed},{r.best_fitness!r},{r.run_seconds!r},{error}"
        )
    return "\n".join(lines) + "\n"


def _summary_csv(summary) -> str:
    header = (
        "label,count,fitness_mean,fitness_max,fitness_min,fitness_std,"
        "time_mean,time_max,time_min,time_std"
    )
    rows = [header]
    for label, fit, tim in (
        ("all", summary.fitness, summary.run_time),
        (f"top{summary.k}", summary.top_fitness, summary.top_run_time),
    ):
        rows.append(
            f"{label},{fit.count},{fit.mean!r},{fit.maximum!r},{fit.minimum!r},{fit.std!r},"
            f"{tim.mean!r},{tim.maximum!r},{tim.minimum!r},{tim.std!r}"
        )
    return "\n".join(rows) + "\n"


def _cmd_run(args: argparse.Namespace) -> int:
    doc = _load_json(args.config, "config")
    spec, params, table, out_dir, echo = _resolve_config(
        doc, args.algo, args.seed, args.out
    )
    result = ALGORITHMS[args.algo](spec, params, table)
    summary = {
        "algorithm": args.algo,
        "seed": params.seed,
        "best_fitness": result.best_breakdown.total,
        "elapsed_seconds": result.elapsed,
        "config": echo,
    }
    outputs = {
        "curves.csv": _curves_csv(result),
        "best_schedule.json": _json_text(
            schedule_document(spec, table, result.best_schedule, result.best_breakdown)
        ),
        "summary.json": _json_text(summary),
    }
    for name, text in outputs.items():
        _write_atomic(out_dir / name, text)
    print(
        f"{args.algo} run (seed {params.seed}): best fitness "
        f"{result.best_breakdown.total!r} over {len(result.records)} records -> {out_dir}"
    )
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    doc = _load_json(args.config, "config")
    spec, params, table, out_dir, _ = _resolve_config(doc, args.algo, args.seed, args.out)
    axes, exclude = _resolve_grid(_load_json(args.grid, "grid"))
    points = build_grid(params, axes)
    if not filter_records(points, exclude)[0]:
        raise ConfigError(f"the grid's exclusions remove all {len(points)} points")
    records = run_sweep(spec, points, table, args.algo, params.seed)
    kept, removed = filter_records(records, exclude)
    succeeded = [r for r in kept if r.error is None]
    failed = len(kept) - len(succeeded)
    _write_atomic(out_dir / "sweep.csv", _sweep_csv(kept))
    if succeeded:
        _write_atomic(out_dir / "sweep_summary.csv", _summary_csv(summarize(succeeded)))
    print(
        f"swept {len(points)} {args.algo} points: {len(succeeded)} ok, "
        f"{failed} failed, {removed} excluded -> {out_dir}"
    )
    return EXIT_OK if succeeded else EXIT_RUNTIME


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
        p.add_argument("--out", type=Path, default=None, help="overrides the output directory")
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


if __name__ == "__main__":
    sys.exit(main())
