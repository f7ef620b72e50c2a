"""Command-line interface tests: configs, outputs, exit codes."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from brute_fitness import WEIGHTS, brute_breakdown
from gantrysched import GaParams, ProblemSpec, build_grid, classical, cli, derive_seed, fitness
from gantrysched.cli import main
from gantrysched.quantum import memory_estimate
from gantrysched.fitness import COUNT_NAMES
from gantrysched.model import ConfigError, GantryStatus
from gantrysched.sweep import SWEEP_PARAMS

ROOT = Path(__file__).resolve().parent.parent

TINY_CONFIG = {
    "n_g": 1,
    "n_p": 3,
    "n_t": 30,
    "n_ini": 4,
    "g_max": 3,
    "seed": 7,
    "classical_n_max": 20,
    "quantum_n_max": 12,
}


def write_config(tmp_path, extra=None, **overrides):
    doc = {**TINY_CONFIG, "out_dir": str(tmp_path / "out"), **overrides}
    if extra:
        doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the package from ``src``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def no_runs(monkeypatch):
    """Replace both algorithms by a stub that fails the test if a GA runs."""

    def refuse(*args):
        raise AssertionError("a GA ran")

    for algo in ("classical", "quantum"):
        monkeypatch.setitem(cli.ALGORITHMS, algo, refuse)


def write_grid(tmp_path, axes, exclude=None):
    doc = {"axes": axes}
    if exclude is not None:
        doc["exclude"] = exclude
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    return path


class TestRunCommand:
    def test_writes_all_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--threads", "1"]) == 0
        out = tmp_path / "out"
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "generation,best_fitness,population"
        assert len(curves) == TINY_CONFIG["g_max"] + 2  # header + one per record
        assert curves[1].startswith("0,")

        summary = json.loads((out / "summary.json").read_text())
        assert summary["algorithm"] == "classical"
        assert summary["seed"] == 7
        assert summary["config"]["n_max"] == 20
        assert summary["config"]["n_t"] == 30
        assert "best fitness" in capsys.readouterr().out

    def test_best_schedule_round_trips(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        doc = json.loads((tmp_path / "out" / "best_schedule.json").read_text())
        statuses = [[int(GantryStatus[cell["status"]]) for cell in row] for row in doc["tracks"]]
        patients = [
            [-1 if cell["patient"] is None else cell["patient"] for cell in row]
            for row in doc["tracks"]
        ]
        assert doc["scores"] == WEIGHTS
        expected = brute_breakdown(statuses, patients)
        assert doc["fitness"]["total"] == expected["total"]
        assert doc["fitness"]["counts"] == {name: expected[name] for name in COUNT_NAMES}
        assert doc["n_t"] == 30 and doc["n_g"] == 1

    def test_quantum_defaults_are_separate(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--algo", "quantum"]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["algorithm"] == "quantum"
        assert summary["config"]["n_max"] == 12

    def test_seed_and_out_overrides(self, tmp_path):
        config = write_config(tmp_path)
        override = tmp_path / "elsewhere"
        code = main(
            ["run", "--config", str(config), "--seed", "99", "--out", str(override)]
        )
        assert code == 0
        summary = json.loads((override / "summary.json").read_text())
        assert summary["seed"] == 99
        assert not (tmp_path / "out").exists()

    def test_matches_library_results(self, tmp_path):
        """The CLI is a thin wrapper: outputs equal a direct library call."""
        from gantrysched import GaParams, ProblemSpec, run_classical

        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        curves = (tmp_path / "out" / "curves.csv").read_text().splitlines()[1:]
        result = run_classical(
            ProblemSpec(n_g=1, n_p=3, n_t=30),
            GaParams(
                r_s=0.83, r_c=0.27, r_m=0.37, r_r=0.85,
                n_ini=4, n_max=20, g_max=3, seed=7,
            ),
        )
        want = [
            f"{r.generation},{r.best_fitness!r},{r.population}" for r in result.records
        ]
        assert curves == want


class TestRunErrors:
    def test_missing_config_exits_2_without_outputs(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"n_g": 1,\n  "n_p": }')
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"n_g": 1, "out_dir": "\xff"}', "not UTF-8"),
            (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
            (b'{"n_t": ' + b"9" * 4301 + b"}", "4300 digits"),
        ],
        ids=["not-utf8", "deeply-nested", "huge-integer"],
    )
    @pytest.mark.parametrize("where", ["config", "grid"])
    def test_unreadable_json_exits_2(self, tmp_path, content, message, where, capsys):
        config = write_config(tmp_path)
        grid = write_grid(tmp_path, {"r_s": {"center": 0.5, "half_width": 0, "step": 0.1}})
        (tmp_path / f"{where}.json").write_bytes(content)
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 2
        err = capsys.readouterr().err
        assert f"{where}.json" in err and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, message",
        [("x" * 300, "File name too long"), ("folder", "is not a regular file")],
        ids=["long-name", "directory"],
    )
    @pytest.mark.parametrize("where", ["config", "grid"])
    def test_unopenable_path_exits_2_without_outputs(self, tmp_path, name, message, where, capsys):
        """A path the file system refuses, or one that names no regular file, is not read."""
        (tmp_path / "folder").mkdir()
        paths = {
            "config": write_config(tmp_path),
            "grid": write_grid(tmp_path, {"r_s": {"center": 0.5, "half_width": 0, "step": 0.1}}),
        }
        paths[where] = tmp_path / name
        out = ["--out", str(tmp_path / "out")]
        commands = [["sweep", "--config", str(paths["config"]), "--grid", str(paths["grid"])]]
        if where == "config":
            commands.append(["run", "--config", str(paths["config"])])
        for command in commands:
            assert main(command + out) == 2
            err = capsys.readouterr().err
            assert f"{where} file {paths[where]}" in err and message in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "where, repeat, key",
        [
            ("config", lambda doc: '{"n_g": 2, ' + doc[1:], "n_g"),
            ("grid", lambda doc: doc.replace('{"r_s": ', '{"r_s": {}, "r_s": '), "r_s"),
            ("grid", lambda doc: doc.replace('"step"', '"step": 0.2, "step"'), "step"),
        ],
        ids=["config-key", "axis", "axis-field"],
    )
    def test_repeated_key_exits_2_without_outputs(
        self, tmp_path, where, repeat, key, capsys, no_runs
    ):
        config = write_config(tmp_path)
        grid = write_grid(tmp_path, {"r_s": {"center": 0.5, "half_width": 0, "step": 0.1}})
        path = tmp_path / f"{where}.json"
        path.write_text(repeat(path.read_text()))
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 2
        assert f"{path}: repeated key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        if where == "config":
            assert main(["run", "--config", str(config)]) == 2
            assert not (tmp_path / "out").exists()

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the default output directory lies here
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert main(["run", "--config", str(path)]) == 2
        assert "top level must be a JSON object" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_out_dir_that_is_not_a_string_exits_2(self, tmp_path, capsys, monkeypatch, no_runs):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, out_dir=5)
        assert main(["run", "--config", str(config)]) == 2
        assert "config field 'out_dir' must be a string" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, extra={"n_gantries": 2})
        assert main(["run", "--config", str(config)]) == 2
        assert "n_gantries" in capsys.readouterr().err

    def test_bool_is_not_an_integer(self, tmp_path, capsys):
        config = write_config(tmp_path, n_ini=True)
        assert main(["run", "--config", str(config)]) == 2
        assert "n_ini" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["n_ini", "classical_n_max", "g_max", "seed"])
    def test_fractional_count_exits_2(self, tmp_path, field, capsys):
        config = write_config(tmp_path, **{field: 4.5})
        assert main(["run", "--config", str(config)]) == 2
        assert field in capsys.readouterr().err

    def test_patient_count_beyond_int32_exits_2(self, tmp_path, capsys, no_runs):
        config = write_config(tmp_path, n_p=3_000_000_000)
        assert main(["run", "--config", str(config)]) == 2
        assert "n_p" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_of_range_ratio_exits_2(self, tmp_path):
        config = write_config(tmp_path, r_s=1.4)
        assert main(["run", "--config", str(config)]) == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, threads, capsys):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", str(config), "--threads", threads])
        assert exit_info.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize("where", ["config", "grid"])
    def test_non_finite_numbers_exit_2(self, tmp_path, value, where, capsys):
        """JSON's non-standard constants are rejected before anything runs."""
        if where == "config":
            config = write_config(tmp_path, score_conflict=float(value))
            argv = ["run", "--config", str(config)]
            field = "score_conflict"
        else:
            config = write_config(tmp_path)
            axis = {"center": 0.5, "half_width": float(value), "step": 0.1}
            grid = write_grid(tmp_path, {"r_s": axis})
            argv = ["sweep", "--config", str(config), "--grid", str(grid)]
            field = "r_s.half_width"
        assert value in (tmp_path / f"{where}.json").read_text()
        assert main(argv) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, extra",
        [("n_g", {}), ("n_t", {}), ("n_ini", {}),
         ("classical_n_max", {"r_s": 1, "r_c": 1, "g_max": 2000})],
    )
    def test_count_too_large_for_a_float_exits_2(self, tmp_path, capsys, no_runs, key, extra):
        """Counts past 2**31 are refused before any float arithmetic on them."""
        config = write_config(tmp_path, **{key: 10**400, **extra})
        assert main(["run", "--config", str(config)]) == 2
        assert key.removeprefix("classical_") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_number_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, score_conflict=10**400)
        assert main(["run", "--config", str(config)]) == 2
        assert "score_conflict" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_weights_that_can_overflow_exit_2(self, tmp_path, capsys, no_runs, command):
        """Two weights of 1e308 would sum to an infinite total after the whole GA ran."""
        config = write_config(tmp_path, score_conflict=1e308, score_completed_therapy=1e308)
        grid = write_grid(tmp_path, {"r_s": {"center": 0.6, "half_width": 0.2, "step": 0.2}})
        args = [command, "--config", str(config)]
        assert main(args + ["--grid", str(grid)] if command == "sweep" else args) == 2
        assert "score weights" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_dir_with_a_nul_exits_2(self, tmp_path, capsys, no_runs):
        config = write_config(tmp_path, out_dir="a\u0000b")
        assert main(["run", "--config", str(config)]) == 2
        assert "NUL" in capsys.readouterr().err

    def test_out_dir_name_too_long_exits_2(self, tmp_path, capsys, no_runs):
        """64 four-byte characters pass the 255-byte limit on a file name."""
        config = write_config(tmp_path, out_dir=str(tmp_path / ("\U0001F600" * 64)))
        assert main(["run", "--config", str(config)]) == 2
        assert "too long" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_unwritable_out_dir_exits_3(self, tmp_path):
        """A write that fails only after the run, here onto a directory, exits 3."""
        (tmp_path / "out" / "curves.csv").mkdir(parents=True)
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 3
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["curves.csv"]

    @pytest.mark.parametrize("below", ["", "sub"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_out_dir_at_or_below_a_file_exits_2(self, tmp_path, capsys, no_runs, below, via):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        out = blocker / below if below else blocker
        if via == "flag":
            args = ["run", "--config", str(write_config(tmp_path)), "--out", str(out)]
        else:
            args = ["run", "--config", str(write_config(tmp_path, out_dir=str(out)))]
        assert main(args) == 2
        assert f"{blocker} is not a directory" in capsys.readouterr().err
        assert blocker.read_text() == "a file, not a directory"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_empty_out_dir_name_exits_2(self, tmp_path, capsys, monkeypatch, command, via):
        """An empty name is no directory: it must not fall back to the working directory."""
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, g_max=1, **({"out_dir": ""} if via == "config" else {}))
        args = [command, "--config", str(config)] + (["--out", ""] if via == "flag" else [])
        if command == "sweep":
            grid = write_grid(tmp_path, {"r_s": {"center": 0.6, "half_width": 0.0, "step": 0.1}})
            args += ["--grid", str(grid)]
        before = sorted(tmp_path.iterdir())
        assert main(args) == 2
        assert "output directory name '' is empty" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before


class TestSweepCommand:
    def test_writes_sweep_outputs(self, tmp_path):
        config = write_config(tmp_path, g_max=2)
        grid = write_grid(
            tmp_path, {"r_s": {"center": 0.6, "half_width": 0.2, "step": 0.2}}
        )
        code = main(["sweep", "--config", str(config), "--grid", str(grid)])
        assert code == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("r_s,r_c,r_m,r_r,algorithm,seed,")
        assert len(rows) == 4  # header + three grid points
        assert all(row.split(",")[4] == "classical" for row in rows[1:])

        summary = (tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()
        assert summary[1].startswith("all,3,")
        assert summary[2].startswith("top10,3,")

    def test_out_dir_below_a_file_exits_2(self, tmp_path, capsys, no_runs):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        grid = write_grid(tmp_path, {"r_s": {"center": 0.6, "half_width": 0.2, "step": 0.2}})
        config = write_config(tmp_path)
        args = ["sweep", "--config", str(config), "--grid", str(grid), "--out", str(blocker / "x")]
        assert main(args) == 2
        assert f"{blocker} is not a directory" in capsys.readouterr().err

    def test_exclusions_drop_rows(self, tmp_path):
        config = write_config(tmp_path, g_max=2)
        grid = write_grid(
            tmp_path,
            {"r_s": {"center": 0.6, "half_width": 0.2, "step": 0.2}},
            exclude={"r_s": [0.4]},
        )
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3
        assert not any(row.startswith("0.40,") for row in rows[1:])
        # kept points keep the seeds of their positions in the full grid
        seeds = [int(row.split(",")[5]) for row in rows[1:]]
        assert seeds == [derive_seed(TINY_CONFIG["seed"], 1), derive_seed(TINY_CONFIG["seed"], 2)]

    def test_failing_point_stops_the_sweep_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        calls = []
        real_runner = cli.ALGORITHMS["classical"]

        def flaky(spec, params, table):
            calls.append(params.r_s)
            if len(calls) == 2:
                raise RuntimeError("point two failed")
            return real_runner(spec, params, table)

        monkeypatch.setitem(cli.ALGORITHMS, "classical", flaky)
        config = write_config(tmp_path, g_max=2)
        grid = write_grid(
            tmp_path,
            {"r_s": {"center": 0.6, "half_width": 0.4, "step": 0.2}},
            exclude={"r_s": [0.4]},
        )
        out = tmp_path / "out"
        out.mkdir()
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 3
        assert calls == [0.2, 0.6]  # the second kept point fails and the last never runs
        assert "point two failed" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_grid_excluding_every_point_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        grid = write_grid(
            tmp_path,
            {"r_s": {"center": 0.6, "half_width": 0.2, "step": 0.2}},
            exclude={"r_s": [0.4, 0.6, 0.8]},
        )
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 2
        assert "remove all 3 points" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_exclusion_name_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        grid = write_grid(
            tmp_path,
            {"r_s": {"center": 0.6, "half_width": 0.2, "step": 0.2}},
            exclude={"g_max": [3]},
        )
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 2
        assert "g_max" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "exclude, message",
        [
            ([0.4], "grid 'exclude' must be an object of value lists"),
            ({"r_s": 0.4}, "exclusion 'r_s' must list values"),
        ],
        ids=["exclude-list", "exclusion-number"],
    )
    def test_malformed_exclusions_exit_2(self, tmp_path, capsys, no_runs, exclude, message):
        config = write_config(tmp_path)
        grid = write_grid(
            tmp_path, {"r_s": {"center": 0.6, "half_width": 0.2, "step": 0.2}}, exclude=exclude
        )
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_axis_outside_unit_interval_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        grid = write_grid(
            tmp_path, {"r_s": {"center": 0.95, "half_width": 0.1, "step": 0.05}}
        )
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 2
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "axis",
        [
            {"center": 0.5, "half_width": 50, "step": 0.0001},
            {"center": 0.5, "half_width": 0.5, "step": 1e-9},
        ],
    )
    def test_oversized_axis_exits_2(self, tmp_path, axis):
        config = write_config(tmp_path)
        grid = write_grid(tmp_path, {"r_s": axis})
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 2

    def test_oversized_grid_exits_2(self, tmp_path):
        """Four full axes, 101**4 points, are refused before any point is built.

        The command runs in a child capped at 2 GiB of address space, so a
        missing bound fails here with a memory error instead of filling the
        host's memory.
        """
        config = write_config(tmp_path)
        full = {"center": 0.5, "half_width": 0.5, "step": 0.01}  # 101 values
        grid = write_grid(tmp_path, dict.fromkeys(("r_s", "r_c", "r_m", "r_r"), full))
        cap = 2 * 1024**3
        proc = subprocess.run(
            [
                sys.executable, "-m", "gantrysched.cli",
                "sweep", "--config", str(config), "--grid", str(grid),
            ],
            capture_output=True,
            text=True,
            env=child_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            timeout=120,
        )
        assert proc.returncode == 2
        assert "more than 10201" in proc.stderr

    def test_shipped_small_grid_runs(self, tmp_path):
        config = write_config(tmp_path, g_max=1)
        grid = ROOT / "configs" / "grid_small.json"
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 15 - 3  # header + 15 points - the excluded r_s row

    def test_unknown_axis_exits_2(self, tmp_path):
        config = write_config(tmp_path)
        grid = write_grid(tmp_path, {"g_max": {"center": 0.5, "half_width": 0, "step": 1}})
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 2

    @pytest.mark.parametrize("doc", [{}, {"exclude": {}}, {"axes": [1]}, {"axes": None}])
    def test_grid_without_an_axes_object_exits_2(self, tmp_path, doc, capsys, no_runs):
        config = write_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 2
        assert "grid file must define an 'axes' object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_axis_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        grid = write_grid(tmp_path, {"r_s": {"center": 0.5}})
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 2
        assert "missing" in capsys.readouterr().err


class TestMemoryBound:
    """Runs whose grids would pass the bound exit 2 before any GA runs."""

    def test_run_over_the_bound_exits_2(self, tmp_path, capsys, no_runs):
        # 3 * 10**5 cells * (1000 + 8) * 16 bytes per chromosome, 4 chromosomes
        config = write_config(tmp_path, n_g=3, n_p=1000, n_t=10**5)
        assert main(["run", "--config", str(config), "--algo", "quantum"]) == 2
        assert "MiB bound" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_classical_run_over_the_bound_exits_2(self, tmp_path, capsys, no_runs):
        # 3 * 10**8 cells * 5 bytes per chromosome, 4 chromosomes
        config = write_config(tmp_path, n_g=3, n_t=10**8)
        assert main(["run", "--config", str(config), "--algo", "classical"]) == 2
        err = capsys.readouterr().err
        assert "MiB bound" in err and "classical" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("algo", ["classical", "quantum"])
    def test_scoring_buffers_count_toward_the_bound(self, tmp_path, capsys, algo, no_runs):
        """Counting needs a bounded number of bytes per cell, however many gantries share a slot."""
        wide = write_config(tmp_path, n_g=8000, n_t=30)  # 240 000 cells: about 22 MiB to count
        spec, params, *_ = cli._resolve_config(json.loads(wide.read_text()), algo)
        cli._check_memory(spec, params, algo)
        # one track of 2**25 cells and 10 members: counting one schedule needs 3 GiB
        config = write_config(tmp_path, n_g=1, n_t=2**25, n_ini=10)
        spec, params, *_ = cli._resolve_config(json.loads(config.read_text()), algo)
        grids, count = classical.memory_estimate(spec, params), fitness._count_bytes(spec)
        assert grids < cli.MEMORY_BOUND < count
        assert main(["run", "--config", str(config), "--algo", algo]) == 2
        assert "MiB bound" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_slow_growth_past_the_bound_exits_2_at_once(self, tmp_path, capsys, no_runs, command):
        """The peak search ends early, not after some 10**5 generations of slow growth."""
        # one-cell members of 2 + 1024 bytes, about 2**21 to the bound: from 2**22 by one
        # crossover pair a generation, from 2**20 by one pair a generation, and from
        # 2**20 by about 2**-18 of the population
        slow = [(2**22, 1, 3 / 2**22), (2**20, 1, 2 / 2**20), (2**20, 0.8 + 2**-18, 0.25)]
        grid = write_grid(tmp_path, {"r_m": {"center": 0.37, "half_width": 0.0, "step": 0.1}})
        for n_ini, r_s, r_c in slow:
            config = write_config(
                tmp_path, n_g=1, n_p=1, n_t=1, n_ini=n_ini, classical_n_max=2**31,
                r_s=r_s, r_c=r_c, g_max=10**9,
            )
            args = [command, "--config", str(config)]
            started = time.process_time()
            assert main(args + ["--grid", str(grid)] if command == "sweep" else args) == 2
            assert time.process_time() - started < 1
            assert "MiB bound" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_sweep_checks_every_point(self, tmp_path, capsys, no_runs):
        """Only the last point, whose population grows fastest, passes the bound."""
        cells = 200_000  # 16 grid values per cell: 51 MB per chromosome
        config = write_config(
            tmp_path, n_g=1, n_p=8, n_t=cells, n_ini=10, quantum_n_max=100, r_s=1.0
        )
        # r_c 0.0, 0.5 and 1.0 peak at 10, 30 and 80 chromosomes: 489, 1465 and 3907 MiB
        per_chromosome = cells * 16 * 16
        assert 30 * per_chromosome <= cli.MEMORY_BOUND < 80 * per_chromosome
        axes = {"r_c": {"center": 0.5, "half_width": 0.5, "step": 0.5}}
        spec, base, *_ = cli._resolve_config(json.loads(config.read_text()), "quantum")
        needs = [
            cli._MEMORY_ESTIMATES["quantum"](spec, point) + fitness._count_bytes(spec)
            for point in build_grid(base, cli._resolve_grid({"axes": axes})[0], {})[0]
        ]
        assert [need > cli.MEMORY_BOUND for need in needs] == [False, False, True]
        grid = write_grid(tmp_path, axes)
        args = ["sweep", "--config", str(config), "--grid", str(grid), "--algo", "quantum"]
        assert main(args) == 2
        assert "MiB bound" in capsys.readouterr().err

    def test_sweep_runs_and_checks_only_kept_points(self, tmp_path, capsys, monkeypatch, no_runs):
        """Excluding the one over-bound point lets the sweep run the other two."""
        # r_c 0.0, 0.5, 1.0 need about 0.5, 1.4 and 3.8 GiB
        config = write_config(
            tmp_path, n_g=1, n_p=8, n_t=200_000, n_ini=10, quantum_n_max=100, r_s=1.0
        )

        def sweep(exclude=None):
            axes = {"r_c": {"center": 0.5, "half_width": 0.5, "step": 0.5}}
            grid = write_grid(tmp_path, axes, exclude)
            return main(
                ["sweep", "--config", str(config), "--grid", str(grid), "--algo", "quantum"]
            )

        assert sweep() == 2
        assert "MiB bound" in capsys.readouterr().err

        calls = []
        refuse = cli.ALGORITHMS["quantum"]

        def counted(spec, params, table):
            calls.append(params.r_c)
            return refuse(spec, params, table)

        monkeypatch.setitem(cli.ALGORITHMS, "quantum", counted)
        assert sweep(exclude={"r_c": [1.0]}) == 3  # the first kept point stops the sweep
        assert calls == [0.0]
        err = capsys.readouterr().err
        assert "MiB bound" not in err and "a GA ran" in err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_estimate_is_chromosome_size_times_peak_population(self):
        spec = ProblemSpec(n_g=3, n_p=72, n_t=650)
        params = GaParams(
            r_s=0.83, r_c=0.37, r_m=0.37, r_r=0.85, n_ini=40, n_max=250, g_max=20, seed=0
        )
        # a member's grids and 1024 bytes of loop objects
        assert memory_estimate(spec, params) == 342 * (3 * 650 * (72 + 8) * 16 + 1024)
        # a classical cell holds an int8 status and a patient id of 1, 2 or 4 bytes
        assert classical.memory_estimate(spec, params) == 342 * (3 * 650 * 2 + 1024)
        for n_p, cell_bytes in [(200, 3), (40_000, 5)]:
            wider = ProblemSpec(n_g=3, n_p=n_p, n_t=650)
            assert classical.memory_estimate(wider, params) == 342 * (3 * 650 * cell_bytes + 1024)

    @pytest.mark.parametrize("algo", ["classical", "quantum"])
    def test_loop_objects_count_toward_the_bound(self, tmp_path, algo):
        """2**22 one-cell members hold a few GiB of breakdowns and views, if few bytes of grids."""
        config = write_config(tmp_path, n_g=1, n_p=1, n_t=1, n_ini=2**22, n_max=2**22)
        spec, params, *_ = cli._resolve_config(json.loads(config.read_text()), algo)
        with pytest.raises(ConfigError, match="MiB bound"):
            cli._check_memory(spec, params, algo)

    @pytest.mark.parametrize("algo", ["classical", "quantum"])
    def test_one_cell_run_peaks_below_its_estimate(self, algo):
        """Where the grids are small, the loop's objects per member make the peak."""
        spec = ProblemSpec(n_g=1, n_p=1, n_t=1)
        params = GaParams(
            r_s=1.0, r_c=0.5, r_m=0.37, r_r=0.85, n_ini=2**14, n_max=2**14, g_max=1, seed=0
        )
        run = cli.ALGORITHMS[algo]
        run(spec, dataclasses.replace(params, n_ini=64, n_max=64))  # warm-up: caches and imports
        tracemalloc.start()
        try:
            run(spec, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cli._MEMORY_ESTIMATES[algo](spec, params) + fitness._count_bytes(spec)

    @pytest.mark.parametrize("name", ["medium", "large"])
    def test_shipped_configs_sit_far_below_the_bound(self, name):
        doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        estimates = {"classical": classical.memory_estimate, "quantum": memory_estimate}
        for algo, estimate in estimates.items():
            spec, params, *_ = cli._resolve_config(doc, algo)
            assert estimate(spec, params) * 50 < cli.MEMORY_BOUND


# JSON values of every kind.  Strings hold no "/", so an out_dir stays in the
# directory it is resolved from or names its parent.
WILD_TEXT = st.text(st.characters(blacklist_characters="/") | st.sampled_from("\0\r"), max_size=64)
WILD_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**400), 10**400)
    | st.floats(-sys.float_info.max, sys.float_info.max) | WILD_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(WILD_TEXT, inner, max_size=3),
    max_leaves=6,
)
RATIOS = st.floats(0, 1) | st.sampled_from([0, 1])
BOUNDS = st.sampled_from([2**31, 2**31 + 1, 2**64 - 1, 2**64, 10**400])
GA_VALUES = {
    **dict.fromkeys(["r_s", "r_c", "r_m", "r_r"], RATIOS),
    **dict.fromkeys(["n_ini", "n_max"], st.integers(2, 60) | BOUNDS),
    "g_max": st.integers(0, 60),
    "seed": st.integers(0, 2**64 - 1) | BOUNDS,
}
CONFIG_VALUES = {
    **dict.fromkeys(["n_g", "n_p", "n_t"], st.integers(1, 40) | BOUNDS),
    **GA_VALUES,
    **{f"{algo}_{key}": GA_VALUES[key] for algo in ("classical", "quantum") for key in GA_VALUES},
    **{f"score_{name}": st.floats(0, 100) | st.integers(0, 100) for name in cli._SCORE_FIELDS},
    "out_dir": st.text("ab .\r", max_size=8),
}


@st.composite
def documents(draw, values: dict, required=()):
    """The required and some other known keys, each with a plausible value.

    One document in four is spoilt: a drawn few of its keys hold values of
    any kind, and an unknown key may join them.
    """
    optional = [key for key in values if key not in required]
    picked = draw(st.lists(st.sampled_from(optional), unique=True)) if optional else []
    keys = [*required, *picked]
    if draw(st.integers(0, 3)):
        return {key: draw(values[key]) for key in keys}
    wild = draw(st.sets(st.sampled_from(keys))) if keys else set()
    doc = {key: draw(WILD_VALUES if key in wild else values[key]) for key in keys}
    doc.update(draw(st.dictionaries(WILD_TEXT, WILD_VALUES, max_size=1)))
    return doc


AXIS_VALUES = {
    "center": st.sampled_from([0.3, 0.5]) | RATIOS,
    "half_width": st.sampled_from([0, 0.2]) | st.floats(0, 0.5),
    "step": st.sampled_from([0.1, 1]) | st.floats(0, 1),
}
AXIS = documents(AXIS_VALUES, AXIS_VALUES)
AXES = st.sampled_from(SWEEP_PARAMS).flatmap(
    lambda name: documents(dict.fromkeys(SWEEP_PARAMS, AXIS), [name])
)
EXCLUDE = documents(dict.fromkeys(SWEEP_PARAMS, st.lists(RATIOS, max_size=3)))
GRID_DOCUMENTS = documents({"axes": AXES, "exclude": EXCLUDE}, ["axes"])


@pytest.fixture
def stub_runs(monkeypatch):
    """Replace both algorithms by a stub that returns one recorded result at once."""
    result = classical.run_classical(
        ProblemSpec(n_g=1, n_p=2, n_t=30), GaParams(0.8, 0.3, 0.4, 0.8, 4, 8, 1, 0)
    )
    for algo in ("classical", "quantum"):
        monkeypatch.setitem(cli.ALGORITHMS, algo, lambda *args: result)


class TestInputBoundary:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(
        config=documents(CONFIG_VALUES),
        grid=GRID_DOCUMENTS,
        algo=st.sampled_from(["classical", "quantum"]),
    )
    @example(
        config={"n_t": 10**400},
        grid={"axes": {"r_s": {"center": 0.5, "half_width": 0, "step": 1}}},
        algo="classical",
    )
    def test_any_document_exits_0_or_2(
        self, tmp_path, monkeypatch, stub_runs, command, config, grid, algo
    ):
        """Whatever the config and grid hold, a command succeeds or exits 2 and writes nothing."""
        work = Path(tempfile.mkdtemp(dir=tmp_path)) / "work"
        work.mkdir()
        (work / "config.json").write_text(json.dumps(config))
        (work / "grid.json").write_text(json.dumps(grid))
        monkeypatch.chdir(work)
        args = [command, "--config", "config.json", "--algo", algo]
        code = main(args + ["--grid", "grid.json"] if command == "sweep" else args)
        assert code in (0, 2)
        if code == 2:  # an out_dir of ".." resolves to the directory above
            written = {p.relative_to(work.parent).as_posix() for p in work.parent.rglob("*")}
            assert written == {"work", "work/config.json", "work/grid.json"}


class TestQubitsCommand:
    def test_prints_reference_size(self, capsys):
        code = main(
            ["qubits", "--N", "70", "--nt", "650", "--ng", "3", "--np", "72", "--ns", "8"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1365000"

    def test_bad_size_exits_2(self, capsys):
        assert main(["qubits", "--N", "0", "--nt", "1", "--ng", "1", "--np", "2", "--ns", "2"]) == 2


def run_module(args: list[str], cwd: Path | None = None, flags: tuple[str, ...] = ()):
    """``python -m gantrysched.cli`` in a child, both streams through pipes."""
    # Unbuffered output would reach the pipe write by write; buffered, it must survive the exit.
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, *flags, "-m", "gantrysched.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


class TestModuleEntryPoint:
    """The process entry, ``cli.console``, freezes the collector before it exits."""

    def test_runs_as_module(self):
        proc = run_module(
            ["qubits", "--N", "2", "--nt", "3", "--ng", "1", "--np", "4", "--ns", "8"]
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "30\n", "")

    @pytest.mark.parametrize(
        "args, code",
        [
            (["run", "--config", "config.json", "--out", "out"], 0),
            (["run", "--config", "missing.json"], 2),
            (["run", "--config", "config.json", "--algo", "annealing"], 2),
        ],
        ids=["run", "missing-config", "bad-flag"],
    )
    def test_process_matches_main(self, tmp_path, monkeypatch, capsys, args, code):
        """Exit code and every byte of stdout and stderr are those of an in-process ``main``."""
        write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        try:
            assert main(args) == code
        except SystemExit as exit:  # argparse refuses a bad flag by exiting
            assert exit.code == code
        expected = capsys.readouterr()
        proc = run_module(args, cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)
        assert (expected.out if code == 0 else expected.err).endswith("\n")  # not two empty streams

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_writes_utf8_whatever_the_locale(self, tmp_path, command):
        """Under PEP 597's check no file is opened in the locale's encoding."""
        config = write_config(tmp_path)
        grid = ["--grid", str(ROOT / "configs" / "grid_small.json")] if command == "sweep" else []
        proc = run_module(
            [command, "--config", str(config), *grid],
            flags=("-X", "warn_default_encoding", "-W", "error::EncodingWarning"),
        )
        assert proc.returncode == 0, proc.stderr

    def test_main_leaves_the_collector_as_it_was(self, tmp_path):
        """Only the process entry freezes; callers of ``main`` keep their collector."""
        config = write_config(tmp_path)
        before = (gc.get_freeze_count(), gc.isenabled())
        assert main(["run", "--config", str(config)]) == 0
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
        assert (gc.get_freeze_count(), gc.isenabled()) == before


class TestAtomicWrites:
    def test_tmp_files_are_not_left_behind(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        leftovers = [p for p in (tmp_path / "out").iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_unserializable_schedule_leaves_no_output(self, tmp_path, monkeypatch):
        """A schedule found unserializable only while it is written leaves no output file."""
        document = cli.schedule_document
        monkeypatch.setattr(
            cli, "schedule_document", lambda *args: {**document(*args), "bad": math.nan}
        )
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 3
        out = tmp_path / "out"
        assert (list(out.iterdir()) if out.exists() else []) == []

    def test_stale_tmp_directory_is_ignored(self, tmp_path):
        """A leftover at the old fixed temporary name does not block a run."""
        stale = tmp_path / "out" / "curves.csv.tmp"
        stale.mkdir(parents=True)
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "curves.csv").read_text().startswith("generation,")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "best_schedule.json", "curves.csv", "curves.csv.tmp", "summary.json"
        ]


def summary_without_time(out: Path) -> bytes:
    """``summary.json`` as written, less its wall-clock ``elapsed_seconds`` line."""
    lines = (out / "summary.json").read_bytes().splitlines(keepends=True)
    return b"".join(line for line in lines if b'"elapsed_seconds":' not in line)


GOLDEN = ROOT / "tests" / "golden"
# Configs of the recorded summaries, each run from its own directory with a relative out_dir.
SUMMARY_CASES = {
    "integer-values": {**TINY_CONFIG, "r_r": 1, "score_conflict": 25, "score_time_per_slot": 2},
    "per-algorithm": {
        **TINY_CONFIG,
        "r_m": 0.3,
        "classical_r_m": 0.5,
        "quantum_r_m": 0.2,
        "classical_seed": 3,
        "quantum_g_max": 2,
        "score_consecutive_run": 2.5,
    },
}
SUMMARY_RUNS = [("integer-values", "classical"), ("per-algorithm", "classical"),
                ("per-algorithm", "quantum")]


def medium_outputs(algo: str) -> dict[Path, bytes]:
    """Each recorded file of the seeded medium run of ``algo``, and what a run from here writes."""
    config = str(ROOT / "configs" / "medium.json")
    args = ["--algo", algo, "--seed", "0", "--threads", "1", "--out", "run"]
    assert main(["run", "--config", config, *args]) == 0
    golden, names = GOLDEN / f"medium-{algo}-seed0", ("curves.csv", "best_schedule.json")
    outputs = {golden / name: Path("run", name).read_bytes() for name in names}
    return {**outputs, golden / "summary.json": summary_without_time(Path("run"))}


def summary_outputs(case: str, algo: str) -> dict[Path, bytes]:
    """The recorded summary of a run of ``case`` by ``algo``, and what a run from here writes."""
    Path("config.json").write_text(json.dumps({**SUMMARY_CASES[case], "out_dir": "out"}))
    assert main(["run", "--config", "config.json", "--algo", algo]) == 0
    return {GOLDEN / f"summary-{case}-{algo}.json": summary_without_time(Path("out"))}


class TestGoldenRun:
    """Seeded runs reproduce their recorded outputs byte for byte.

    ``summary.json`` is compared without its ``elapsed_seconds`` line; the
    recorded summaries live beside the medium runs' outputs and in
    ``golden/summary-<case>-<algo>.json``.  A change that means to alter
    seeded results regenerates them all, and says why:

        PYTHONPATH=src python tests/test_cli.py
    """

    @pytest.mark.parametrize("algo", ["classical", "quantum"])
    def test_medium_seed0_is_byte_identical(self, tmp_path, monkeypatch, algo):
        """The seeded medium run of each algorithm reproduces its recorded outputs exactly."""
        monkeypatch.chdir(tmp_path)
        for path, content in medium_outputs(algo).items():
            assert content == path.read_bytes(), path.name

    @pytest.mark.parametrize("case, algo", SUMMARY_RUNS)
    def test_summary_is_byte_identical(self, tmp_path, monkeypatch, case, algo):
        """JSON integers for ratios and weights, and per-algorithm keys, echo as recorded."""
        monkeypatch.chdir(tmp_path)
        for path, content in summary_outputs(case, algo).items():
            assert content == path.read_bytes(), path.name


if __name__ == "__main__":
    runs = [(medium_outputs, (algo,)) for algo in ("classical", "quantum")]
    runs += [(summary_outputs, run) for run in SUMMARY_RUNS]
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for k, (outputs, args) in enumerate(runs):
                work = Path(tmp, str(k))
                work.mkdir()
                os.chdir(work)
                for path, content in outputs(*args).items():
                    path.write_bytes(content)
                    print(f"wrote {path.relative_to(ROOT)}")
        finally:
            os.chdir(home)
