"""Command-line interface tests: configs, outputs, exit codes."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from brute_fitness import WEIGHTS, brute_breakdown
from gantrysched import cli
from gantrysched.cli import main
from gantrysched.fitness import COUNT_NAMES
from gantrysched.model import GantryStatus

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
        ],
        ids=["not-utf8", "deeply-nested"],
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

    def test_unwritable_out_dir_exits_3(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        config = write_config(tmp_path, out_dir=str(blocker / "sub"))
        assert main(["run", "--config", str(config)]) == 3


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

    def test_malformed_axis_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        grid = write_grid(tmp_path, {"r_s": {"center": 0.5}})
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 2
        assert "missing" in capsys.readouterr().err


class TestQubitsCommand:
    def test_prints_reference_size(self, capsys):
        code = main(
            ["qubits", "--N", "70", "--nt", "650", "--ng", "3", "--np", "72", "--ns", "8"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1365000"

    def test_bad_size_exits_2(self, capsys):
        assert main(["qubits", "--N", "0", "--nt", "1", "--ng", "1", "--np", "2", "--ns", "2"]) == 2


class TestModuleEntryPoint:
    def test_runs_as_module(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "gantrysched.cli",
                "qubits", "--N", "2", "--nt", "3", "--ng", "1", "--np", "4", "--ns", "8",
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "30"


class TestAtomicWrites:
    def test_tmp_files_are_not_left_behind(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        leftovers = [p for p in (tmp_path / "out").iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

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


class TestGoldenRun:
    @pytest.mark.parametrize("algo", ["classical", "quantum"])
    def test_medium_seed0_is_byte_identical(self, tmp_path, algo):
        """The seeded medium run of each algorithm reproduces its recorded outputs exactly."""
        out = tmp_path / "run"
        code = main(
            [
                "run", "--config", str(ROOT / "configs" / "medium.json"),
                "--algo", algo, "--seed", "0", "--threads", "1", "--out", str(out),
            ]
        )
        assert code == 0
        golden = ROOT / "tests" / "golden" / f"medium-{algo}-seed0"
        for name in ("curves.csv", "best_schedule.json"):
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name
