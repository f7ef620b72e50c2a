"""Seeded sweep outputs match the recorded ones.

``golden/sweep_hashes.json`` holds, for ``configs/grid_small.json`` on
``configs/medium.json`` at ``g_max`` 2 and seed 0, one entry per algorithm:
the SHA-256 digest of ``sweep.csv`` with its ``run_seconds`` column dropped,
and the fitness columns of ``sweep_summary.csv`` (label, count, mean, max,
min, std).  Wall times are the only columns left out.  A change that means
to alter seeded sweep results regenerates the file, and says why:

    PYTHONPATH=src python tests/test_sweep_hashes.py
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from gantrysched.cli import main

ROOT = Path(__file__).resolve().parent.parent
HASHES = ROOT / "tests" / "golden" / "sweep_hashes.json"
ALGORITHMS = ("classical", "quantum")
G_MAX = 2
SEED = 0
SUMMARY_FITNESS_COLUMNS = 6  # label, count, then the four fitness statistics


def run_key(algo: str) -> str:
    return f"grid_small-medium-{algo}-seed{SEED}-g{G_MAX}"


def drop_column(text: str, name: str) -> str:
    rows = list(csv.reader(io.StringIO(text, newline="")))
    index = rows[0].index(name)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(row[:index] + row[index + 1 :] for row in rows)
    return out.getvalue()


def sweep_outputs(tmp_dir: Path, algo: str) -> dict:
    """Run one sweep through the CLI and return its deterministic outputs."""
    doc = json.loads((ROOT / "configs" / "medium.json").read_text())
    doc["g_max"] = G_MAX
    key = run_key(algo)
    config_path = tmp_dir / f"{key}.json"
    config_path.write_text(json.dumps(doc))
    out = tmp_dir / key
    args = [
        "sweep", "--config", str(config_path), "--grid", str(ROOT / "configs" / "grid_small.json"),
        "--algo", algo, "--seed", str(SEED), "--out", str(out),
    ]
    assert main(args) == 0, key
    sweep_csv = drop_column((out / "sweep.csv").read_text(), "run_seconds")
    summary = (out / "sweep_summary.csv").read_text().splitlines()
    return {
        "sweep_csv_sha256": hashlib.sha256(sweep_csv.encode()).hexdigest(),
        "summary_fitness": [
            ",".join(line.split(",")[:SUMMARY_FITNESS_COLUMNS]) for line in summary
        ],
    }


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_seeded_sweep_outputs_match_recorded(tmp_path, algo):
    recorded = json.loads(HASHES.read_text())
    assert sweep_outputs(tmp_path, algo) == recorded[run_key(algo)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {run_key(algo): sweep_outputs(Path(tmp), algo) for algo in ALGORITHMS}
    HASHES.write_text(json.dumps(outputs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} sweeps to {HASHES}")
