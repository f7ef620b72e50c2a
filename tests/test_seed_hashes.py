"""Seeded CLI outputs across many seeds hash the same as the recorded ones.

``golden/seed_hashes.json`` holds SHA-256 digests of ``curves.csv`` and
``best_schedule.json`` for medium seeds 1-9 of both algorithms at
``g_max`` 40, for the large classical runs at seeds 0-2 and ``g_max``
20, whose population grows to 342, and for two large quantum runs on the
3x650 grid: seed 1 at ``g_max`` 5, and seed 2 at ``g_max`` 20, long enough
for amplification to change only a few cells per call.  A change that means
to alter seeded results regenerates the file, and says why:

    PYTHONPATH=src python tests/test_seed_hashes.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from gantrysched.cli import main

ROOT = Path(__file__).resolve().parent.parent
HASHES = ROOT / "tests" / "golden" / "seed_hashes.json"
OUTPUTS = ("curves.csv", "best_schedule.json")

RUNS = [
    ("medium", algo, seed, 40) for algo in ("classical", "quantum") for seed in range(1, 10)
] + [("large", "classical", seed, 20) for seed in range(3)] + [
    ("large", "quantum", 1, 5),
    ("large", "quantum", 2, 20),
]


def run_key(config: str, algo: str, seed: int, g_max: int) -> str:
    return f"{config}-{algo}-seed{seed}-g{g_max}"


def output_hashes(tmp_dir: Path, config: str, algo: str, seed: int, g_max: int) -> dict:
    """Run the CLI once and return the digest of each output file."""
    doc = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    doc["g_max"] = g_max
    key = run_key(config, algo, seed, g_max)
    config_path = tmp_dir / f"{key}.json"
    config_path.write_text(json.dumps(doc))
    out = tmp_dir / key
    code = main(
        ["run", "--config", str(config_path), "--algo", algo, "--seed", str(seed), "--out", str(out)]
    )
    assert code == 0, key
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run_key(*run))
def test_seeded_outputs_match_recorded_hashes(tmp_path, run):
    recorded = json.loads(HASHES.read_text())
    assert output_hashes(tmp_path, *run) == recorded[run_key(*run)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {run_key(*run): output_hashes(Path(tmp), *run) for run in RUNS}
    HASHES.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} runs to {HASHES}")
