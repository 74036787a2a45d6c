"""The command-line harness ``tools/cli_bench.py`` runs its transcript and writes its record."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1] / "tools" / "cli_bench.py"


def test_one_round_writes_the_record(tmp_path):
    done = subprocess.run([sys.executable, str(HARNESS), "--label", "smoke", "--repeats", "1"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "BENCH_cli_smoke.json").read_text())
    assert set(record) == {"label", "transcript", "repeats", "median_s", "samples_s",
                           "python", "numpy", "nproc", "git_sha"}
    assert record["repeats"] == 1 and len(record["transcript"]) == 8
    assert set(record["median_s"]) == set(record["samples_s"]) == set(record["transcript"])
    assert all(len(s) == 1 and s[0] > 0 for s in record["samples_s"].values())
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_cli_smoke.json"]


def test_a_failing_command_is_named():
    spec = importlib.util.spec_from_file_location("cli_bench", HARNESS)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    with pytest.raises(harness.CommandFailed, match="spectralpairs search --N 0 --k 1 exited 1"):
        harness.measure(("classify --N 4 --A 0,2 --J 0,1", "search --N 0 --k 1"), 1)
