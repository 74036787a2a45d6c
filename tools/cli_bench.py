"""End-to-end wall time of the command line, interpreter start-up included.

Run from the directory that should receive the record:

    python3 tools/cli_bench.py --label parent --repeats 10

Each command of a fixed transcript (the README's command lines, without
``figure``) runs as a fresh ``python -m spectralpairs.cli`` process, with
``PYTHONPATH`` set to this repository's ``src``, in a temporary directory
that receives its output files; its stdout is captured, not printed.  Every
round runs the whole transcript once, starting one command later than the
round before, so that no command always runs first.  The record
``BENCH_cli_<label>.json`` holds each command's median wall time and all its
samples, the transcript, the number of repeats, the Python and numpy
versions, ``nproc`` and the git sha.  A command that exits nonzero stops the
run with exit code 1, naming the command.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRANSCRIPT = (
    "classify --N 4 --A 0,2 --J 0,1",
    "construct --N 4 --A 0,2 --J 0,1 --kind orthogonal",
    "gram --N 4 --A 0,2 --J 0,1 --radius 5",
    "bounds --N 5 --A 0,2 --J 0,1 --radii 2,4,8 --csv bounds.csv",
    "dual --N 4 --A 0,2 --J 0,1",
    "biorth --N 5 --A 0,2 --J 0,1 --radius 3",
    "sample-recon --N 4 --A 0,2 --J 0,1 --M 32 --grid 256 --out recon.csv",
    "search --N 8 --k 2 --kind orthogonal",
)


class CommandFailed(Exception):
    """A transcript command exited nonzero."""


def measure(transcript, repeats: int) -> dict[str, list[float]]:
    """Wall-time samples in seconds per command: ``repeats`` rounds, round r starting at
    command r mod len(transcript).  Raises ``CommandFailed`` naming a command that fails."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    samples = {command: [] for command in transcript}
    with tempfile.TemporaryDirectory() as work:
        for r in range(repeats):
            for i in range(len(transcript)):
                command = transcript[(r + i) % len(transcript)]
                argv = [sys.executable, "-m", "spectralpairs.cli", *command.split()]
                start = time.perf_counter()
                done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
                elapsed = time.perf_counter() - start
                if done.returncode:
                    raise CommandFailed("spectralpairs %s exited %d: %s" % (
                        command, done.returncode, done.stderr.strip()))
                samples[command].append(elapsed)
    return samples


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the record BENCH_cli_<label>.json")
    parser.add_argument("--repeats", type=int, default=5, help="rounds of the transcript")
    ns = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", ns.label):
        parser.error("--label must be letters, digits, '_', '.' or '-'")
    if ns.repeats < 1:
        parser.error("--repeats must be at least 1")
    try:
        samples = measure(TRANSCRIPT, ns.repeats)
    except CommandFailed as exc:
        print("cli_bench: %s" % exc, file=sys.stderr)
        return 1
    record = {
        "label": ns.label,
        "transcript": list(TRANSCRIPT),
        "repeats": ns.repeats,
        "median_s": {command: statistics.median(s) for command, s in samples.items()},
        "samples_s": samples,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),  # the CPUs this process may run on, as nproc
        "git_sha": _git_sha(),
    }
    path = Path("BENCH_cli_%s.json" % ns.label)
    path.write_text(json.dumps(record, indent=2) + "\n")
    for command, median in record["median_s"].items():
        print("%8.1f ms  %s" % (1e3 * median, command))
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
