"""Alternating parent/change runs of the benchmark, with a verdict per end-to-end metric.

Run from the directory that should receive the record, naming two checkouts:

    python3 tools/bench_pairs.py --parent ../parent --change . --workload search \\
        --pairs 10 --seed 9401 --label search_symbols

Pair i runs ``python3 benchmark/run.py --workload W --seed S+i --trace 0`` once in each
checkout, from that checkout's own source and at the benchmark's own run length, the parent
first in even pairs and the change first in odd ones.  Every run's end-to-end metrics,
correctness counts and digest go in the record ``BENCH_<label>.json``, with, for each
end-to-end metric of ``BENCHMARK.json``:

- each side's median and quartiles, and the parent's interquartile range;
- the change's wins: pairs where it reads better, ties counting for neither side;
- ``verdict``: ``gain`` when there are at least ten pairs, the change wins at least nine
  tenths of them, its median is better than the parent's by more than the parent's
  interquartile range, and no more jobs fail than at the parent; ``loss`` for the same the
  other way round; else ``no gain``;
- ``bound``: ``unresolved`` with fewer than ten pairs, or when the parent's interquartile
  range is wider than the metric's bound (a fraction of the parent's median), unless every
  change run reads better than every parent run; else ``worse`` when the change's median is
  worse than the parent's by more than the bound, and ``within`` otherwise.

Fewer than ten pairs are refused: no verdict can be drawn from them.

A benchmark run that ends with no result (exit code 2: no library source) stops the
harness with exit code 1, naming the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")
MIN_PAIRS = 10  # the fewest pairs a gain or a bound verdict is drawn from


class RunFailed(Exception):
    """A benchmark run that produced no result."""


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One ``--trace 0`` run in checkout: its end-to-end metric values, correctness counts
    and digest (read from the run record it writes under ``benchmark/out/``)."""
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RunFailed("benchmark in %s exited %d: %s" % (
            checkout, done.returncode, done.stderr.strip()[-500:]))
    result = json.loads(lines[-1])
    record = checkout / "benchmark" / "out" / ("%s-seed%d-trace0.json" % (workload, seed))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": json.loads(record.read_text())["digest"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def run_order(i: int) -> tuple[str, str]:
    """The sides in the order pair i runs them: the parent first in even pairs."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric (``name``, ``better``: higher or lower, ``bound``) of ``BENCHMARK.json``:
    medians, quartiles, wins and the two verdicts of the module docstring, from pairs
    holding one run record per side (``metrics``, ``failed``)."""
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    summary = {}
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        quartiles = {side: _quartiles(values[side]) for side in SIDES}
        median = {side: statistics.median(values[side]) for side in SIDES}
        iqr = quartiles["parent"][2] - quartiles["parent"][0]
        gap = sign * (median["change"] - median["parent"])  # > 0: the change reads better
        deltas = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        wins, losses = sum(x > 0 for x in deltas), sum(x < 0 for x in deltas)
        enough, needed = len(pairs) >= MIN_PAIRS, math.ceil(0.9 * len(pairs))
        if enough and wins >= needed and gap > iqr and failed["change"] <= failed["parent"]:
            verdict = "gain"
        elif enough and losses >= needed and -gap > iqr:
            verdict = "loss"
        else:
            verdict = "no gain"
        scale = abs(median["parent"]) or 1.0
        best_parent = max(sign * v for v in values["parent"])
        separated = all(sign * v > best_parent for v in values["change"])
        if not enough or iqr > spec["bound"] * scale and not separated:
            bound = "unresolved"
        else:
            bound = "worse" if -gap > spec["bound"] * scale else "within"
        summary[name] = {
            "better": spec["better"],
            "median": median,
            "quartiles": quartiles,
            "parent_iqr": iqr,
            "median_gap": gap,
            "wins": wins,
            "losses": losses,
            "pairs": len(pairs),
            "verdict": verdict,
            "bound_fraction": spec["bound"],
            "bound": bound,
        }
    return summary


def _git_sha(checkout: Path) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS, help="alternating pairs to run")
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i: +i")
    parser.add_argument("--label", required=True, help="names the record BENCH_<label>.json")
    ns = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", ns.label):
        parser.error("--label must be letters, digits, '_', '.' or '-'")
    if ns.pairs < MIN_PAIRS:
        parser.error("--pairs must be at least %d" % MIN_PAIRS)
    checkouts = {"parent": ns.parent.resolve(), "change": ns.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    if ns.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error("--workload must be one of BENCHMARK.json's workloads")
    pairs = []
    try:
        for i in range(ns.pairs):
            seed, order = ns.seed + i, run_order(i)
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], ns.workload, seed)
            pair["digest_equal"] = pair["parent"]["digest"] == pair["change"]["digest"]
            pairs.append(pair)
            print("pair %d, seed %d: %s" % (i, seed, "  ".join(
                "%s %.4g/%.4g" % (m["name"], pair["parent"]["metrics"][m["name"]],
                                  pair["change"]["metrics"][m["name"]])
                for m in bench["end_to_end"])), file=sys.stderr)
    except RunFailed as exc:
        print("bench_pairs: %s" % exc, file=sys.stderr)
        return 1
    record = {
        "label": ns.label,
        "command": "benchmark/run.py --workload %s --seed S --trace 0" % ns.workload,
        "run_seconds": bench["run_seconds"],
        "git_sha": {side: _git_sha(path) for side, path in checkouts.items()},
        "summary": summarise(pairs, bench["end_to_end"]),
        "digests_equal": all(p["digest_equal"] for p in pairs),
        "pairs": pairs,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }
    path = Path("BENCH_%s.json" % ns.label)
    path.write_text(json.dumps(record, indent=2) + "\n")
    for name, s in record["summary"].items():
        print("%-12s parent %10.4g  change %10.4g  wins %2d/%d  iqr %8.3g  %s, %s bound" % (
            name, s["median"]["parent"], s["median"]["change"], s["wins"], s["pairs"],
            s["parent_iqr"], s["verdict"], s["bound"]))
    print("digests equal: %s; wrote %s" % (record["digests_equal"], path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
