"""Benchmark of spectralpairs: closed-loop workloads timed layer by layer from outside.

Run from the repository root:

    python3 benchmark/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1

One process, one client, closed loop: each job starts when the previous
one has ended.  Jobs run in whole rounds (every template of the workload
once, in a seeded order) until the measuring time has passed, so every
seed runs the same mix.  A job's latency covers the library calls and
the report serialisation, not the benchmark's gate; ``jobs_per_s`` is
jobs per second of job time.  ``setup_s`` is the median wall time of
fresh interpreters that import the library, generate the inputs and
warm up.  All times are scaled to the nominal speed of the shared
machine, gauged by a fixed kernel timed before every job (see
``reference.py``); the unscaled figures are kept in the run record.
``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1`` runs half the time untraced and half
traced on the same job sequence, prints a per-layer table to stderr,
writes the spans, and reports the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record of the run is
written to ``benchmark/out/``.  The exit code is 1 if any job failed its
correctness gate and 2 if the library source cannot be found.
"""

from __future__ import annotations

import os

# one thread of load, BLAS included; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREADS = 1
SETUP_REPEATS = 7
TAIL_BEYOND = 10

with open(ROOT / "BENCHMARK.json") as _fh:
    BENCH = json.load(_fh)
with open(HERE / "layer_map.json") as _fh:
    LAYER_MAP = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def _import_library():
    if not (SRC / "spectralpairs" / "__init__.py").is_file():
        print("benchmark: no library source at %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import spectralpairs

    if Path(spectralpairs.__file__).resolve().parent != SRC / "spectralpairs":
        print("benchmark: imported spectralpairs from %s, not %s"
              % (spectralpairs.__file__, SRC), file=sys.stderr)
        sys.exit(2)
    import jobs

    return jobs


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "machine": platform.machine(),
    }


# ------------------------------------------------------------------ running


class Loop:
    """Runs whole rounds of jobs until ``seconds`` have passed."""

    def __init__(self, jobs, workload, seed):
        self.w = jobs.REGISTRY[workload]
        self.clear_caches = jobs.clear_caches
        self.seed = seed

    def run(self, seconds, tracer):
        latencies, kernel, failures, digest_pairs = [], [], [], []
        job_id = 0
        round_index = 0
        start = time.perf_counter()
        while True:
            for inp in self.w.round(self.seed, round_index):
                # every job starts with empty caches and a collected heap, as a fresh CLI
                # process does, so nothing one job leaves behind is charged to the next
                self.clear_caches()
                gc.collect()
                kernel.append(reference.kernel_seconds())
                t0 = time.perf_counter()
                try:
                    with tracer.job(job_id):
                        out = self.w.run(inp, tracer)
                except Exception as exc:  # a job that raises counts as failed
                    out, error = None, "raised %s: %s" % (type(exc).__name__, exc)
                latencies.append(time.perf_counter() - t0)
                problems = [error] if out is None else self.w.check(inp, out)
                if problems:
                    failures.append({"job": job_id, "input": repr(inp), "problems": problems})
                if round_index == 0:
                    digest_pairs.append((inp, out))
                job_id += 1
            round_index += 1
            if time.perf_counter() - start >= seconds:
                break
        return {"latencies": latencies, "kernel": kernel, "failures": failures,
                "rounds": round_index, "slowdown": statistics.fmean(kernel) / reference.NOMINAL_S,
                "wall_s": time.perf_counter() - start, "digest": self._digest(digest_pairs)}

    def _digest(self, pairs) -> str:
        h = hashlib.sha256()
        for inp, out in pairs:
            exact = None if out is None else self.w.exact(inp, out)
            h.update(json.dumps(exact, sort_keys=True, default=str).encode())
            h.update(b"\n")
        return h.hexdigest()


def _latency_metrics(latencies, scale=1.0) -> dict:
    """Throughput and latency percentiles of job times divided by ``scale``."""
    lat = sorted(t / scale for t in latencies)
    n = len(lat)
    if n > TAIL_BEYOND:
        tail, pct = lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND - 1) / (n - 1)
    else:
        tail, pct = lat[-1], 100.0
    return {
        "jobs_per_s": n / sum(lat),
        "job_p50_ms": 1e3 * statistics.median(lat),
        "job_tail_ms": 1e3 * tail,
        "tail_percentile": pct,
        "jobs": n,
    }


def _setup_probe(args) -> None:
    """Everything a fresh process does before its first timed job."""
    jobs = _import_library()
    w = jobs.REGISTRY[args.workload]
    w.round(args.seed, 0)
    _warm_up(w)


def _warm_up(w) -> None:
    from spans import NullTracer

    for inp in w.warmup():
        problems = w.check(inp, w.run(inp, NullTracer()))
        if problems:
            raise RuntimeError("warm-up job %r failed: %s" % (inp, problems))


def _wall_seconds(cmd) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def _measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes doing everything before the first timed job,
    each paired with a bare interpreter importing numpy just before it."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    bare = [sys.executable, "-c", "import numpy"]
    probes, bares = [], []
    for _ in range(SETUP_REPEATS):
        bares.append(_wall_seconds(bare))
        probes.append(_wall_seconds(probe))
    return probes, bares


def _layer_metrics(tracer, traced_jobs, slowdown) -> dict:
    summary = tracer.summary()
    per_job = max(traced_jobs, 1) * slowdown
    counts = tracer.counts

    def busy_ms(key):
        return 1e3 * summary.get(key, {}).get("busy_s", 0.0) / per_job

    values = {}
    for name in (m["name"] for m in BENCH["per_layer"]):
        layer, _, part = name.partition(".")
        if part == "errors":
            values[name] = sum(row["errors"] for key, row in summary.items()
                               if key.split(".")[0] == layer)
        elif part == "ms":
            values[name] = busy_ms(layer)
        elif name.endswith("_ms"):
            values[name] = busy_ms(name[: -len("_ms")])
        elif name == "analytics.factor_cache_hit_ratio":
            hits = counts.get("analytics.factor_cache_hits", 0)
            values[name] = _ratio(hits, hits + counts.get("analytics.factor_cache_misses", 0))
        elif name == "search.match_ratio":
            values[name] = _ratio(counts.get("search.matches", 0),
                                  counts.get("search.examined", 0))
        elif layer != "trace":
            values[name] = counts.get(name, 0)
    return values


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _layer_table(tracer, traced_jobs, slowdown) -> str:
    summary = tracer.summary()
    job_busy = summary.get("job", {}).get("busy_s", 0.0) or 1.0
    layers = {}
    for key, row in summary.items():
        agg = layers.setdefault(key.split(".")[0], {"calls": 0, "self_s": 0.0, "errors": 0})
        for field in agg:
            agg[field] += row[field]
    lines = ["%-13s %7s %12s %7s %6s  %s" % ("layer", "calls", "self ms/job", "share",
                                             "errors", "counts")]
    for layer, agg in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        counts = ", ".join("%s=%g" % (k.split(".", 1)[1], v)
                           for k, v in sorted(tracer.counts.items())
                           if k.split(".")[0] == layer)
        lines.append("%-13s %7d %12.3f %6.1f%% %6d  %s" % (
            "(benchmark)" if layer == "job" else layer, agg["calls"],
            1e3 * agg["self_s"] / max(traced_jobs, 1) / slowdown,
            100 * agg["self_s"] / job_busy,
            agg["errors"], counts))
    return "\n".join(lines)


def run_workload(args) -> int:
    t_begin = time.perf_counter()
    jobs = _import_library()
    from spans import NullTracer, Tracer

    loop = Loop(jobs, args.workload, args.seed)
    _warm_up(loop.w)
    main_setup_s = time.perf_counter() - t_begin

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": jobs.describe(args.workload),
        "environment": _environment(),
        "main_process_setup_s": main_setup_s,
    }
    if args.trace:
        untraced = loop.run(args.seconds / 2, NullTracer())
        tracer = Tracer()
        traced = loop.run(args.seconds / 2, tracer)
        runs = [untraced, traced]
        n_traced = len(traced["latencies"])
        slowdown = traced["slowdown"]
        metrics = _layer_metrics(tracer, n_traced, slowdown)
        untraced_jps = _latency_metrics(untraced["latencies"], untraced["slowdown"])["jobs_per_s"]
        traced_jps = _latency_metrics(traced["latencies"], slowdown)["jobs_per_s"]
        metrics["trace.overhead_jobs_per_s"] = untraced_jps - traced_jps
        record["tracing"] = {
            "untraced_jobs_per_s": untraced_jps,
            "traced_jobs_per_s": traced_jps,
            "overhead_ratio": (untraced_jps - traced_jps) / untraced_jps,
            "traced_jobs": n_traced,
            "spans": len(tracer.spans),
            "factor_cache": "present" if jobs.FACTOR_CACHE_PRESENT else "absent",
        }
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        table = _layer_table(tracer, n_traced, slowdown)
        record["layer_table"] = table.splitlines()
        print("%s, seed %d, %d traced jobs; tracing overhead %.4g jobs/s (%.2f%%)"
              % (args.workload, args.seed, n_traced, untraced_jps - traced_jps,
                 100 * record["tracing"]["overhead_ratio"]), file=sys.stderr)
        print(table, file=sys.stderr)
        digests = {untraced["digest"], traced["digest"]}
    else:
        measured = loop.run(args.seconds, NullTracer())
        runs = [measured]
        slowdown = measured["slowdown"]
        lat = _latency_metrics(measured["latencies"], slowdown)
        wall = _latency_metrics(measured["latencies"])
        setup_raw, setup_bare = _measure_setup(args)
        metrics = {
            "jobs_per_s": lat["jobs_per_s"],
            "job_p50_ms": lat["job_p50_ms"],
            "job_tail_ms": lat["job_tail_ms"],
            "setup_s": statistics.median(setup_raw) / statistics.median(setup_bare)
            * reference.NOMINAL_START_S,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["latency"] = {"tail_percentile": lat["tail_percentile"], "jobs": lat["jobs"],
                             "rounds": measured["rounds"], "slowdown": slowdown,
                             "loop_wall_s": measured["wall_s"],
                             "latencies_s": measured["latencies"], "kernel_s": measured["kernel"]}
        record["unscaled"] = {"jobs_per_s": wall["jobs_per_s"], "job_p50_ms": wall["job_p50_ms"],
                              "job_tail_ms": wall["job_tail_ms"],
                              "setup_s": statistics.median(setup_raw)}
        record["setup_s_samples"] = {"probe": setup_raw, "bare_numpy": setup_bare}
        digests = {measured["digest"]}

    attempted = sum(len(r["latencies"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    correct = not failures and len(digests) == 1
    record["digest"] = sorted(digests)
    record["error_rate"] = len(failures) / attempted
    record["failures"] = failures[:20]
    record["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}

    OUT.mkdir(exist_ok=True)
    out_path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    for f in failures[:5]:
        print("FAILED job %d %s: %s" % (f["job"], f["input"], "; ".join(f["problems"])),
              file=sys.stderr)
    if len(digests) > 1:
        print("traced and untraced runs disagree on the exact outputs", file=sys.stderr)
    for name, m in record["metrics"].items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    print("%-36s %16.6g %s" % ("error_rate", record["error_rate"], "ratio"), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print("%s --trace %d exited with %d" % (workload, trace, proc.returncode),
                      file=sys.stderr)
                return 2
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                merged["%s.%s" % (workload, name)] = m
            merged["%s.error_rate%s" % (workload, ".traced" if trace else "")] = {
                "value": result["failed"] / result["attempted"], "unit": "ratio"}
    for name, m in merged.items():
        print("%-46s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=LAYER_MAP["default_seed"])
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
