"""Tests of the benchmark itself: run with ``python3 -m pytest -q benchmark/tests``."""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import jobs  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((BENCH_DIR / "layer_map.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "benchmark" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _first_job(workload, variant=None):
    w = jobs.REGISTRY[workload]
    inputs = w.warmup()
    if variant is not None:
        inputs = [i for i in inputs if i.variant == variant]
    inp = inputs[0]
    return w, inp, w.run(inp, NullTracer())


# ---------------------------------------------------------------- generators


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    w = jobs.REGISTRY[workload]
    assert w.round(7, 0) == w.round(7, 0)
    assert w.round(7, 3) == w.round(7, 3)
    assert w.round(7, 0) != w.round(8, 0)


MIX = {"certify": lambda i: i.template, "search": lambda i: i,
       "tiling": lambda i: (i.side, i.variant)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_seed_runs_the_same_mix(workload):
    w = jobs.REGISTRY[workload]
    assert sorted(map(repr, map(MIX[workload], w.round(1, 0)))) == \
        sorted(map(repr, map(MIX[workload], w.round(2, 5))))


def test_count_points_matches_enumeration():
    w, inp, out = _first_job("tiling", "pass")
    import spectralpairs as sp

    for r in (0, 1, 2):
        assert jobs.count_points(out["spectrum"], r) == len(sp.enumerate_spectrum(out["spectrum"], r))


# ---------------------------------------------------------------------- gate


@pytest.mark.parametrize("workload", WORKLOADS)
def test_warmup_jobs_pass_the_gate(workload):
    w = jobs.REGISTRY[workload]
    for inp in w.warmup():
        assert w.check(inp, w.run(inp, NullTracer())) == []


def test_gate_catches_wrong_match_count():
    w, inp, out = _first_job("search")
    result = out["result"]
    out["result"] = dataclasses.replace(result, matches=result.matches[:-1])
    assert any("matches" in p for p in w.check(inp, out))


def test_gate_catches_perturbed_gram_entry():
    w, inp, out = _first_job("certify")
    assert inp.kind == "orthogonal"
    out["gram"].entries[0, 1] += 1e-6
    assert any("Gram differs" in p for p in w.check(inp, out))


def test_gate_catches_eigenvalue_outside_riesz_bounds():
    w = jobs.REGISTRY["certify"]
    inp = next(i for i in w.warmup() if i.kind == "riesz")
    out = w.run(inp, NullTracer())
    assert w.check(inp, out) == []
    out["eigenvalues"] = out["eigenvalues"].copy()
    out["eigenvalues"][0] = 0.99 * out["result"].predicted_lower
    assert any("eigenvalues" in p for p in w.check(inp, out))


def test_gate_catches_biorthogonality_defect():
    w, inp, out = _first_job("certify")
    out["defect"] = 1e-6
    assert any("biorthogonality" in p for p in w.check(inp, out))


def test_gate_catches_wrong_failed_checks():
    w, inp, out = _first_job("tiling", "root")
    claimed = dataclasses.replace(inp, variant="pass")
    problems = w.check(claimed, out)
    assert any("level 2 failed ['root-of-unity']" in p for p in problems)


def test_digest_ignores_floats_but_not_exact_parts():
    w, inp, out = _first_job("certify")
    before = json.dumps(w.exact(inp, out), sort_keys=True, default=str)
    out["gram"].entries[0, 0] += 1e-12
    assert json.dumps(w.exact(inp, out), sort_keys=True, default=str) == before
    other = dataclasses.replace(inp, offset=inp.offset + 1)
    assert json.dumps(w.exact(other, w.run(other, NullTracer())), sort_keys=True,
                      default=str) != before


# ------------------------------------------------------------------- tracing


def test_tracer_self_time_and_parents():
    tr = Tracer()
    with tr.job(0):
        with tr.span("domains", "a"):
            pass
        with tr.span("domains", "b", expected=KeyError):
            try:
                raise KeyError
            except KeyError:
                pass
    summary = tr.summary()
    assert summary["domains"]["calls"] == 2 and summary["domains"]["errors"] == 0
    assert summary["job"]["self_s"] <= summary["job"]["busy_s"]
    assert all(s[4] == 0 and s[5] == 0 for s in tr.spans[1:])


# ------------------------------------------------------------ contract, names


def test_benchmark_json_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in BENCH["workloads"]] + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(unit.match(u) for u in list(END_TO_END.values()) + list(PER_LAYER.values()))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert set(WORKLOADS) == set(jobs.REGISTRY)


def test_layer_map_covers_every_per_layer_metric():
    assert set(LAYER_MAP["layers"]) == set(PER_LAYER)
    for entry in LAYER_MAP["layers"].values():
        assert set(entry["moves"]) <= set(END_TO_END)
        assert set(entry["on"]) <= set(WORKLOADS)


@pytest.mark.parametrize("trace,expected", [("0", END_TO_END), ("1", PER_LAYER)])
def test_printed_metrics_match_benchmark_json(trace, expected):
    proc = _run("--workload", "search", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


def test_exits_nonzero_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
