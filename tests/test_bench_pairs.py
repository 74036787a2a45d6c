"""The pair harness ``tools/bench_pairs.py``: its summary and verdicts on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

JOBS = {"name": "jobs_per_s", "better": "higher", "bound": 0.2}
TAIL = {"name": "job_tail_ms", "better": "lower", "bound": 0.25}


def pairs(parent, change, failed=(0, 0)):
    """Synthetic pairs of runs holding one metric value per side."""
    return [{"parent": {"metrics": {"jobs_per_s": p, "job_tail_ms": p}, "failed": failed[0]},
             "change": {"metrics": {"jobs_per_s": c, "job_tail_ms": c}, "failed": failed[1]}}
            for p, c in zip(parent, change)]


PARENT = [150.0, 151.0, 152.0, 153.0, 154.0, 150.5, 151.5, 152.5, 153.5, 154.5]


def test_medians_quartiles_and_wins():
    change = [v + 8 for v in PARENT[:9]] + [PARENT[9] - 1]  # nine wins, one loss
    s = bench_pairs.summarise(pairs(PARENT, change), [JOBS])["jobs_per_s"]
    assert s["median"] == {"parent": 152.25, "change": 159.75}
    assert s["quartiles"]["parent"] == [151.125, 152.25, 153.375]
    assert s["parent_iqr"] == pytest.approx(2.25)
    assert (s["wins"], s["losses"], s["pairs"]) == (9, 1, 10)
    assert s["verdict"] == "gain" and s["bound"] == "within"


@pytest.mark.parametrize("change, verdict", [
    ([v + 8 for v in PARENT[:8]] + [v - 1 for v in PARENT[8:]], "no gain"),  # 8 of 10 wins
    ([v + 1 for v in PARENT], "no gain"),  # 10 of 10 wins, but a gap of 1 within the IQR
    ([v - 8 for v in PARENT], "loss"),
    (PARENT, "no gain"),  # ties count for neither side
])
def test_verdict_needs_nine_tenths_and_a_gap_past_the_parent_iqr(change, verdict):
    s = bench_pairs.summarise(pairs(PARENT, change), [JOBS])["jobs_per_s"]
    assert s["verdict"] == verdict
    if change is PARENT:
        assert (s["wins"], s["losses"]) == (0, 0)


def test_lower_is_better_reads_the_other_way():
    s = bench_pairs.summarise(pairs(PARENT, [v - 8 for v in PARENT]), [TAIL])["job_tail_ms"]
    assert (s["wins"], s["verdict"], s["median_gap"]) == (10, "gain", 8.0)


def test_no_gain_where_more_jobs_fail():
    s = bench_pairs.summarise(pairs(PARENT, [v + 8 for v in PARENT], failed=(0, 1)), [JOBS])
    assert s["jobs_per_s"]["verdict"] == "no gain"


def test_bound_is_within_worse_or_unresolved():
    worse = bench_pairs.summarise(pairs(PARENT, [v * 0.7 for v in PARENT]), [JOBS])
    assert worse["jobs_per_s"]["bound"] == "worse"
    wide = [100.0, 200.0, 120.0, 180.0, 150.0, 110.0, 190.0, 130.0, 170.0, 160.0]
    spread = bench_pairs.summarise(pairs(wide, wide), [JOBS])["jobs_per_s"]
    assert spread["bound"] == "unresolved"  # an IQR of 47.5 is past 0.2 of the median
    above = bench_pairs.summarise(pairs(wide, [v + 101 for v in wide]), [JOBS])["jobs_per_s"]
    assert above["bound"] == "within"  # every change run reads better than every parent run


def test_fewer_than_ten_pairs_draw_no_verdict():
    s = bench_pairs.summarise(pairs(PARENT[:5], [v + 8 for v in PARENT[:5]]), [JOBS])
    assert (s["jobs_per_s"]["wins"], s["jobs_per_s"]["pairs"]) == (5, 5)
    assert s["jobs_per_s"]["verdict"] == "no gain" and s["jobs_per_s"]["bound"] == "unresolved"
    worse = bench_pairs.summarise(pairs(PARENT[:5], [v - 8 for v in PARENT[:5]]), [JOBS])
    assert worse["jobs_per_s"]["verdict"] == "no gain"


def test_fewer_than_ten_pairs_are_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", ".", "--change", ".", "--workload", "search",
                          "--pairs", "5", "--seed", "1", "--label", "x"])
    assert exc.value.code == 2 and "--pairs must be at least 10" in capsys.readouterr().err


def test_sides_alternate_which_runs_first():
    assert [bench_pairs.run_order(i)[0] for i in range(4)] == ["parent", "change"] * 2
    assert sorted(bench_pairs.run_order(1)) == sorted(bench_pairs.SIDES)


def test_summary_is_json():
    summary = bench_pairs.summarise(pairs(PARENT, PARENT), [JOBS, TAIL])
    assert json.loads(json.dumps(summary)) == summary
