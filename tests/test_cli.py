import csv
import hashlib
import json
import math
import shlex
from pathlib import Path

import pytest
from strategies import SEARCH_QUERIES

from spectralpairs import (BoxDomain, ContinuousPair, FiniteSet, build_evaluation_matrix,
                           classify_finite_pair, scaled_lattice)
from spectralpairs.cli import run


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# a pair whose domain has an upper corner 1/0
ZERO_DENOMINATOR = {
    "domain": {"d": 1, "boxes": [{"lo": ["0"], "hi": ["1/0"]}]},
    "spectrum": {"basis": [["1"]], "shifts": [["0"]]},
    "kind": "orthogonal-basis", "lower": 1.0, "upper": 1.0,
}


# the unit interval with Z, written out; ``pair_json`` swaps in a value
UNIT_BASE = {
    "domain": {"d": 1, "boxes": [{"lo": ["0"], "hi": ["1"]}]},
    "spectrum": {"basis": [["1"]], "shifts": [["0"]]},
    "kind": "orthogonal-basis", "lower": 1.0, "upper": 1.0,
}


def pair_json(**changes):
    return {**UNIT_BASE, **changes}


def finite_json(a_n=4, a_points=((0,), (2,)), j_n=4):
    return {"A": {"N": a_n, "d": 1, "points": a_points},
            "J": {"N": j_n, "d": 1, "points": [[0], [1]]}}


# JSON text that Python's json.dumps cannot write: 1e400 reads back as inf
INF_MODULUS = json.dumps(finite_json(a_n=0)).replace('"N": 0', '"N": 1e400')
INF_CONSTANTS = json.dumps(pair_json(lower=0.5, upper=0.5)).replace("0.5", "1e400")


class TestClassify:
    def test_unitary_example(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["classify", "--N", "4", "--A", "0,2", "--J", "0,1", "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["kind"] == "orthogonal-basis"
        assert report["lower"] == pytest.approx(2, abs=1e-10)
        assert report["upper"] == pytest.approx(2, abs=1e-10)
        assert report["matrix"][0] == [[1.0, 0.0], [1.0, 0.0]]
        assert abs(report["matrix"][1][1][0] + 1) < 1e-12  # omega^2 = -1

    def test_matrix_bytes_match_per_entry_conversion(self, tmp_path):
        # the matrix goes to JSON in one array pass; the bytes are those of converting
        # each complex entry on its own, -0.0 included (omega^3 = -i has real part -0.0)
        out = tmp_path / "report.json"
        args = ["classify", "--N", "4", "--A", "0,1,3", "--J", "0,1,2", "--out", str(out)]
        assert run(args) == 0
        a, j = FiniteSet.from_ints(4, [0, 1, 3]), FiniteSet.from_ints(4, [0, 1, 2])
        report = {"A": a.to_json_dict(), "J": j.to_json_dict(),
                  **classify_finite_pair(a, j).to_json_dict(),
                  "matrix": [[[z.real, z.imag] for z in row]
                             for row in build_evaluation_matrix(a, j).entries]}
        assert out.read_bytes() == (json.dumps(report, indent=2) + "\n").encode()
        assert b"-0.0" in out.read_bytes()

    def test_ill_conditioned_riesz_basis_at_a_large_prime(self, tmp_path):
        # N = 2^42 + 15 is prime, so A = J = {0, 1} is a Riesz basis; its condition number is
        # 2.8e12, and sigma_min = 7.1e-13 clears its rounding bound 1.4e-14
        out = tmp_path / "r.json"
        assert run(["classify", "--N", "4398046511119", "--A", "0,1", "--J", "0,1",
                    "--out", str(out)]) == 0
        report = read_json(out)
        assert report["kind"] == "riesz-basis" and math.isfinite(report["condition"])

    def test_duplicate_points_are_input_error(self, capsys):
        assert run(["classify", "--N", "3", "--A", "0,1", "--J", "0,0"]) == 1
        assert "input error" in capsys.readouterr().err

    def test_vector_syntax(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["classify", "--N", "4", "--A", "0,0;2,0", "--J", "0,0;1,0", "--out", str(out)])
        assert code == 0
        assert read_json(out)["kind"] == "orthogonal-basis"


class TestConstruct:
    def test_valid_combination(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["construct", "--N", "4", "--A", "0,2", "--J", "0,1", "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["kind"] == "orthogonal-basis"
        assert report["predicted_lower"] == pytest.approx(2, abs=1e-10)
        assert all(c["passed"] for c in report["hypotheses"])

    def test_failed_hypothesis_exits_two(self, tmp_path, capsys):
        base = ContinuousPair.orthogonal(BoxDomain.interval(0, 2), scaled_lattice(1, "1/2"))
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps(base.to_json_dict()))
        out = tmp_path / "c.json"
        code = run(
            ["construct", "--N", "6", "--A", "0,3", "--J", "0,1",
             "--base", str(base_path), "--out", str(out)]
        )
        assert code == 2
        assert "root-of-unity condition failed" in capsys.readouterr().err
        report = read_json(out)  # diagnostic report still written
        assert report["kind"] == "none"
        assert report["pair"] is not None

    def test_report_roundtrips(self, tmp_path):
        out = tmp_path / "c.json"
        run(["construct", "--N", "4", "--A", "0,2", "--J", "0,1", "--out", str(out)])
        report = read_json(out)
        pair = ContinuousPair.from_json_dict(report["pair"])
        assert json.dumps(pair.to_json_dict()) == json.dumps(report["pair"])


class TestInputHandling:
    def test_no_arguments(self, capsys):
        assert run([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag_rejected(self, capsys):
        assert run(["classify", "--N", "4", "--A", "0,2", "--J", "0,1", "--bogus"]) == 1

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"domain": [,]}')
        code = run(["construct", "--N", "4", "--A", "0,2", "--J", "0,1", "--base", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_undecodable_json_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert run(["classify", "--finite", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: malformed JSON in %s: " % bad)
        assert "codec can't decode" in err and err.count("\n") == 1

    @pytest.mark.parametrize("a_points,side", [("0,2", "lower"), ("0,1", "upper")],
                             ids=["passing-pair", "failing-pair"])
    def test_overflowing_predicted_constant_is_input_error(self, tmp_path, capsys, a_points,
                                                           side):
        # 1e308 times a squared singular value above 1 is not a float
        base = tmp_path / "base.json"
        base.write_text(json.dumps(pair_json(lower=1e308, upper=1e308)))
        assert run(["construct", "--N", "4", "--A", a_points, "--J", "0,1",
                    "--base", str(base)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("input error: predicted %s constant overflows: 1e+308 * " % side)

    def test_missing_file(self, capsys):
        assert run(["construct", "--N", "4", "--A", "0,2", "--J", "0,1",
                    "--base", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize(
        "argv,payload,named",
        [
            (["construct", "--N", "4", "--A", "0,2", "--J", "0,1", "--base"],
             {"domain": {"d": 1}}, "missing key 'boxes'"),
            (["classify", "--finite"],
             {"A": {"N": 4, "d": 1, "points": [[0], [2]]}}, "missing key 'J'"),
            (["gram", "--pair"], [1, 2], "list indices"),
            (["construct", "--N", "4", "--A", "0,2", "--J", "0,1", "--base"], [1, 2],
             "list indices"),
            (["gram", "--pair"], ZERO_DENOMINATOR, "Fraction(1, 0)"),
            (["construct", "--N", "4", "--A", "0,2", "--J", "0,1", "--base"], ZERO_DENOMINATOR,
             "Fraction(1, 0)"),
            # values the library rejects: integers must be integers, constants finite
            (["classify", "--finite"], finite_json(a_points=[[0], [2.7]], j_n=4.9),
             "'float' object cannot be interpreted as an integer"),
            (["classify", "--finite"], INF_MODULUS,
             "'float' object cannot be interpreted as an integer"),
            (["construct", "--N", "4", "--A", "0,2", "--J", "0,1", "--base"],
             pair_json(domain={"d": 1.5, "boxes": [{"lo": ["0"], "hi": ["1"]}]}),
             "'float' object cannot be interpreted as an integer"),
            (["construct", "--N", "4", "--A", "0,2", "--J", "0,1", "--base"], INF_CONSTANTS,
             "pair constants must be finite"),
            (["construct", "--N", "4", "--A", "0,2", "--J", "0,1", "--base"],
             pair_json(domain={"d": 1, "boxes": [{"lo": ["0"], "hi": ["abc"]}]}),
             "Invalid literal for Fraction: 'abc'"),
            (["gram", "--pair"], pair_json(kind="bogus"), "'bogus' is not a valid PairKind"),
            (["construct", "--N", "4", "--A", "0,2", "--J", "0,1", "--base"],
             pair_json(domain={"d": 1, "boxes": [{"lo": ["0"], "hi": ["2"]}, {"lo": ["1"], "hi": ["3"]}]}),
             "boxes 0 and 1 intersect with positive measure"),
        ],
        ids=["missing-boxes", "missing-J", "pair-is-list", "base-is-list",
             "pair-zero-denominator", "base-zero-denominator", "float-point-and-modulus",
             "infinite-modulus", "float-dimension", "infinite-constants", "bad-fraction",
             "unknown-kind", "overlapping-base"],
    )
    def test_wrongly_shaped_json_is_input_error(self, tmp_path, capsys, argv, payload, named):
        path = tmp_path / "in.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        assert run(argv + [str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1
        assert str(path) in err and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["classify", "--N", "4", "--A", ";", "--J", "0"], "argument --A: invalid points"),
            (["gram", "--N", "4", "--A", "0,2", "--J", "0,1", "--radius", "1/0"],
             "argument --radius: invalid rational '1/0'"),
            (["bounds", "--N", "4", "--A", "0,2", "--J", "0,1", "--radii", "2,1/0"],
             "argument --radii: invalid rational '1/0'"),
            (["classify", "--N", "4", "--A", "0,2", "--J", "0,1", "--out", "{tmp}/no/r.json"],
             "No such file or directory"),
            (["bounds", "--N", "4", "--A", "0,2", "--J", "0,1", "--csv", "{tmp}/no/b.csv"],
             "No such file or directory"),
            (["sample-recon", "--N", "4", "--A", "0,2", "--J", "0,1",
              "--out", "{tmp}/s.csv", "--report", "{tmp}/no/r.json"], "No such file or directory"),
            (["figure", "fig2", "--out", "{tmp}/base.json"], "File exists"),
            (["construct", "--N", "4", "--A", "0,2", "--J", "0,1", "--base", "{tmp}"],
             "Is a directory"),
            (["sample-recon", "--N", "4", "--A", "0,2", "--J", "0,1", "--base", "{tmp}/base.json"],
             "unrecognized arguments: --base"),
            (["search", "--N", "4", "--d", "0", "--k", "1"], "dimension must be a positive integer"),
            (["search", "--N", "4", "--k", "2", "--limit", "-1"], "max_results must be non-negative"),
            (["search", "--N", "4", "--k", "2", "--budget", "-1"],
             "time_budget must be non-negative"),
            (["search", "--N", "4", "--k", "2", "--budget", "nan"],
             "time_budget must be non-negative"),
            # a negative seed, whether or not the query samples
            (["search", "--N", "17", "--k", "2", "--seed", "-1"], "seed must be non-negative"),
            (["search", "--N", "4", "--k", "2", "--seed", "-1"], "seed must be non-negative"),
            # one tolerance policy: no flag sets a threshold
            (["classify", "--N", "4", "--A", "0,2", "--J", "0,1", "--tol", "1e-6"],
             "unrecognized arguments: --tol 1e-6"),
            (["construct", "--N", "4", "--A", "0,2", "--J", "0,1", "--tol", "1e-6"],
             "unrecognized arguments: --tol 1e-6"),
            (["search", "--N", "4", "--k", "2", "--tol", "1e-6"],
             "unrecognized arguments: --tol 1e-6"),
            # an empty A or J, from JSON: no pair to classify, no spectrum to shift
            (["classify", "--finite", "{tmp}/empty_a.json"], "A is empty"),
            (["construct", "--finite", "{tmp}/empty_a.json"], "A is empty"),
            (["construct", "--finite", "{tmp}/empty_j.json"], "J is empty"),
            (["gram", "--finite", "{tmp}/empty_j.json"], "J is empty"),
            (["dual", "--finite", "{tmp}/empty.json"], "A is empty"),
            (["biorth", "--finite", "{tmp}/empty.json"], "A is empty"),
            (["sample-recon", "--finite", "{tmp}/empty_j.json", "--out", "{tmp}/s.csv"],
             "J is empty"),
            # a value of a finite set that is not an integer, named by its path in the file
            (["classify", "--finite", "{tmp}/string_point.json"],
             "string_point.json: A.points[0][0]: 'str' object cannot be interpreted as an integer"),
            (["dual", "--finite", "{tmp}/float_coordinate.json"],
             "J.points[1][1]: 'float' object cannot be interpreted as an integer"),
            (["construct", "--finite", "{tmp}/null_dimension.json"],
             "A.d: 'NoneType' object cannot be interpreted as an integer"),
            # a value of a --base or --pair file the parser cannot read, named by its path
            (["construct", "--N", "4", "--A", "0,2", "--J", "0,1",
              "--base", "{tmp}/null_shift.json"],
             "null_shift.json: spectrum.shifts[0][0]: argument should be a string or a Rational"),
            (["gram", "--pair", "{tmp}/string_lo.json"],
             "string_lo.json: domain.boxes[0].lo[0]: Invalid literal for Fraction: 'x'"),
            (["dual", "--N", "4", "--A", "0,2", "--J", "0,1", "--base", "{tmp}/infinite_hi.json"],
             "domain.boxes[0].hi[0]: cannot convert Infinity to integer ratio"),
            (["bounds", "--pair", "{tmp}/string_lower.json"],
             "string_lower.json: lower: could not convert string to float: 'x'"),
            (["search", "--N", "2", "--d", "63", "--k", "2"], "N^d = 2^63"),
            # windows past the analytics tables' limit, and a grid past the enumeration's
            (["gram", "--N", "4", "--A", "0,2", "--J", "0,1", "--radius", "1000000"],
             "radius 1000000 holds 4000001 points"),
            (["biorth", "--N", "4", "--A", "0,2", "--J", "0,1", "--radius", "100000"],
             "radius 100000 holds 400001 points"),
            (["bounds", "--N", "4", "--A", "0,2", "--J", "0,1", "--radii", "1e400"],
             "radius 1e+400 needs more than 16777216 candidate points\n"),
            # sampling sizes refused before anything is allocated
            (["sample-recon", "--N", "4", "--A", "0,2", "--J", "0,1", "--M", "1000000000000000",
              "--out", "{tmp}/s.csv"], "truncation 1000000000000000 gives over 4194304 pattern"),
            (["sample-recon", "--N", "4", "--A", "0,2", "--J", "0,1",
              "--grid", "1000000000000000", "--out", "{tmp}/s.csv"],
             "--grid 1000000000000000 is over 1048576 points"),
            (["sample-recon", "--N", "4", "--A", "0,2", "--J", "0,1",
              "--grid", "0", "--out", "{tmp}/s.csv"], "--grid 0 is below 1 point"),
            (["sample-recon", "--N", "4", "--A", "0,2", "--J", "0,1",
              "--grid", "-5", "--out", "{tmp}/s.csv"], "--grid -5 is below 1 point"),
        ],
        ids=["empty-points", "radius-over-zero", "radii-over-zero", "out-dir-missing",
             "csv-dir-missing", "report-dir-missing", "figure-out-is-file", "base-is-dir",
             "sample-recon-base", "search-dimension-zero", "search-negative-limit",
             "search-negative-budget", "search-nan-budget", "search-negative-seed-sampled",
             "search-negative-seed-exhaustive", "classify-tol", "construct-tol",
             "search-tol", "classify-empty-a", "construct-empty-a", "construct-empty-j",
             "gram-empty-j", "dual-empty", "biorth-empty", "sample-recon-empty-j",
             "classify-string-point", "dual-float-coordinate", "construct-null-dimension",
             "construct-base-null-shift", "gram-pair-string-lo", "dual-base-infinite-hi",
             "bounds-pair-string-lower",
             "search-group-past-int64", "gram-window-past-limit", "biorth-window-past-limit",
             "bounds-grid-past-limit", "sample-recon-pattern-past-limit",
             "sample-recon-grid-past-limit", "sample-recon-grid-zero",
             "sample-recon-grid-negative"],
    )
    def test_bad_input_is_one_line(self, tmp_path, capsys, argv, named):
        base = ContinuousPair.orthogonal(BoxDomain.interval(0, 1), scaled_lattice(1, "1"))
        (tmp_path / "base.json").write_text(json.dumps(base.to_json_dict()))
        empty, one = {"N": 4, "d": 1, "points": []}, {"N": 4, "d": 1, "points": [[0]]}
        plane = {"N": 4, "d": 2, "points": [[0, 0], [1, 0.5]]}
        bad = base.to_json_dict()
        bad["spectrum"]["shifts"] = [[None]]
        (tmp_path / "null_shift.json").write_text(json.dumps(bad))
        bad["spectrum"]["shifts"], bad["domain"]["boxes"][0]["lo"] = [["0"]], ["x"]
        (tmp_path / "string_lo.json").write_text(json.dumps(bad))
        bad["domain"]["boxes"][0]["lo"], bad["domain"]["boxes"][0]["hi"] = ["0"], [math.inf]
        (tmp_path / "infinite_hi.json").write_text(json.dumps(bad))
        bad["domain"]["boxes"][0]["hi"], bad["lower"] = ["1"], "x"
        (tmp_path / "string_lower.json").write_text(json.dumps(bad))
        for name, a, j in [("empty_a", empty, one), ("empty_j", one, empty),
                           ("empty", empty, empty),
                           ("string_point", {**one, "points": [["0"]]}, one),
                           ("float_coordinate", {**plane, "points": [[0, 0], [2, 0]]}, plane),
                           ("null_dimension", {**one, "d": None}, one)]:
            (tmp_path / ("%s.json" % name)).write_text(json.dumps({"A": a, "J": j}))
        assert run([arg.format(tmp=tmp_path) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1 and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample-recon", "--N", "4", "--A", "0,2", "--J", "0,1",
             "--out", "{tmp}/s.csv", "--report", "{tmp}/no/r.json"],
            ["bounds", "--N", "4", "--A", "0,2", "--J", "0,1", "--csv", "{tmp}/no/b.csv"],
        ],
        ids=["sample-recon-report", "bounds-csv"],
    )
    def test_unwritable_output_leaves_no_partial_result(self, tmp_path, capsys, argv):
        assert run([arg.format(tmp=tmp_path) for arg in argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_json_readers_cover_exactly_the_written_keys(self):
        """Each reader map names the keys its from_json_dict reads, and to_json_dict writes."""
        def keys(x, at=""):  # every key path in x, lists taken as their elements
            if isinstance(x, dict):
                return set().union(*({at + k} | keys(v, at + k + ".") for k, v in x.items()))
            return set().union(*(keys(v, at) for v in x)) if isinstance(x, list) else set()

        base = ContinuousPair.orthogonal(BoxDomain.interval(0, 1), scaled_lattice(1, "1"))
        for value in (base, FiniteSet(4, 2, [[0, 0], [1, 2]])):
            written = json.loads(json.dumps(value.to_json_dict()))
            assert keys(written) == keys(type(value).JSON_READERS)

    def test_keys_the_parser_does_not_read_are_not_checked(self, tmp_path, capsys):
        (tmp_path / "p.json").write_text(json.dumps(pair_json(note={"lo": ["x"], "d": None})))
        assert run(["gram", "--pair", str(tmp_path / "p.json"), "--radius", "1"]) == 0
        assert capsys.readouterr().err == ""


class TestAnalyticsCommands:
    def test_gram(self, tmp_path):
        out = tmp_path / "g.json"
        code = run(["gram", "--N", "4", "--A", "0,2", "--J", "0,1",
                    "--radius", "5", "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert len(report["points"]) == 21
        assert report["max_offdiagonal"] < 1e-10
        assert all(abs(e - 2) < 1e-9 for e in report["eigenvalues"])

    def test_bounds_csv(self, tmp_path):
        out = tmp_path / "b.json"
        table = tmp_path / "b.csv"
        code = run(["bounds", "--N", "5", "--A", "0,2", "--J", "0,1",
                    "--radii", "2,4", "--out", str(out), "--csv", str(table)])
        assert code == 0
        report = read_json(out)
        assert report["label"] == "estimated"
        rows = list(csv.reader(table.open()))
        assert rows[0] == ["radius", "lower", "upper"]
        assert len(rows) == 3
        assert 0 < float(rows[1][1]) < 2 < float(rows[1][2])

    def test_dual_and_biorth(self, tmp_path):
        dual_out = tmp_path / "d.json"
        assert run(["dual", "--N", "4", "--A", "0,2", "--J", "0,1", "--out", str(dual_out)]) == 0
        dual = read_json(dual_out)
        assert dual["self_dual"] is True
        bio_out = tmp_path / "bio.json"
        assert run(["biorth", "--N", "5", "--A", "0,2", "--J", "0,1",
                    "--radius", "2", "--out", str(bio_out)]) == 0
        assert read_json(bio_out)["max_defect"] < 1e-8

    def test_biorth_empty_window_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "bio.json"
        assert run(["biorth", "--N", "4", "--A", "0,2", "--J", "1,2",
                    "--radius", "0", "--out", str(out)]) == 1
        assert "input error: no spectrum points within radius 0" in capsys.readouterr().err
        assert not out.exists()

    def test_dual_csv(self, tmp_path):
        table = tmp_path / "coeff.csv"
        run(["dual", "--N", "4", "--A", "0,2", "--J", "0,1",
             "--out", str(tmp_path / "d.json"), "--csv", str(table)])
        rows = list(csv.reader(table.open()))
        assert rows[0] == ["translate", "shift", "re", "im"]
        assert len(rows) == 5


class TestSampleRecon:
    def test_csv_and_report(self, tmp_path):
        out = tmp_path / "sr.csv"
        report_path = tmp_path / "sr.json"
        code = run(["sample-recon", "--N", "4", "--A", "0,2", "--J", "0,1",
                    "--M", "16", "--grid", "64", "--out", str(out),
                    "--report", str(report_path)])
        assert code == 0
        report = read_json(report_path)
        assert report["alias"]["passed"]
        assert report["relative_l2_error"] < 1e-10
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["xi", "re", "im", "error"]
        assert len(rows) == 65


class TestSearchCommand:
    def test_json_lines(self, tmp_path):
        out = tmp_path / "s.jsonl"
        code = run(["search", "--N", "4", "--k", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert "meta" in records[-1]
        pairs = [r for r in records if "meta" not in r]
        assert all(r["classification"]["kind"] == "orthogonal-basis" for r in pairs)


def search_digest(tmp_path, queries, *flags):
    """sha256 of the bytes search writes for each query, one after another."""
    digest, out = hashlib.sha256(), tmp_path / "s.jsonl"
    for n, d, k, kind in queries:
        argv = ["search", "--N", str(n), "--d", str(d), "--k", str(k), "--kind", kind, *flags]
        assert run(argv + ["--out", str(out)]) == 0
        digest.update(out.read_bytes())
    return digest.hexdigest()


class TestSearchBytes:
    """Every match, its order and each float of its classification, pinned as bytes."""

    def test_reference_queries(self, tmp_path):
        digest = search_digest(tmp_path, SEARCH_QUERIES)
        assert digest == "fb16448eb21695a3d3b8e73a4446283e72515a4e708506ba76afe37137bfa23a"

    def test_seeded_sampled_query(self, tmp_path):
        digest = search_digest(tmp_path, [(40, 1, 3, "riesz")], "--seed", "7")
        assert digest == "5a53b3cf3817a363966aae52648a4d22885935ef89429d902994053da60971c7"


class TestFigures:
    def test_fig2_contents(self, tmp_path):
        code = run(["figure", "fig2", "--out", str(tmp_path)])
        assert code == 0
        dom_rows = list(csv.reader((tmp_path / "fig2_domain.csv").open()))
        assert dom_rows[1:] == [["0", "1"], ["2", "3"]]
        pts = [r[0] for r in list(csv.reader((tmp_path / "fig2_spectrum.csv").open()))[1:]]
        assert "1/4" in pts and "-5" in pts
        assert len(pts) == 22  # n and n + 1/4 for |n| <= 5

    def test_fig4_pattern_only(self, tmp_path):
        code = run(["figure", "fig4", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig4_pattern.csv").exists()
        assert not (tmp_path / "fig4_domain.csv").exists()
        assert run(["figure", "fig2", "--out", str(tmp_path)]) == 0
        pattern = (tmp_path / "fig4_pattern.csv").read_bytes()
        assert pattern == (tmp_path / "fig2_spectrum.csv").read_bytes()

    def test_fig1_and_fig3_two_dimensional(self, tmp_path):
        for name in ("fig1", "fig3"):
            assert run(["figure", name, "--out", str(tmp_path)]) == 0
            dom_rows = list(csv.reader((tmp_path / ("%s_domain.csv" % name)).open()))
            assert dom_rows[0] == ["lo_x", "lo_y", "hi_x", "hi_y"]
            pts_rows = list(csv.reader((tmp_path / ("%s_spectrum.csv" % name)).open()))
            assert pts_rows[0] == ["x", "y"]
            assert len(pts_rows) > 40
        # |z_i| <= 3 per lattice index: 7^2 points per shift, 2 (fig1) or 4 (fig3) shifts
        assert len(list(csv.reader((tmp_path / "fig1_spectrum.csv").open()))) - 1 == 98
        assert len(list(csv.reader((tmp_path / "fig3_spectrum.csv").open()))) - 1 == 196

    def test_unknown_figure(self, capsys):
        assert run(["figure", "fig9"]) == 1


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """Every ``spectralpairs ...`` line of README's "Command line" block exits 0."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("spectralpairs ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run(shlex.split(line)[1:]) == 0, line
