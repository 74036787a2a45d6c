import csv
import json

import pytest

from spectralpairs import BoxDomain, ContinuousPair, scaled_lattice
from spectralpairs.cli import run


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


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
        ],
        ids=["missing-boxes", "missing-J", "pair-is-list", "base-is-list"],
    )
    def test_wrongly_shaped_json_is_input_error(self, tmp_path, capsys, argv, payload, named):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        assert run(argv + [str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and str(path) in err and named in err
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
        ],
        ids=["empty-points", "radius-over-zero", "radii-over-zero", "out-dir-missing",
             "csv-dir-missing", "report-dir-missing", "figure-out-is-file", "base-is-dir",
             "sample-recon-base", "search-dimension-zero", "search-negative-limit"],
    )
    def test_bad_input_is_one_line(self, tmp_path, capsys, argv, named):
        base = ContinuousPair.orthogonal(BoxDomain.interval(0, 1), scaled_lattice(1, "1"))
        (tmp_path / "base.json").write_text(json.dumps(base.to_json_dict()))
        assert run([arg.format(tmp=tmp_path) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1 and named in err
        assert "Traceback" not in err

    def test_tolerance_range_enforced(self, capsys):
        assert run(["classify", "--N", "4", "--A", "0,2", "--J", "0,1", "--tol", "0.5"]) == 1
        assert run(["classify", "--N", "4", "--A", "0,2", "--J", "0,1", "--tol", "0"]) == 1


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
