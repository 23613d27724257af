import csv
import dataclasses
import json
import os
from fractions import Fraction

import pytest

from misr.cli import fit_loglog_slope, main, render_svg, run_pipeline
from misr.instance import generate, instance_from_json, instance_to_json

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(args):
    return main(args)


class TestGenerate:
    def test_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert run_cli(["generate", "windmill", "5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 5
        inst = instance_from_json(doc)
        assert instance_to_json(inst) == doc


# Dense inputs on which the six regime fails (ROADMAP item 1); the last
# two are packed n = 48 seeds 0 and 2, shrunk one rect at a time while the
# failure held.
SIX_REPRODUCERS = [
    pytest.param(
        [[6, 8, 10, 12], [2, 9, 4, 13], [17, 3, 18, 7], [14, 0, 16, 2], [0, 2, 5, 4],
         [11, 11, 12, 15], [15, 10, 19, 16], [5, 13, 7, 17], [10, 5, 13, 11],
         [1, 14, 3, 16], [8, 1, 9, 6]],
        id="edges-miss-rects",
        marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="exits 1: check horizontal_edges_miss_rects fails",
        ),
    ),
    pytest.param(
        [[14, 20, 16, 22], [20, 7, 21, 11], [7, 8, 11, 14], [12, 8, 19, 12],
         [10, 16, 12, 19], [18, 1, 22, 6], [8, 0, 13, 4], [0, 13, 2, 21], [16, 2, 18, 8],
         [1, 3, 6, 4], [3, 9, 7, 10], [3, 15, 4, 22], [5, 14, 9, 18], [14, 2, 15, 5],
         [17, 15, 19, 17]],
        id="no-repairable-subpath",
        marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="exits 2: error: no repairable subpath found",
        ),
    ),
    pytest.param(
        [[3, 12, 5, 17], [18, 14, 19, 19], [7, 9, 12, 13], [0, 0, 4, 6], [16, 3, 17, 4],
         [9, 0, 11, 5], [1, 7, 2, 10], [6, 8, 8, 9], [20, 11, 21, 18], [13, 1, 15, 2],
         [10, 15, 14, 16]],
        id="packed48-s0-edges-miss-rects",
        marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="exits 1: check horizontal_edges_miss_rects fails "
            "(node 15 horizontal edge hits rect 2)",
        ),
    ),
    pytest.param(
        [[7, 19, 13, 22], [17, 13, 18, 17], [5, 8, 6, 11], [12, 14, 14, 16], [9, 8, 10, 10],
         [19, 4, 20, 12], [0, 1, 5, 2], [2, 6, 3, 9], [15, 18, 16, 20], [21, 0, 22, 7],
         [1, 15, 4, 21], [8, 3, 11, 5]],
        id="packed48-s2-no-repairable-subpath",
        marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="exits 2: error: no repairable subpath found",
        ),
    ),
]


class TestSolveAndCertify:
    @pytest.fixture()
    def windmill_file(self, tmp_path):
        out = tmp_path / "w.json"
        run_cli(["generate", "windmill", "5", "--out", str(out)])
        return str(out)

    def test_exact(self, windmill_file, capsys):
        assert run_cli(["solve", windmill_file, "--algo", "exact"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["achieved"] == 4 and doc["ratio"] == "1/1"

    def test_dp(self, windmill_file, capsys):
        assert run_cli(
            ["solve", windmill_file, "--algo", "dp", "--k", "4", "--cut-budget", "1"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["achieved"] == 3
        assert all(c["ok"] for c in doc["checks"])

    def test_report_json_is_its_fields_in_order(self):
        for algo in ("exact", "dp", "six", "three"):
            _sol, report, art = run_pipeline(generate("windmill", 5, 0), algo)
            doc = dataclasses.asdict(report)
            assert list(report.to_json().items()) == list(doc.items())
            assert list(art["report"].items()) == list(doc.items())

    def test_certify_six_exit_zero(self, windmill_file, tmp_path, capsys):
        art = tmp_path / "art.json"
        code = run_cli(
            ["certify", windmill_file, "--regime", "six", "--out", str(art)]
        )
        assert code == 0
        doc = json.loads(art.read_text())
        assert {"instance", "partition", "ledger", "report", "solution"} <= set(doc)

    def test_certify_two_eps_needs_unit_fraction(self, windmill_file):
        assert run_cli(
            ["certify", windmill_file, "--regime", "two_eps", "--eps", "2/3"]
        ) == 2

    @pytest.mark.parametrize("eps", ["abc", "1/0"])
    def test_certify_eps_not_a_fraction(self, windmill_file, eps, capsys):
        assert run_cli(
            ["certify", windmill_file, "--regime", "two_eps", "--eps", eps]
        ) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    def test_certify_eps_one_bound(self, windmill_file, capsys):
        assert run_cli(
            ["certify", windmill_file, "--regime", "two_eps", "--eps", "1"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bound"] == "3/1"

    def test_malformed_instance(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["solve", str(bad), "--algo", "exact"]) == 2

    def test_boolean_rect_count(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": true, "rects": [{"xl": 0, "yb": 0, "xr": 1, "yt": 1}]}')
        assert run_cli(["solve", str(bad), "--algo", "exact"]) == 2
        assert capsys.readouterr().err == "error: non-integer 'n': True\n"

    def test_dp_cell_cap_clean_error(self, windmill_file, capsys):
        code = run_cli(
            ["solve", windmill_file, "--algo", "dp", "--cell-cap", "1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cell" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_dp_cell_cap_below_one(self, windmill_file, cap, capsys):
        code = run_cli(["solve", windmill_file, "--algo", "dp", "--cell-cap", cap])
        assert code == 2
        assert capsys.readouterr().err == "error: cell cap must be >= 1\n"

    @pytest.mark.parametrize("tau", ["0", "-3"])
    @pytest.mark.parametrize(
        "command",
        [
            ["certify", "{file}", "--regime", "three"],
            ["certify", "{file}", "--regime", "two_eps", "--eps", "1/2"],
            ["solve", "{file}", "--algo", "three"],
            ["bench", "--families", "windmill", "--n-min", "4", "--n-max", "4",
             "--seeds", "1", "--algos", "exact,three"],
        ],
        ids=["certify-three", "certify-two_eps", "solve", "bench"],
    )
    def test_tau_below_one(self, windmill_file, command, tau, capsys):
        """A chain of fewer than one segment is no fence: refused before
        any construction runs, with one line naming tau."""
        args = [a.format(file=windmill_file) for a in command] + ["--tau", tau]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: tau must be at least 1: {tau}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command",
        [
            ["certify", "{file}", "--regime", "six", "--tau", "3"],
            ["certify", "{file}", "--regime", "six", "--eps", "1/2"],
            ["certify", "{file}", "--regime", "three", "--eps", "1/2"],
            ["solve", "{file}", "--algo", "six", "--tau", "3"],
            ["solve", "{file}", "--algo", "three", "--eps", "1"],
            ["solve", "{file}", "--algo", "exact", "--tau", "3"],
            ["solve", "{file}", "--algo", "exact", "--eps", "1"],
            ["solve", "{file}", "--algo", "dp", "--tau", "3"],
            ["solve", "{file}", "--algo", "dp", "--eps", "1/2"],
            ["bench", "--families", "windmill", "--n-min", "4", "--n-max", "4",
             "--seeds", "1", "--algos", "six,exact", "--tau", "3"],
            ["bench", "--families", "windmill", "--n-min", "4", "--n-max", "4",
             "--seeds", "1", "--algos", "six,three", "--eps", "1/2"],
        ],
        ids=[
            "certify-six-tau", "certify-six-eps", "certify-three-eps",
            "solve-six-tau", "solve-three-eps", "solve-exact-tau",
            "solve-exact-eps", "solve-dp-tau", "solve-dp-eps",
            "bench-six-exact-tau", "bench-six-three-eps",
        ],
    )
    def test_unread_option_refused(self, windmill_file, command, capsys):
        """A --tau or --eps the algorithm never reads is refused with one
        line naming the option, not ignored while the report claims it."""
        args = [a.format(file=windmill_file) for a in command]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        option = "--tau" if "--tau" in args else "--eps"
        assert captured.err.startswith(f"error: {option} is read only by ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_bench_tau_read_by_one_row(self, tmp_path):
        """A --tau that one row reads runs; the rows that do not read it
        run as if it were not given."""
        out = tmp_path / "bench.csv"
        args = ["bench", "--families", "windmill", "--n-min", "4", "--n-max", "4",
                "--seeds", "1", "--algos", "six,three", "--out", str(out)]
        assert run_cli(args + ["--tau", "3"]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["algo"] for r in rows] == ["six", "three"]
        assert run_cli(args) == 0
        plain = list(csv.DictReader(out.read_text().splitlines()))
        assert rows[0]["value"] == plain[0]["value"]

    def test_tau_checked_before_its_reader(self, windmill_file, capsys):
        assert run_cli(["certify", windmill_file, "--regime", "six", "--tau", "0"]) == 2
        assert capsys.readouterr().err == "error: tau must be at least 1: 0\n"

    @pytest.mark.parametrize(
        "command",
        [
            ["certify", "{file}", "--regime", "two_eps", "--tau", "5"],
            ["solve", "{file}", "--algo", "two_eps", "--tau", "5"],
        ],
        ids=["certify", "solve"],
    )
    def test_two_eps_needs_eps_with_tau(self, windmill_file, command, capsys):
        """two_eps reads eps for its bound 2 + eps and its quota 2/eps
        whatever tau is: a --tau without --eps is refused with one line."""
        assert run_cli([a.format(file=windmill_file) for a in command]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: two_eps regime requires eps\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "extra", [["--shapes", ""], ["--k", "4", "--shapes", "tree"]], ids=["empty", "tree-k4"]
    )
    def test_dp_shapes_making_no_cut_refused(self, windmill_file, extra, capsys):
        assert run_cli(["solve", windmill_file, "--algo", "dp", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @staticmethod
    def certify(rects, regime, tmp_path, capsys) -> dict:
        """``misr certify`` of the rects under the regime: exit 0 and every
        check passing."""
        inst_file = tmp_path / "inst.json"
        doc = {"rects": [dict(zip(("xl", "yb", "xr", "yt"), r)) for r in rects]}
        inst_file.write_text(json.dumps(doc))
        assert run_cli(["certify", str(inst_file), "--regime", regime]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(c["ok"] for c in report["checks"])
        return report

    @pytest.mark.parametrize("rects", SIX_REPRODUCERS)
    def test_certify_six_dense_reproducer(self, rects, tmp_path, capsys):
        """Pairwise-disjoint rects, so OPT takes all of them; six must
        certify them at the default oracle cap."""
        self.certify(rects, "six", tmp_path, capsys)

    @pytest.mark.parametrize(
        "rects", [p.values[0] for p in SIX_REPRODUCERS], ids=[p.id for p in SIX_REPRODUCERS]
    )
    def test_certify_three_on_six_reproducers(self, rects, tmp_path, capsys):
        """The inputs six fails on certify under three, keeping every rect."""
        report = self.certify(rects, "three", tmp_path, capsys)
        assert report["opt"] == report["achieved"] == len(rects)

    def test_report_deterministic_modulo_timing(self, windmill_file, capsys):
        docs = []
        for _ in range(2):
            run_cli(["certify", windmill_file, "--regime", "six"])
            doc = json.loads(capsys.readouterr().out)
            doc.pop("wall_ms")
            docs.append(doc)
        assert docs[0] == docs[1]


class TestRender:
    def artifacts(self):
        inst = generate("windmill", 5, 0)
        _sol, _rep, artifacts = run_pipeline(inst, "six")
        return artifacts

    def test_render_byte_identical(self):
        art = self.artifacts()
        assert render_svg(art) == render_svg(self.artifacts())

    def test_dashed_ell_count_matches_trace(self):
        art = self.artifacts()
        svg = render_svg(art)
        ells = [n for n in art["partition"]["nodes"] if n["ell"] is not None]
        assert svg.count("stroke-dasharray") == len(ells)

    def test_empty_instance_renders_bare_square(self):
        inst = generate("stacked_strips", 1, 0)
        svg = render_svg({"instance": instance_to_json(inst)})
        assert 'id="S"' in svg and svg.startswith("<?xml")

    def test_digest_mismatch_rejected(self):
        art = self.artifacts()
        other = generate("stacked_strips", 3, 0)
        art["instance"] = instance_to_json(other)
        with pytest.raises(Exception):
            render_svg(art)

    def test_golden(self):
        path = os.path.join(GOLDEN_DIR, "windmill_six.svg")
        got = render_svg(self.artifacts())
        with open(path) as fh:
            assert fh.read() == got

    def test_render_cli(self, tmp_path):
        inst_file = tmp_path / "w.json"
        run_cli(["generate", "windmill", "5", "--out", str(inst_file)])
        art_file = tmp_path / "art.json"
        run_cli(["certify", str(inst_file), "--regime", "six", "--out", str(art_file)])
        out = tmp_path / "w.svg"
        assert run_cli(["render", str(art_file), "--out", str(out)]) == 0
        assert out.read_text().startswith("<?xml")


class TestBench:
    def test_csv_grid(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(
            [
                "bench", "--families", "stacked_strips", "--n-min", "3",
                "--n-max", "5", "--seeds", "2", "--algos", "dp,exact",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "family,n,seed,algo,value,opt,ratio,ms,cells,cuts"
        assert len(lines) == 1 + 3 * 2 * 2
        for line in lines[1:]:
            family, n, seed, algo, value, opt, ratio, ms, cells, cuts = line.split(",")
            assert ratio == "1/1"
            if algo == "dp":
                assert int(cells) >= 1 and int(cuts) >= 0
            else:
                assert cells == cuts == ""

    def test_dp_past_oracle_cap(self, tmp_path, monkeypatch):
        """A DP row past the oracle cap leaves opt and ratio empty, as
        solve --algo dp leaves opt null; the rows within the cap keep it."""
        monkeypatch.delenv("MISR_ORACLE_CAP", raising=False)
        out = tmp_path / "bench.csv"
        code = run_cli(
            ["bench", "--families", "stacked_strips", "--n-min", "16",
             "--n-max", "17", "--seeds", "1", "--algos", "dp", "--out", str(out)]
        )
        assert code == 0
        rows = csv.DictReader(out.read_text().splitlines())
        assert [(r["n"], r["value"], r["opt"], r["ratio"]) for r in rows] == [
            ("16", "16", "16", "1/1"),
            ("17", "17", "", ""),
        ]

    def test_regime_rows_read_opt_from_report(self, tmp_path, monkeypatch):
        """With only regimes asked for, the oracle runs once per regime
        row, inside its pipeline, and the row reads opt from the report."""
        import misr.cli as cli

        calls = []
        real = cli.exact_mis

        def counted(inst, *a, **kw):
            calls.append(inst.n)
            return real(inst, *a, **kw)

        monkeypatch.setattr(cli, "exact_mis", counted)
        out = tmp_path / "bench.csv"
        code = run_cli(
            ["bench", "--families", "windmill", "--n-min", "5", "--n-max", "5",
             "--seeds", "1", "--algos", "six,three", "--out", str(out)]
        )
        assert code == 0 and calls == [5, 5]
        opt = real(generate("windmill", 5, 0)).size
        for r in csv.DictReader(out.read_text().splitlines()):
            fr = Fraction(opt, int(r["value"]))
            assert (r["opt"], r["ratio"]) == (str(opt), f"{fr.numerator}/{fr.denominator}"), r

    def test_exact_row_times_its_oracle_call(self, tmp_path, monkeypatch):
        """The exact row's ms covers the one oracle call of its instance,
        which the dp row shares; the dp row's covers dp_solve alone."""
        import time

        import misr.cli as cli

        calls = []
        real = cli.exact_mis

        def slow(inst, *a, **kw):
            calls.append(inst.n)
            time.sleep(0.05)
            return real(inst, *a, **kw)

        monkeypatch.setattr(cli, "exact_mis", slow)
        out = tmp_path / "bench.csv"
        code = run_cli(
            ["bench", "--families", "stacked_strips", "--n-min", "3", "--n-max", "3",
             "--seeds", "1", "--algos", "exact,dp", "--out", str(out)]
        )
        assert code == 0 and calls == [3]
        ms = {r["algo"]: float(r["ms"]) for r in csv.DictReader(out.read_text().splitlines())}
        assert ms["exact"] >= 50 and ms["dp"] < 50, ms

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--n-min", "5", "--n-max", "3"], "--n-min 5 is above --n-max 3"),
            (["--seeds", "0"], "--seeds must be at least 1: 0"),
            (["--seeds", "-1"], "--seeds must be at least 1: -1"),
            (["--families", ""], "no family given"),
            (["--algos", " , "], "no algo given"),
        ],
        ids=["n-range", "no-seeds", "negative-seeds", "no-family", "no-algo"],
    )
    def test_empty_sweep_refused(self, tmp_path, extra, message, capsys):
        """A sweep with no row is refused with one line, not answered with
        a bare CSV header, and writes no file."""
        out = tmp_path / "bench.csv"
        args = ["bench", "--families", "stacked_strips", "--n-min", "3",
                "--n-max", "4", "--seeds", "1", "--out", str(out)]
        assert run_cli(args + extra) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: empty sweep: {message}\n"
        assert captured.out == "" and not out.exists()

    def test_slope_fit(self):
        pts = [(2, 4.0), (4, 16.0), (8, 64.0)]
        assert abs(fit_loglog_slope(pts) - 2.0) < 1e-9


class TestCorruptionAndEnv:
    def test_corrupted_ledger_nonzero_exit(self, tmp_path):
        inst_file = tmp_path / "w.json"
        run_cli(["generate", "windmill", "5", "--out", str(inst_file)])
        art_file = tmp_path / "art.json"
        run_cli(["certify", str(inst_file), "--regime", "six", "--out", str(art_file)])
        doc = json.loads(art_file.read_text())
        doc["ledger"]["entries"] = [{"bogus": True}]
        doc["partition"]["work_rects"] = "corrupted"
        art_file.write_text(json.dumps(doc))
        out = tmp_path / "x.svg"
        assert run_cli(["render", str(art_file), "--out", str(out)]) == 2

    def test_undecodable_file_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"rects": []}')
        assert run_cli(["render", str(bad), "--out", str(tmp_path / "x.svg")]) == 2
        assert "error: malformed JSON" in capsys.readouterr().err

    def test_diagonal_cut_segment_rejected(self, tmp_path, capsys):
        inst_file = tmp_path / "w.json"
        run_cli(["generate", "windmill", "5", "--out", str(inst_file)])
        art_file = tmp_path / "art.json"
        run_cli(["certify", str(inst_file), "--regime", "six", "--out", str(art_file)])
        doc = json.loads(art_file.read_text())
        node = next(v for v in doc["partition"]["nodes"] if v["cut"] is not None)
        node["cut"]["segments"][0] = [[0, 0], [3, 5]]
        art_file.write_text(json.dumps(doc))
        out = tmp_path / "x.svg"
        capsys.readouterr()
        assert run_cli(["render", str(art_file), "--out", str(out)]) == 2
        assert "error: corrupted artifacts" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "point", [[True, 0], [0.5, 0], [0, 0, 0]], ids=["bool", "float", "three-coords"]
    )
    def test_malformed_cut_point_rejected(self, tmp_path, capsys, point):
        """Cut and ell points are pairs of integers, read as the JSON
        readers read them."""
        art_file, doc = self.six_artifacts(tmp_path)
        node = next(v for v in doc["partition"]["nodes"] if v["cut"] is not None)
        node["cut"]["segments"][0][0] = point
        art_file.write_text(json.dumps(doc))
        out = tmp_path / "x.svg"
        capsys.readouterr()
        assert run_cli(["render", str(art_file), "--out", str(out)]) == 2
        assert "error: corrupted artifacts" in capsys.readouterr().err
        assert not out.exists()

    def six_artifacts(self, tmp_path):
        inst_file = tmp_path / "w.json"
        run_cli(["generate", "windmill", "5", "--out", str(inst_file)])
        art_file = tmp_path / "art.json"
        run_cli(["certify", str(inst_file), "--regime", "six", "--out", str(art_file)])
        return art_file, json.loads(art_file.read_text())

    def test_doubly_nested_work_rects_render_neutral(self, tmp_path):
        art_file, doc = self.six_artifacts(tmp_path)
        # rect 0's bottom edge lies inside rect 1's top edge and its right
        # edge inside rect 2's left edge: nested both ways
        doc["partition"]["work_rects"] = [[1, 1, 2, 2], [0, 0, 3, 1], [2, 0, 3, 3]]
        doc["partition"]["origin"] = [0, 1, 2]
        art_file.write_text(json.dumps(doc))
        out = tmp_path / "x.svg"
        assert run_cli(["render", str(art_file), "--out", str(out)]) == 0
        wrects = [ln for ln in out.read_text().splitlines() if 'id="wrect' in ln]
        assert len(wrects) == 3
        assert all('fill="#b8b8b8"' in ln for ln in wrects)

    @pytest.mark.parametrize(
        "origin",
        [None, 5, "012", ["a", "b", "c", "d"], [0, 1], [True, 1, 2, 3, 4], [True, 1, 2, 3],
         list(range(7))],
        ids=["missing", "int", "str", "str-entries", "too-few", "bool-entry", "bool-only",
             "too-many"],
    )
    def test_bad_origin_rejected(self, tmp_path, capsys, origin):
        art_file, doc = self.six_artifacts(tmp_path)
        if origin is None:
            del doc["partition"]["origin"]
        else:
            doc["partition"]["origin"] = origin
        art_file.write_text(json.dumps(doc))
        out = tmp_path / "x.svg"
        capsys.readouterr()
        assert run_cli(["render", str(art_file), "--out", str(out)]) == 2
        assert "error: corrupted artifacts" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payee, rect0",
        [(-1, None), (True, None), (0, [False, 3, 3, 9]), (0, [0.0, 3, 3, 9])],
        ids=["payee-negative", "payee-bool", "rect-bool", "rect-float"],
    )
    def test_malformed_payee_or_work_rect_rejected(self, tmp_path, capsys, payee, rect0):
        """Payees and work-rect fields are read as the JSON readers read
        integers (no bool, no float), and a payee must name a work rect."""
        art_file, doc = self.six_artifacts(tmp_path)
        assert doc["partition"]["work_rects"][0] == [0, 3, 3, 9]
        out = tmp_path / "x.svg"
        doc["ledger"]["entries"] = [{"payee": 0, "corner": "TR"}]
        art_file.write_text(json.dumps(doc))
        assert run_cli(["render", str(art_file), "--out", str(out)]) == 0
        assert 'id="tok0"' in out.read_text()
        out.unlink()
        doc["ledger"]["entries"] = [{"payee": payee, "corner": "TR"}]
        if rect0 is not None:
            doc["partition"]["work_rects"][0] = rect0
        art_file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["render", str(art_file), "--out", str(out)]) == 2
        assert "error: corrupted artifacts" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_cap_env(self, monkeypatch):
        from misr.instance import OracleCapError, exact_mis, generate

        inst = generate("stacked_strips", 17, 0)
        monkeypatch.delenv("MISR_ORACLE_CAP", raising=False)
        with pytest.raises(OracleCapError):
            exact_mis(inst)
        monkeypatch.setenv("MISR_ORACLE_CAP", "20")
        assert exact_mis(inst).size == 17


    def test_dp_report_follows_env_oracle_cap(self, tmp_path, monkeypatch, capsys):
        """solve --algo dp checks the DP against the oracle only up to the
        cap exact_mis applies, the environment's included."""
        inst_file = tmp_path / "u12.json"
        run_cli(["generate", "uniform_random", "12", "--out", str(inst_file)])
        capsys.readouterr()
        monkeypatch.setenv("MISR_ORACLE_CAP", "10")
        assert run_cli(["solve", str(inst_file), "--algo", "dp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["opt"] is None and report["ratio"] is None
        assert report["checks"] == []
        monkeypatch.delenv("MISR_ORACLE_CAP")
        assert run_cli(["solve", str(inst_file), "--algo", "dp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["opt"] is not None
        assert [c["name"] for c in report["checks"]] == ["dp_not_above_optimum"]

    @pytest.mark.parametrize("algo", ["exact", "dp"])
    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    def test_malformed_env_oracle_cap(self, tmp_path, monkeypatch, capsys, algo, value):
        """A cap that is not an integer >= 1 exits 2 with one line naming
        the variable, not a traceback or a cap-exceeded report."""
        inst_file = tmp_path / "u5.json"
        run_cli(["generate", "uniform_random", "5", "--out", str(inst_file)])
        capsys.readouterr()
        monkeypatch.setenv("MISR_ORACLE_CAP", value)
        assert run_cli(["solve", str(inst_file), "--algo", algo]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: MISR_ORACLE_CAP must be an integer >= 1: {value!r}\n"
        )

    def test_malformed_env_oracle_cap_refused_before_dp(self, tmp_path, monkeypatch, capsys):
        """solve --algo dp reads the cap before it runs the DP."""
        from misr import cli

        inst_file = tmp_path / "u5.json"
        run_cli(["generate", "uniform_random", "5", "--out", str(inst_file)])
        capsys.readouterr()

        def no_dp(*args, **kwargs):
            raise AssertionError("dp_solve ran before the cap was read")

        monkeypatch.setattr(cli, "dp_solve", no_dp)
        monkeypatch.setenv("MISR_ORACLE_CAP", "abc")
        assert run_cli(["solve", str(inst_file), "--algo", "dp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: MISR_ORACLE_CAP must be an integer >= 1: 'abc'\n"

    def test_two_eps_without_eps_refused_before_oracle(self, tmp_path, monkeypatch, capsys):
        """certify refuses a two_eps run without eps before it runs the
        oracle."""
        from misr import cli

        inst_file = tmp_path / "u5.json"
        run_cli(["generate", "uniform_random", "5", "--out", str(inst_file)])
        capsys.readouterr()

        def no_oracle(*args, **kwargs):
            raise AssertionError("exact_mis ran before the regime was checked")

        monkeypatch.setattr(cli, "exact_mis", no_oracle)
        assert run_cli(["certify", str(inst_file), "--regime", "two_eps", "--tau", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: two_eps regime requires eps\n"


class TestDpScaling:
    def test_fitted_exponent_within_bound(self):
        # At k=4 the DP is polynomial with exponent no greater than
        # 5k/2 = 10; the fitted log-log slope over the
        # uniform_random family must stay below that (generous: timing).
        import time

        from misr.dp_solver import dp_solve
        from misr.instance import generate

        points = []
        for n in range(3, 9):
            t0 = time.perf_counter()
            for seed in range(3):
                dp_solve(generate("uniform_random", n, seed), 4, 1)
            points.append((n, (time.perf_counter() - t0) * 1000 / 3))
        slope = fit_loglog_slope(points)
        assert slope <= 10.0, points
