import csv
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


# Two dense inputs on which the six regime fails (ROADMAP item 1).
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

    @pytest.mark.parametrize("rects", SIX_REPRODUCERS)
    def test_certify_six_dense_reproducer(self, rects, tmp_path, capsys):
        """Pairwise-disjoint rects, so OPT takes all of them; six must
        certify them at the default oracle cap."""
        inst_file = tmp_path / "inst.json"
        doc = {"rects": [dict(zip(("xl", "yb", "xr", "yt"), r)) for r in rects]}
        inst_file.write_text(json.dumps(doc))
        assert run_cli(["certify", str(inst_file), "--regime", "six"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(c["ok"] for c in report["checks"])

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

    def test_header_only_when_no_seeds(self, tmp_path):
        out = tmp_path / "bench.csv"
        run_cli(
            ["bench", "--families", "stacked_strips", "--n-min", "3",
             "--n-max", "4", "--seeds", "0", "--out", str(out)]
        )
        lines = out.read_text().strip().splitlines()
        assert lines == ["family,n,seed,algo,value,opt,ratio,ms,cells,cuts"]

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

    @pytest.mark.parametrize("origin", [None, 5, "012"], ids=["missing", "int", "str"])
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
