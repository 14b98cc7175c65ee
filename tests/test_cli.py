"""Command-line interface: argument handling, report formats, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regulab
from regulab import cli, divisors
from regulab.cli import Record, Report, build_parser, main, parse_grid
from regulab.divisors import UnembeddablePointError
from regulab.lfunctions import MissingPrimeError
from regulab.numerics import DegenerateInputError, NoConvergenceError, QuadratureResult


class TestParseGrid:
    def test_inclusive_endpoints(self):
        assert parse_grid("0.5:3.5:1.0") == [0.5, 1.5, 2.5, 3.5]

    def test_single_point(self):
        assert parse_grid("2:2:1") == [2.0]

    def test_negative_range(self):
        assert parse_grid("-5:-2:1.5") == [-5.0, -3.5, -2.0]

    @pytest.mark.parametrize(
        "bad", ["1:2", "a:b:c", "3:1:0.5", "0:1:0", "0:inf:1", "nan:1:0.5", "0:1:inf"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(DegenerateInputError):
            parse_grid(bad)


class TestReportFormats:
    def _report(self):
        rep = Report("verify", {"target": "demo"})
        rep.records = [
            Record("a", 1.0, 1.0, 0.0, 1e-6),
            Record("b", 2.0, 2.5, 0.5, 1e-6),
        ]
        rep.seconds = 0.12
        return rep

    def test_json_schema_round_trip(self):
        data = json.loads(self._report().to_json())
        assert set(data) == {"command", "params", "records", "pass", "seconds",
                             "version"}
        assert data["pass"] is False
        assert [r["name"] for r in data["records"]] == ["a", "b"]
        assert set(data["records"][0]) == {"name", "lhs", "rhs", "residual",
                                           "tol", "pass"}

    def test_csv_header_and_rows(self):
        rows = list(csv.reader(io.StringIO(self._report().to_csv())))
        assert rows[0] == ["name", "lhs", "rhs", "residual", "tol", "pass"]
        assert len(rows) == 3
        assert float(rows[1][1]) == 1.0  # values survive a float round trip

    def test_table_marks_failures(self):
        text = self._report().to_table()
        assert "FAIL" in text and "overall: FAIL" in text

    def test_passed_aggregates(self):
        rep = Report("x", {})
        rep.records = [Record("a", 0.0, 0.0, 0.0, 1e-9)]
        assert rep.passed


class TestMain:
    def test_mahler_pass_exit_zero(self, capsys):
        code = main(["mahler", "--family", "P", "--alpha", "3", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pass"] is True
        assert data["records"][0]["lhs"] == pytest.approx(0.6168709388, abs=1e-8)

    @pytest.mark.parametrize("family,alpha", [("P", "-6"), ("S", "4"), ("S", "10.5"),
                                              ("Q", "8.25"), ("R", "6")])
    def test_mahler_tol_below_the_jensen_floor_exits_two(self, family, alpha, capsys):
        # these stalled at 1e-14 (exit 1), the quadrature's noise level
        argv = ["mahler", "--family", family, f"--alpha={alpha}", "--tol"]
        assert main(argv + ["1e-14"]) == 2
        assert "below the floor 1e-13" in capsys.readouterr().err
        assert main(argv + ["1e-13"]) == 0

    def test_torus2_integrates_at_the_tol_it_reports(self, capsys):
        # it stalls short of 1e-12, and meets 1e-8 (Jensen gives 0.6168709388)
        argv = ["mahler", "--family", "P", "--alpha", "3", "--method", "torus2", "--tol"]
        assert main(argv + ["1e-12"]) == 1
        assert "numeric failure" in capsys.readouterr().err
        assert main(argv + ["1e-8", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["records"][0]["lhs"] == pytest.approx(0.6168709388, abs=1e-8)
        assert data["params"]["tol"] == 1e-8

    def test_verify_diamonds_exact(self, capsys):
        code = main(["verify", "diamonds", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert all(r["residual"] == 0.0 for r in data["records"])

    @pytest.mark.parametrize("coeffs,mult,modulo,residual", [
        ({"P": 1, "U": 1}, 2, False, 1.0),  # P+U is not self-inverse
        ({"P": 3}, 1, True, 0.0),  # 3P is 2-torsion: dropped where the step allows it
        ({"P": 3}, 1, False, 1.0),
    ])
    def test_verify_diamonds_counts_the_points_left_over(self, coeffs, mult, modulo, residual,
                                                        monkeypatch, capsys):
        group = divisors.GROUPS["S"]
        rhs = divisors.FormalDivisor({group.point(P=1): 1, group.point(U=1): -2})
        lhs = rhs + divisors.FormalDivisor({group.point(**coeffs): mult})
        monkeypatch.setitem(divisors.CHAINS, "S", lambda: [("made_up", lhs, rhs, modulo)])
        assert main(["verify", "diamonds", "--json"]) == (0 if residual == 0 else 1)
        records = {r["name"]: r for r in json.loads(capsys.readouterr().out)["records"]}
        assert records["S:made_up"]["residual"] == residual
        assert records["S:made_up"]["pass"] is (residual == 0)
        assert all(r["pass"] for name, r in records.items() if name.startswith("QR:"))

    def test_verify_with_grid(self, capsys):
        code = main(["verify", "bz1", "--grid", "1:2:1", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["records"]) == 2

    def test_csv_output(self, capsys):
        code = main(["verify", "diamonds", "--csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "name,lhs,rhs,residual,tol,pass"

    def test_negative_grid_as_separate_value(self, capsys):
        records = []
        for argv in (["--grid", "-3:-1.5:0.5"], ["--grid=-3:-1.5:0.5"]):
            assert main(["verify", "bz1", *argv, "--json"]) == 0
            records.append(json.loads(capsys.readouterr().out)["records"])
        assert len(records[0]) == 4
        assert records[0] == records[1]

    def test_invalid_grid_exit_two(self, capsys):
        code = main(["verify", "bz1", "--grid", "oops"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:inf:1", "nan:1:0.5", "0:1:inf"])
    def test_non_finite_grid_exit_two(self, grid, capsys):
        code = main(["verify", "bz1", "--grid", grid])
        assert code == 2
        assert f"bad grid {grid!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("error,code,prefix", [
        (NoConvergenceError("tanh-sinh quadrature stalled at error 0.001",
                            QuadratureResult(0.5, 1e-3, 100)), 1, "numeric failure:"),
        (UnembeddablePointError("generator off curve"), 2, "error:"),
        (MissingPrimeError("a_p missing"), 2, "error:"),
    ])
    def test_library_errors_map_to_exit_codes(self, error, code, prefix, monkeypatch, capsys):
        def raises(args):
            raise error

        monkeypatch.setattr(cli, "cmd_verify", raises)
        assert main(["verify", "diamonds"]) == code
        # the message as raised: a KeyError's own str would quote it
        assert capsys.readouterr().err == f"{prefix} {error.args[0]}\n"

    def test_unembeddable_point_message_has_no_quotes(self):
        assert str(UnembeddablePointError("generator P off curve")) == "generator P off curve"

    @pytest.mark.parametrize("target", ["lemma32", "table1", "diamonds", "steinberg"])
    def test_grid_on_a_campaign_without_one_exits_two(self, target, capsys):
        assert main(["verify", target, "--grid", "1:2:1"]) == 2
        assert "--grid does not apply" in capsys.readouterr().err

    def test_ap_overrides_outside_table1_exits_two(self, tmp_path, capsys):
        overrides = tmp_path / "ap.txt"
        overrides.write_text("2 0\n", encoding="utf-8")
        assert main(["verify", "bz1", "--ap-overrides", str(overrides)]) == 2
        assert "--ap-overrides does not apply" in capsys.readouterr().err

    @pytest.mark.parametrize("target,tol", [("table1", 1e-6), ("sec42", 1e-6),
                                            ("diamonds", 0.25)])
    def test_explicit_tol_is_honoured(self, target, tol, capsys):
        main(["verify", target, "--tol", str(tol), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["params"]["tol"] == tol
        assert {r["tol"] for r in data["records"]} == {tol}

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize("argv", [
        ["verify", "bz1"], ["verify", "diamonds"], ["regulator", "--alpha", "3"],
        ["mahler", "--family", "P", "--alpha", "3"],
        ["mahler", "--family", "P", "--alpha", "3", "--method", "torus2"],
    ])
    def test_invalid_tol_exits_two_before_any_record(self, argv, tol, capsys):
        assert main([*argv, f"--tol={tol}", "--json"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: --tol must be finite and > 0")

    def test_regulator_verdict_follows_tol(self, capsys):
        # one record, judged at --tol: the ratio is 1 to about 2e-14 at alpha = 3
        assert main(["regulator", "--alpha", "3", "--tol", "1e-16", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in data["records"]] == ["ratio"]
        assert data["records"][0]["tol"] == 1e-16

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_regulator_rejects_non_finite_alpha(self, alpha, capsys):
        assert main(["regulator", f"--alpha={alpha}", "--json"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: alpha must be finite, got {float(alpha)!r}\n"

    @pytest.mark.parametrize("alpha", ["1e52", "-1e55", "1e200"])
    def test_regulator_alpha_that_overflows_exits_two(self, alpha, capsys):
        # float ** raises OverflowError on the curve's invariants instead of returning inf
        assert main(["regulator", f"--alpha={alpha}", "--json"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: a parameter overflows double precision\n"

    @pytest.mark.parametrize("argv", [
        ["--family", "P", "--alpha", "1e200"],
        ["--family", "P", "--alpha", "1e200", "--method", "torus2"],
        ["--family", "S", "--alpha", "1e160"],
        ["--family", "Q", "--alpha", "1e155"],
        ["--family", "R", "--alpha", "1e155"],
    ])
    def test_mahler_alpha_that_overflows_exits_two(self, argv, capsys):
        # B^2 - 4AC is not finite, so no root of it can be found
        assert main(["mahler", *argv, "--json"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: a parameter overflows double precision\n"

    def test_negative_alpha_in_scientific_notation(self, capsys):
        records = []
        for argv in (["--alpha", "-1e1"], ["--alpha=-10"]):
            assert main(["mahler", "--family", "P", *argv, "--json"]) == 0
            records.append(json.loads(capsys.readouterr().out)["records"])
        assert records[0] == records[1]

    def test_negative_tol_in_scientific_notation_exits_two(self, capsys):
        assert main(["regulator", "--alpha", "-2", "--tol", "-1e-3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --tol must be finite and > 0, got -0.001\n"

    def test_regulator_requires_cubic_family(self, capsys):
        code = main(["regulator", "--family", "Q", "--alpha", "5"])
        assert code == 2

    def test_regulator_reports_unit_ratio(self, capsys):
        code = main(["regulator", "--alpha", "3", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        ratio = next(r for r in data["records"] if r["name"] == "ratio")
        assert abs(ratio["lhs"] - 1.0) < 1e-6

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_argument_exits(self):
        with pytest.raises(SystemExit):
            main(["mahler", "--family", "P"])

    def test_determinism(self, capsys):
        main(["verify", "bz2", "--grid", "4:5:1", "--json"])
        first = json.loads(capsys.readouterr().out)["records"]
        main(["verify", "bz2", "--grid", "4:5:1", "--json"])
        second = json.loads(capsys.readouterr().out)["records"]
        assert first == second


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_repeated_in_process_runs_report_the_same(self, capsys):
        reports = []
        for _ in range(2):
            assert main(["verify", "table1", "--json"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
            del reports[-1]["seconds"]
        assert reports[0] == reports[1]

    def test_import_loads_no_scipy(self):
        # numpy and the standard library are the only runtime dependencies
        code = "import sys, regulab.cli; print(*(m for m in sys.modules if m.startswith('scipy')))"
        env = {**os.environ, "PYTHONPATH": str(Path(regulab.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.split() == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_unknown_mahler_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mahler", "--family", "P", "--alpha", "3",
                                       "--method", "nope"])

    def test_family_choices_case_insensitive(self):
        args = build_parser().parse_args(["mahler", "--family", "p", "--alpha", "1"])
        assert args.family == "p"  # FamilySpec uppercases downstream
