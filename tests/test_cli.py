"""Command-line interface: argument handling, report formats, exit codes."""

import csv
import io
import json

import pytest

from regulab.cli import Record, Report, build_parser, main, parse_grid
from regulab.numerics import DegenerateInputError


class TestParseGrid:
    def test_inclusive_endpoints(self):
        assert parse_grid("0.5:3.5:1.0") == [0.5, 1.5, 2.5, 3.5]

    def test_single_point(self):
        assert parse_grid("2:2:1") == [2.0]

    def test_negative_range(self):
        assert parse_grid("-5:-2:1.5") == [-5.0, -3.5, -2.0]

    @pytest.mark.parametrize("bad", ["1:2", "a:b:c", "3:1:0.5", "0:1:0"])
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

    def test_verify_diamonds_exact(self, capsys):
        code = main(["verify", "diamonds", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert all(r["residual"] == 0.0 for r in data["records"])

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
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_family_choices_case_insensitive(self):
        args = build_parser().parse_args(["mahler", "--family", "p", "--alpha", "1"])
        assert args.family == "p"  # FamilySpec uppercases downstream
