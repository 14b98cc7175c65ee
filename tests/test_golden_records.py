"""Every campaign's default records, and some commands', against the committed golden files."""

import json
import sys

import pytest

import cli_contract
from golden_records import COMMANDS, differences, golden
from regulab.cli import CAMPAIGNS, main


def test_the_golden_file_covers_every_campaign():
    assert list(golden()) == list(CAMPAIGNS)


@pytest.mark.parametrize("target", list(CAMPAIGNS))
def test_default_records_match(target, capsys):
    assert main(["verify", target, "--json"]) == 0
    assert differences(target, json.loads(capsys.readouterr().out)) == []


@pytest.mark.parametrize("command", list(golden(COMMANDS)))
def test_command_records_match(command, capsys):
    assert main([*command.split(), "--json"]) == 0
    assert differences(command, json.loads(capsys.readouterr().out)) == []


def test_ap_overrides_that_agree_with_the_counts_keep_the_table1_records(capsys):
    assert main(["verify", "table1", "--ap-overrides", str(cli_contract.AP_OVERRIDES),
                 "--json"]) == 0
    assert differences("table1", json.loads(capsys.readouterr().out)) == []


def test_a_moved_value_a_verdict_and_a_missing_record_are_reported():
    want = golden()["bz1"]
    report = {"pass": want["pass"], "records": [dict(r) for r in want["records"]]}
    assert differences("bz1", report) == []
    report["records"][0]["lhs"] += 1e-9
    report["records"][1]["pass"] = False
    assert len(differences("bz1", report)) == 2
    report["records"].pop()
    assert differences("bz1", report)[0].startswith("record names")


def test_the_cli_contract_reports_every_check_a_broken_console_script_fails(tmp_path):
    # a console script that crashes: every campaign, every golden command, table1 with
    # its a_p overrides, the six exit-2 cases and the scientific --alpha each give one
    # failure line
    (tmp_path / "python").symlink_to(sys.executable)
    regulab = tmp_path / "regulab"
    regulab.write_text("#!/bin/sh\necho 'Traceback (most recent call last):' >&2\nexit 1\n")
    regulab.chmod(0o755)
    found = list(cli_contract.failures(tmp_path))
    assert len(found) == len(CAMPAIGNS) + len(golden(COMMANDS)) + 1 + 6 + 1, found
