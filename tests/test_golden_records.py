"""Every campaign's default records, and some commands', against the committed golden files."""

import json

import pytest

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


def test_a_moved_value_a_verdict_and_a_missing_record_are_reported():
    want = golden()["bz1"]
    report = {"pass": want["pass"], "records": [dict(r) for r in want["records"]]}
    assert differences("bz1", report) == []
    report["records"][0]["lhs"] += 1e-9
    report["records"][1]["pass"] = False
    assert len(differences("bz1", report)) == 2
    report["records"].pop()
    assert differences("bz1", report)[0].startswith("record names")
