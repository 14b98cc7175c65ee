"""Compare a ``regulab ... --json`` report with its golden records.

    regulab verify bz1 --json | python tests/golden_records.py bz1
    regulab regulator --alpha 3 --json | python tests/golden_records.py "regulator --alpha 3"

``tests/data/campaign_records.json`` holds the default records of every
``cli.CAMPAIGNS`` row, keyed by the ``verify`` target.
``tests/data/command_records.json`` holds those of some ``mahler`` and
``regulator`` commands, keyed by the arguments before ``--json``.  Record
names, their number and every verdict must match exactly; lhs, rhs and
residual within 1e-12 absolute plus 1e-12 relative.  It uses the standard
library only, so it also runs where just the declared dependencies are
installed.  Exits 0 on a match, otherwise 1 with one line per difference
on standard error.
"""

import json
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "campaign_records.json"
COMMANDS = DATA / "command_records.json"
TOL = 1e-12


def golden(path: Path = GOLDEN) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def differences(target: str, report: dict) -> list:
    want = {**golden(), **golden(COMMANDS)}[target]
    got = report["records"]
    if [r["name"] for r in got] != [r["name"] for r in want["records"]]:
        return [f"record names {[r['name'] for r in got]} != {[r['name'] for r in want['records']]}"]
    out = [] if report["pass"] == want["pass"] else [f"pass {report['pass']} != {want['pass']}"]
    for g, w in zip(got, want["records"]):
        out += [f"{g['name']}: {key} {g[key]!r} != {w[key]!r}"
                for key in ("pass", "tol") if g[key] != w[key]]
        out += [f"{g['name']}: {key} {g[key]!r} differs from {w[key]!r} by more than {TOL:g}"
                for key in ("lhs", "rhs", "residual")
                if not abs(g[key] - w[key]) <= TOL + TOL * abs(w[key])]
    return out


def main(argv=None) -> int:
    (target,) = sys.argv[1:] if argv is None else argv
    diffs = differences(target, json.load(sys.stdin))
    for line in diffs:
        print(f"{target}: {line}", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
