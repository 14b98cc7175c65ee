"""The console-script contract, checked against an installed ``regulab``.

    python tests/cli_contract.py BIN

BIN is the directory that holds the ``regulab`` console script and the
``python`` it was installed with.  Each check runs a fresh process:

- importing ``regulab.cli`` builds no cached table;
- every ``verify`` campaign and every command of
  ``tests/data/command_records.json`` exits 0 and matches its golden
  records (``golden_records.py``), and so does ``verify table1`` with
  ``tests/data/ap_overrides.txt``, whose one a_p agrees with the counts;
- an invalid --tol or --alpha exits 2 and says "must be finite";
- an --alpha whose arithmetic overflows exits 2 with an ``error:`` line,
  and prints neither a traceback nor numpy's "infs or NaNs";
- a negative --alpha in scientific notation is read as a value (exit 0).

It uses the standard library only, so it also runs where just the declared
dependencies are installed.  Exits 0 when every check holds, otherwise 1
with one line per failure on standard error.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

from golden_records import COMMANDS, DATA, differences, golden

NO_CACHED_TABLE = (
    "import sys, regulab.cli; from regulab import numerics, divisors, lfunctions; "
    "full = [f.__name__ for f in (numerics._ts_group, divisors._catalog, "
    "lfunctions._residue_tables, lfunctions._weights) if f.cache_info().currsize]; "
    "sys.exit(f'built at import: {full}' if full else 0)"
)
AP_OVERRIDES = DATA / "ap_overrides.txt"
INVALID = ("verify bz1 --tol nan", "regulator --alpha 3 --tol -1", "regulator --alpha nan")
OVERFLOWING = ("regulator --alpha 1e60", "mahler --family P --alpha 1e200",
               "mahler --family R --alpha 1e160")


def failures(bin_dir: Path):
    def run(program, *argv):
        return subprocess.run([str(bin_dir / program), *argv], capture_output=True, text=True)

    done = run("python", "-c", NO_CACHED_TABLE)
    if done.returncode != 0:
        yield f"importing regulab.cli: {done.stderr.strip()}"
    done = run("python", "-c", "from regulab.cli import CAMPAIGNS; print(*CAMPAIGNS)")
    targets = done.stdout.split()
    if done.returncode != 0 or not targets:
        yield f"reading CAMPAIGNS: {done.stderr.strip()}"
    golden_runs = ([(t, ["verify", t]) for t in targets] + [(c, c.split()) for c in golden(COMMANDS)]
                   + [("table1", ["verify", "table1", "--ap-overrides", str(AP_OVERRIDES)])])
    for key, argv in golden_runs:
        done = run("regulab", *argv, "--json")
        if done.returncode != 0:
            yield f"regulab {' '.join(argv)} --json exited {done.returncode}: {done.stderr.strip()}"
            continue
        yield from (f"{key}: {line}" for line in differences(key, json.loads(done.stdout)))
    for argv in INVALID + OVERFLOWING:
        done = run("regulab", *argv.split())
        if argv in INVALID:
            ok = "must be finite" in done.stderr
        else:
            ok = (re.search("^error:", done.stderr, re.MULTILINE)
                  and not re.search("Traceback|infs or NaNs", done.stderr))
        if done.returncode != 2 or not ok:
            yield f"regulab {argv}: exit {done.returncode} (want 2), standard error {done.stderr!r}"
    done = run("regulab", "mahler", "--family", "P", "--alpha", "-1e1", "--json")
    if done.returncode != 0:
        yield f"regulab mahler --family P --alpha -1e1 --json exited {done.returncode}"


def main(argv=None) -> int:
    (bin_dir,) = sys.argv[1:] if argv is None else argv
    found = list(failures(Path(bin_dir)))
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
