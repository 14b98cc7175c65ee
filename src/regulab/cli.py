"""Command-line front end: verification campaigns with JSON/CSV reports.

Subcommands: ``mahler`` (one measure), ``verify`` (a named campaign from
``CAMPAIGNS``), ``regulator`` (2 pi m(P_alpha) / |D^E(x <> y)| against 1
for one parameter).  Each campaign row holds its record functions with
their default parameters, its default tolerance and the verify options it
takes; an option a campaign does not take exits 2, and an explicit --tol
replaces the row's tolerance.  Reports are printed as a human table by
default; --json emits the fixed machine-readable schema and --csv a flat
record table.  Exit code 0 means every record passed, 1 a failed or
non-converging check, 2 invalid input, such as a --tol that is not finite
and positive or a parameter so large that the arithmetic overflows.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from . import __version__
from .divisors import (
    CHAINS,
    UnembeddablePointError,
    derive_equivalence,
    diamond,
    family_divisor_catalog,
    family_embedding,
)
from .families import FAMILIES
from .lfunctions import (
    TABLE_ONE,
    MissingPrimeError,
    l_prime_zero,
    parse_override_file,
    table_one_lseries,
)
from .mahler import FamilySpec, family_poly, mahler_quadratic_y, mahler_torus2
from .numerics import DegenerateInputError, NoConvergenceError, Tolerance
from .periods import MAP_IDS, change_of_variable_check, verify_period_identity

TWO_PI = 2.0 * math.pi


@dataclass
class Record:
    name: str
    lhs: float
    rhs: float
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclass
class Report:
    command: str
    params: dict
    records: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "params": self.params,
                "records": [
                    {
                        # plain builtins: numpy scalars are not JSON types
                        "name": r.name,
                        "lhs": float(r.lhs),
                        "rhs": float(r.rhs),
                        "residual": float(r.residual),
                        "tol": float(r.tol),
                        "pass": bool(r.passed),
                    }
                    for r in self.records
                ],
                "pass": bool(self.passed),
                "seconds": self.seconds,
                "version": __version__,
            },
            indent=2,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["name", "lhs", "rhs", "residual", "tol", "pass"])
        for r in self.records:
            w.writerow([r.name, repr(float(r.lhs)), repr(float(r.rhs)),
                        repr(float(r.residual)), repr(float(r.tol)), r.passed])
        return buf.getvalue()

    def to_table(self) -> str:
        lines = [f"{self.command}  ({self.seconds:.2f}s)"]
        for r in self.records:
            mark = "ok " if r.passed else "FAIL"
            lines.append(
                f"  [{mark}] {r.name:<32} lhs={r.lhs:+.10g} rhs={r.rhs:+.10g} "
                f"residual={r.residual:.3g} tol={r.tol:.3g}"
            )
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def parse_grid(text: str) -> list:
    try:
        a, b, step = (float(t) for t in text.split(":"))
    except ValueError as exc:
        raise DegenerateInputError(f"bad grid {text!r}, expected a:b:step") from exc
    if not all(math.isfinite(v) for v in (a, b, step)):
        raise DegenerateInputError(f"bad grid {text!r}, a, b and step must be finite")
    if step <= 0 or b < a:
        raise DegenerateInputError(f"bad grid {text!r}")
    n = int(round((b - a) / step))
    return [round(a + k * step, 12) for k in range(n + 1) if a + k * step <= b + 1e-12]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_mahler(args) -> Report:
    rep = Report(
        "mahler",
        {"family": args.family, "alpha": args.alpha, "method": args.method,
         "tol": args.tol},
    )
    spec = FamilySpec(args.family, args.alpha)
    poly = family_poly(spec)
    if args.method == "jensen":
        value = mahler_quadratic_y(poly, Tolerance(absolute=min(args.tol, 1e-10)))
    else:
        value = mahler_torus2(poly, Tolerance(absolute=args.tol))
    rep.records.append(Record(f"m({args.family}_{args.alpha:g})", value, value, 0.0, args.tol))
    if spec.family == "Q" and args.alpha < 4:
        print("warning: alpha below the regime of the Q/R equivalence; "
              "the measure itself is still well defined", file=sys.stderr)
    return rep


def _measure(family, alpha):
    return mahler_quadratic_y(family_poly(FamilySpec(family, alpha)))


def _bz1(alpha, tol):
    m_s, m_p = _measure("S", alpha), _measure("P", alpha)
    if alpha < 0:
        return [Record(f"m(S_{alpha:g})=m(P_{alpha:g})", m_s, m_p, abs(m_s - m_p), tol)]
    return [Record(f"m(S_{alpha:g})=2m(P_{alpha:g})", m_s, 2 * m_p, abs(m_s - 2 * m_p), tol)]


def _bz2(alpha, tol):
    m_q, m_r = _measure("Q", alpha), _measure("R", alpha + 2)
    return [Record(f"m(Q_{alpha:g})=m(R_{alpha + 2:g})", m_q, m_r, abs(m_q - m_r), tol)]


def _residual(check, which, alpha, tol):
    """A period identity or a substitution: ``check(which, alpha, tol)``."""
    r = check(which, alpha, Tolerance(absolute=tol))
    return [Record(f"{which}@{alpha:g}", r.lhs, r.rhs, r.residual, tol)]


def _table1(alpha, tol, overrides=None):
    ratio = float(TABLE_ONE[alpha][0])
    value = _measure("P", alpha) / l_prime_zero(table_one_lseries(alpha, overrides=overrides))
    return [Record(f"ratio@alpha={alpha}", value, ratio, abs(value - ratio), tol)]


def _derivation(chain, tol):
    """One record per step of an exact chain; its residual counts the points left over."""
    return [Record(f"{chain}:{step.name}", 0.0, 0.0, float(len(step.left_over.items())), tol)
            for step in derive_equivalence(chain).steps]


def _steinberg(family, param, tol):
    cat = family_divisor_catalog(family)
    st = diamond(cat["steinberg_f"], cat["steinberg_1mf"])
    val = family_embedding(family, param).elliptic_dilog_of(st)
    return [Record(f"{family}-steinberg@{param:g}", val, 0.0, abs(val), tol)]


class Campaign(NamedTuple):
    """A ``regulab verify`` target, also run by the acceptance gate."""

    cases: list  # (record function (param, tol) -> [Record], default params)
    tol: float  # default --tol
    options: tuple = ()  # verify options it takes; a grid replaces every case's params

    def records(self, tol=None, grid=None, **kw) -> list:
        tol = self.tol if tol is None else tol
        return [rec for record, params in self.cases
                for a in (params if grid is None else grid)
                for rec in record(a, tol, **kw)]


_NEGATIVE = (-1.5, -2.0, -5.0, -20.0)
_PERIOD = functools.partial(_residual, verify_period_identity)
_MAP = functools.partial(_residual, change_of_variable_check)

CAMPAIGNS = {
    "bz1": Campaign([(_bz1, (0.5, 1.0, 2.0, 3.0, 3.5))], 1e-6, ("grid",)),
    "bz2": Campaign([(_bz2, (4.0, 5.0, 6.5, 10.0))], 1e-6, ("grid",)),
    "lemma32": Campaign(
        [(functools.partial(_PERIOD, "p-doubled-vs-s"), tuple(0.5 * k for k in range(1, 16))),
         (functools.partial(_PERIOD, "p-vs-s"), _NEGATIVE),
         (functools.partial(_MAP, "shift-scale"), (0.5, 3.0, 7.5) + _NEGATIVE)]
        + [(functools.partial(_MAP, m), _NEGATIVE) for m in MAP_IDS if m != "shift-scale"],
        1e-8),
    "sec42": Campaign([(functools.partial(_PERIOD, "q-vs-r"), (4.0, 5.0, 8.0, 12.0))], 1e-8,
                      ("grid",)),
    "table1": Campaign([(_table1, tuple(sorted(TABLE_ONE)))], 1e-4, ("ap_overrides",)),
    "diamonds": Campaign([(_derivation, tuple(CHAINS))], 0.5),
    "steinberg": Campaign([(functools.partial(_steinberg, f), (1.0, 3.0)) for f in "SR"], 1e-6),
}


def cmd_verify(args) -> Report:
    campaign = CAMPAIGNS[args.target]
    tol = campaign.tol if args.tol is None else args.tol
    rep = Report("verify", {"target": args.target, "grid": args.grid, "tol": tol})
    for option in ("grid", "ap_overrides"):
        if getattr(args, option) is not None and option not in campaign.options:
            raise DegenerateInputError(
                f"--{option.replace('_', '-')} does not apply to verify {args.target}")
    kw = {}
    if args.ap_overrides is not None:
        with open(args.ap_overrides, encoding="utf-8") as fh:
            kw["overrides"] = parse_override_file(fh.read())
    rep.records = campaign.records(tol, None if args.grid is None else parse_grid(args.grid), **kw)
    return rep


def cmd_regulator(args) -> Report:
    rep = Report("regulator", {"family": args.family, "alpha": args.alpha})
    if FamilySpec(args.family, args.alpha).family != "P":  # a non-finite alpha raises here
        raise DegenerateInputError("the regulator ratio is defined for the cubic family")
    cat = family_divisor_catalog("P")
    dval = family_embedding("P", args.alpha).elliptic_dilog_of(diamond(cat["x"], cat["y"]))
    ratio = TWO_PI * _measure("P", args.alpha) / abs(dval)
    rep.records.append(Record("ratio", ratio, 1.0, abs(ratio - 1.0), args.tol))
    return rep


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared; ``main`` finds ``cmd_<command>`` per call."""
    top = argparse.ArgumentParser(prog="regulab", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, tol=1e-6):
        p.add_argument("--tol", type=float, default=tol)
        p.add_argument("--json", action="store_true")
        p.add_argument("--csv", action="store_true")

    m = sub.add_parser("mahler", help="Mahler measure of one family member")
    m.add_argument("--family", required=True, choices=[*FAMILIES, *map(str.lower, FAMILIES)])
    m.add_argument("--alpha", type=float, required=True)
    m.add_argument("--method", choices=["jensen", "torus2"], default="jensen")
    common(m)

    v = sub.add_parser("verify", help="run a named verification campaign")
    v.add_argument("target", choices=list(CAMPAIGNS))
    v.add_argument("--grid", help="a:b:step inclusive grid, for campaigns that take one")
    v.add_argument("--ap-overrides", help="file of 'p a_p' lines for bad primes (table1)")
    common(v, tol=None)  # None: the campaign's own tolerance

    r = sub.add_parser("regulator", help="dilogarithm ratio for one parameter")
    r.add_argument("--family", default="P")
    r.add_argument("--alpha", type=float, required=True)
    common(r)
    return top


def _join_values(argv: list) -> list:
    """Rewrite ``--grid VALUE``, ``--alpha VALUE`` and ``--tol VALUE`` as ``--option=VALUE``.

    argparse reads a separate value that starts with a minus sign and is
    not a plain decimal, such as -20:-1.5:0.5 or -1e1, as an option and
    reports that the option has no argument.
    """
    out = []
    for tok in argv:
        if out and out[-1] in ("--grid", "--alpha", "--tol"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    t0 = time.time()
    try:
        if args.tol is not None and not 0 < args.tol < math.inf:  # false for NaN too
            raise DegenerateInputError(f"--tol must be finite and > 0, got {args.tol}")
        report = globals()[f"cmd_{args.command}"](args)
    except (DegenerateInputError, ValueError, OSError,
            UnembeddablePointError, MissingPrimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:  # float ** of a huge parameter, or an overflowing polynomial
        print("error: a parameter overflows double precision", file=sys.stderr)
        return 2
    except NoConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    report.seconds = round(time.time() - t0, 3)
    if args.json:
        print(report.to_json())
    elif args.csv:
        print(report.to_csv(), end="")
    else:
        print(report.to_table())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
