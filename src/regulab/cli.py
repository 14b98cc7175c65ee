"""Command-line front end: verification campaigns with JSON/CSV reports.

Subcommands: ``mahler`` (one measure), ``verify`` (a named campaign over a
grid / table / derivation chain), ``regulator`` (the dilogarithm ratio for
one parameter).  Reports are printed as a human table by default; --json
emits the fixed machine-readable schema and --csv a flat record table.
Exit code 0 means every record passed, 1 a failed or non-converging
check, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .dilogarithm import UnresolvedPointError
from .divisors import (
    InconclusiveOrderError,
    UnembeddablePointError,
    derive_equivalence,
    diamond,
    family_divisor_catalog,
    family_embedding,
    strip_self_inverse,
)
from .lfunctions import (
    TABLE_ONE,
    MissingPrimeError,
    l_prime_zero,
    parse_override_file,
    table_one_lseries,
)
from .mahler import FamilySpec, family_poly, mahler_quadratic_y, mahler_torus2
from .numerics import DegenerateInputError, NoConvergenceError, Tolerance
from .periods import change_of_variable_check, verify_period_identity

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
        value = mahler_torus2(poly, Tolerance(absolute=max(args.tol, 1e-6)))
    rep.records.append(Record(f"m({args.family}_{args.alpha:g})", value, value, 0.0, args.tol))
    if spec.family == "Q" and args.alpha < 4:
        print("warning: alpha below the regime of the Q/R equivalence; "
              "the measure itself is still well defined", file=sys.stderr)
    return rep


def _bz1_record(alpha, tol):
    m_s = mahler_quadratic_y(family_poly(FamilySpec("S", alpha)))
    m_p = mahler_quadratic_y(family_poly(FamilySpec("P", alpha)))
    if alpha < 0:
        return Record(f"m(S_{alpha:g})=m(P_{alpha:g})", m_s, m_p, abs(m_s - m_p), tol)
    return Record(f"m(S_{alpha:g})=2m(P_{alpha:g})", m_s, 2 * m_p, abs(m_s - 2 * m_p), tol)


def _bz2_record(alpha, tol):
    m_q = mahler_quadratic_y(family_poly(FamilySpec("Q", alpha)))
    m_r = mahler_quadratic_y(family_poly(FamilySpec("R", alpha + 2)))
    return Record(f"m(Q_{alpha:g})=m(R_{alpha + 2:g})", m_q, m_r, abs(m_q - m_r), tol)


_LEMMA_GRIDS = {
    "p-doubled-vs-s": [0.5 * k for k in range(1, 16)],
    "p-vs-s": [-1.5, -2.0, -5.0, -20.0],
}
_COV_GRIDS = {
    "shift-scale": [0.5, 3.0, 7.5, -1.5, -2.0, -5.0, -20.0],
    "mobius-involution": [-1.5, -2.0, -5.0, -20.0],
    "reciprocal-t": [-1.5, -2.0, -5.0, -20.0],
    "reciprocal-w": [-1.5, -2.0, -5.0, -20.0],
    "degree2-isogeny": [-1.5, -2.0, -5.0, -20.0],
    "parameter-rescale": [-1.5, -2.0, -5.0, -20.0],
}
_SEC42_GRID = [4.0, 5.0, 8.0, 12.0]


def cmd_verify(args) -> Report:
    tol = args.tol
    rep = Report("verify", {"target": args.target, "grid": args.grid, "tol": tol})

    if args.target == "bz1":
        grid = parse_grid(args.grid) if args.grid else [0.5, 1.0, 2.0, 3.0, 3.5]
        rep.records = [_bz1_record(a, tol) for a in grid]
    elif args.target == "bz2":
        grid = parse_grid(args.grid) if args.grid else [4.0, 5.0, 6.5, 10.0]
        rep.records = [_bz2_record(a, tol) for a in grid]
    elif args.target == "lemma32":
        ptol = Tolerance(absolute=min(tol, 1e-8))
        for which, grid in _LEMMA_GRIDS.items():
            for a in grid:
                r = verify_period_identity(which, a, ptol)
                rep.records.append(Record(f"{which}@{a:g}", r.lhs, r.rhs,
                                          r.residual, ptol.absolute))
        for map_id, grid in _COV_GRIDS.items():
            for a in grid:
                r = change_of_variable_check(map_id, a, ptol)
                rep.records.append(Record(f"{map_id}@{a:g}", r.lhs, r.rhs,
                                          r.residual, ptol.absolute))
    elif args.target == "sec42":
        ptol = Tolerance(absolute=min(tol, 1e-8))
        for a in (parse_grid(args.grid) if args.grid else _SEC42_GRID):
            r = verify_period_identity("q-vs-r", a, ptol)
            rep.records.append(Record(f"q-vs-r@{a:g}", r.lhs, r.rhs,
                                      r.residual, ptol.absolute))
            r = change_of_variable_check("qr-mobius", a, ptol)
            rep.records.append(Record(f"qr-mobius@{a:g}", r.lhs, r.rhs,
                                      r.residual, ptol.absolute))
    elif args.target == "table1":
        overrides = None
        if args.ap_overrides:
            with open(args.ap_overrides, encoding="utf-8") as fh:
                overrides = parse_override_file(fh.read())
        rtol = max(tol, 1e-4) if tol == 1e-6 else tol  # table ratios hold to 1e-4

        def row(alpha):
            ratio_expected, _n = TABLE_ONE[alpha]
            series = table_one_lseries(alpha, overrides=overrides)
            lp = l_prime_zero(series)
            m = mahler_quadratic_y(family_poly(FamilySpec("P", alpha)))
            return Record(f"ratio@alpha={alpha}", m / lp, float(ratio_expected),
                          abs(m / lp - float(ratio_expected)), rtol)

        rep.records = [row(a) for a in sorted(TABLE_ONE)]
    elif args.target == "diamonds":
        for chain in ("S", "QR"):
            report = derive_equivalence(chain)
            for step in report.steps:
                delta = step.lhs - step.rhs
                if step.modulo_self_inverse:
                    delta = strip_self_inverse(delta)
                n_bad = sum(1 for _, m in delta.items() if m != 0)
                rep.records.append(
                    Record(f"{chain}:{step.name}", 0.0, 0.0, float(n_bad), 0.5)
                )
    elif args.target == "steinberg":
        for family, params in (("S", (1.0, 3.0)), ("R", (1.0, 3.0))):
            cat = family_divisor_catalog(family)
            st = diamond(cat["steinberg_f"], cat["steinberg_1mf"])
            for a in params:
                emb = family_embedding(family, a)
                val = emb.elliptic_dilog_of(st)
                rep.records.append(
                    Record(f"{family}-steinberg@{a:g}", val, 0.0, abs(val), tol)
                )
    else:
        raise DegenerateInputError(f"unknown verify target {args.target!r}")
    return rep


def cmd_regulator(args) -> Report:
    from .divisors import GROUP_P, canonicalize_minus, _div

    rep = Report("regulator", {"family": args.family, "alpha": args.alpha})
    if args.family.upper() != "P":
        raise DegenerateInputError("the regulator ratio is defined for the cubic family")
    a = args.alpha
    m = mahler_quadratic_y(family_poly(FamilySpec("P", a)))
    emb = family_embedding("P", a)
    div = canonicalize_minus(_div(GROUP_P, (-6, dict(P=1)), (-6, dict(P=2))))
    dval = emb.elliptic_dilog_of(div)
    ratio = TWO_PI * m / abs(dval)
    # informational records; the ratio is reported, not asserted equal to 1
    # (only a generous magnitude sanity bound), so tolerances stay finite
    # for strict-JSON output
    rep.records.append(Record("2*pi*m", TWO_PI * m, TWO_PI * m, 0.0, 1.0))
    rep.records.append(Record("elliptic_dilog", dval, dval, 0.0, 1.0))
    rep.records.append(Record("ratio", ratio, 1.0, abs(ratio - 1.0), 1.0))
    return rep


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="regulab", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--json", action="store_true")
        p.add_argument("--csv", action="store_true")

    m = sub.add_parser("mahler", help="Mahler measure of one family member")
    m.add_argument("--family", required=True, choices=list("PSQRpsqr"))
    m.add_argument("--alpha", type=float, required=True)
    m.add_argument("--method", choices=["jensen", "torus2"], default="jensen")
    common(m)
    m.set_defaults(fn=cmd_mahler)

    v = sub.add_parser("verify", help="run a named verification campaign")
    v.add_argument("target", choices=["bz1", "bz2", "lemma32", "sec42",
                                      "table1", "diamonds", "steinberg"])
    v.add_argument("--grid", help="a:b:step inclusive grid")
    v.add_argument("--ap-overrides", help="file of 'p a_p' lines for bad primes")
    common(v)
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("regulator", help="dilogarithm ratio for one parameter")
    r.add_argument("--family", default="P")
    r.add_argument("--alpha", type=float, required=True)
    common(r)
    r.set_defaults(fn=cmd_regulator)
    return top


def _join_grid_values(argv: list) -> list:
    """Rewrite ``--grid VALUE`` as ``--grid=VALUE``.

    argparse reads a separate value that starts with a minus sign, such as
    -20:-1.5:0.5, as an option and reports that --grid has no argument.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--grid":
            out[-1] = "--grid=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_grid_values(sys.argv[1:] if argv is None else argv))
    t0 = time.time()
    try:
        report = args.fn(args)
    except (DegenerateInputError, ValueError, OSError,
            UnresolvedPointError, UnembeddablePointError, MissingPrimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergenceError, InconclusiveOrderError) as exc:
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
