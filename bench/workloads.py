"""Seeded check streams for the benchmark workloads.

A check is one closed-loop call sequence into regulab's public API that
ends in comparisons of a left and a right side against a tolerance; it
passes when every residual is within its tolerance.  Inputs depend only
on (workload, seed): the stream draws every parameter from
``random.Random(f"{workload}/{seed}")`` in stream order.

Parameters are drawn by jittered stratified sampling over open intervals
inside the regimes where the paper claims each identity: each regime is
cut into ``STRATA`` equal cells, visited in bit-reversed order so any
prefix of the stream covers the interval evenly, with a fresh uniform
offset inside the cell on every visit.  Evenly covered prefixes keep the
mix of cheap and costly parameters, and so the run-to-run spread, small.

regulab modules are looked up through their attributes at call time, so
the tracer's wrappers (see tracing.py) see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Iterator

from regulab import cli, divisors, lfunctions, mahler, numerics, periods

STRATA = 16


@dataclass(frozen=True)
class Check:
    """One check: a kind from ``RUNNERS`` and its inputs."""

    kind: str
    args: tuple

    @property
    def label(self) -> str:
        return f"{self.kind}({', '.join(_fmt(a) for a in self.args)})"


@dataclass(frozen=True)
class Comparison:
    lhs: float
    rhs: float
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        # a NaN residual fails: the comparison is False
        return self.residual <= self.tol

    @property
    def margin_dec(self) -> float:
        """log10(tol / residual), the residual floored at 1e-16 * max(1, |lhs|)."""
        floor = 1e-16 * max(1.0, abs(self.lhs))
        return math.log10(self.tol / max(self.residual, floor))


def _fmt(a) -> str:
    return repr(a) if isinstance(a, float) else str(a)


def _cmp(lhs: float, rhs: float, tol: float) -> Comparison:
    lhs, rhs = float(lhs), float(rhs)
    return Comparison(lhs, rhs, abs(lhs - rhs), tol)


# ---------------------------------------------------------------------------
# check runners: each returns the list of comparisons it made
# ---------------------------------------------------------------------------

MEASURE_TOL = 1e-6  # AC-1..3
TORUS_TOL = 1e-4  # AC-10, with the torus method at Tolerance(1e-5)
PERIOD_TOL = 1e-8  # AC-7
RATIO_TOL = 1e-4  # AC-4 and AC-5
STEINBERG_TOL = 1e-6  # AC-8
TABLE_BOUND = 600  # coefficients per L-series, 3x the library default


def _measure(family: str, alpha: float) -> float:
    return mahler.mahler_quadratic_y(mahler.family_poly(mahler.FamilySpec(family, alpha)))


def run_s_eq_2p(alpha):
    return [_cmp(_measure("S", alpha), 2.0 * _measure("P", alpha), MEASURE_TOL)]


def run_s_eq_p(alpha):
    return [_cmp(_measure("S", alpha), _measure("P", alpha), MEASURE_TOL)]


def run_q_eq_r(alpha):
    return [_cmp(_measure("Q", alpha), _measure("R", alpha + 2.0), MEASURE_TOL)]


def run_torus(family, alpha):
    poly = mahler.family_poly(mahler.FamilySpec(family, alpha))
    fast = mahler.mahler_quadratic_y(poly)
    slow = mahler.mahler_torus2(poly, numerics.Tolerance(absolute=1e-5))
    return [_cmp(fast, slow, TORUS_TOL)]


def run_period(which, alpha):
    tol = numerics.Tolerance(absolute=PERIOD_TOL)
    r = periods.verify_period_identity(which, alpha, tol)
    return [_cmp(r.lhs, r.rhs, PERIOD_TOL)]


def run_substitution(map_id, alpha):
    tol = numerics.Tolerance(absolute=PERIOD_TOL)
    r = periods.change_of_variable_check(map_id, alpha, tol)
    return [_cmp(r.lhs, r.rhs, PERIOD_TOL)]


def run_table_row(alpha):
    ratio, _conductor = lfunctions.TABLE_ONE[alpha]
    series = lfunctions.table_one_lseries(alpha, bound=TABLE_BOUND)
    lp = lfunctions.l_prime_zero(series)
    return [_cmp(_measure("P", float(alpha)) / lp, float(ratio), RATIO_TOL)]


def _regulator_ratio(alpha):
    cat = divisors.family_divisor_catalog("P")
    emb = divisors.family_embedding("P", alpha)
    d = emb.elliptic_dilog_of(divisors.diamond(cat["x"], cat["y"]))
    return 2.0 * math.pi * _measure("P", alpha) / abs(d)


def run_regulator(alpha1, alpha2):
    """AC-5: 2*pi*m(P) / |D^E(x <> y)| takes the same value at both parameters."""
    return [_cmp(_regulator_ratio(alpha1), _regulator_ratio(alpha2), RATIO_TOL)]


def run_steinberg(family, param):
    cat = divisors.family_divisor_catalog(family)
    st = divisors.diamond(cat["steinberg_f"], cat["steinberg_1mf"])
    value = divisors.family_embedding(family, param).elliptic_dilog_of(st)
    return [_cmp(value, 0.0, STEINBERG_TOL)]


def run_derivation(chain):
    report = divisors.derive_equivalence(chain)
    # exact replay: a step's residual is 0 or 1 against a tolerance of 1/2
    return [Comparison(0.0, 0.0, 0.0 if s.passed else 1.0, 0.5) for s in report.steps]


class CliExitError(RuntimeError):
    pass


def run_cli(target):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", target, "--json"])
    if code != 0:
        raise CliExitError(f"regulab verify {target} exited {code}")
    report = json.loads(buf.getvalue())
    return [Comparison(r["lhs"], r["rhs"], r["residual"], r["tol"]) for r in report["records"]]


RUNNERS = {
    "s-eq-2p": run_s_eq_2p,
    "s-eq-p": run_s_eq_p,
    "q-eq-r": run_q_eq_r,
    "torus": run_torus,
    "period": run_period,
    "substitution": run_substitution,
    "table-row": run_table_row,
    "regulator": run_regulator,
    "steinberg": run_steinberg,
    "derivation": run_derivation,
    "cli": run_cli,
}


def run_check(check: Check) -> list:
    return RUNNERS[check.kind](*check.args)


# ---------------------------------------------------------------------------
# seeded streams
# ---------------------------------------------------------------------------


def _bit_reversed(k: int, bits: int) -> int:
    return int(format(k, f"0{bits}b")[::-1], 2)


_ORDER = [_bit_reversed(k, STRATA.bit_length() - 1) for k in range(STRATA)]


class Sampler:
    """Jittered stratified draws from the open interval (lo, hi)."""

    def __init__(self, rng: random.Random, lo: float, hi: float):
        self.rng, self.lo, self.hi, self.visits = rng, lo, hi, 0

    def draw(self) -> float:
        cell = _ORDER[self.visits % STRATA]
        self.visits += 1
        u = 0.0
        while u == 0.0:  # keep the open end open
            u = self.rng.random()
        return self.lo + (self.hi - self.lo) * (cell + u) / STRATA


# Regimes where the paper claims each identity (open intervals).  The
# measure identities stop holding outside them: S = 2P fails above 4.
JENSEN_REGIMES = (
    ("s-eq-2p", 0.0, 4.0),  # m(S_a) = 2 m(P_a) for 0 < a <= 4
    ("s-eq-p", -20.0, -1.0),  # m(S_a) = m(P_a) for a < -1
    ("q-eq-r", 4.0, 12.0),  # m(Q_a) = m(R_(a+2)) for a >= 4
)

# AC-10 grids: both quadratures compute the same measure at every parameter.
TORUS_RANGES = (("P", -3.0, 7.0), ("S", -3.0, 7.0), ("Q", 4.0, 12.0), ("R", 6.0, 14.0))

SUBSTITUTIONS_NEG = ("shift-scale", "mobius-involution", "reciprocal-t",
                     "reciprocal-w", "degree2-isogeny", "parameter-rescale")
CLI_TARGETS = ("lemma32", "sec42", "diamonds", "steinberg")


def jensen_grid(rng: random.Random) -> Iterator[Check]:
    """Measure identities at distinct parameters, the three regimes in turn."""
    samplers = [(kind, Sampler(rng, lo, hi)) for kind, lo, hi in JENSEN_REGIMES]
    while True:
        for kind, s in samplers:
            yield Check(kind, (s.draw(),))


def torus_xcheck(rng: random.Random) -> Iterator[Check]:
    """Jensen against the root-free torus quadrature, the four families in turn."""
    samplers = [(fam, Sampler(rng, lo, hi)) for fam, lo, hi in TORUS_RANGES]
    while True:
        for fam, s in samplers:
            yield Check("torus", (fam, s.draw()))


def arith_periods(rng: random.Random) -> Iterator[Check]:
    """Rounds of period, L-series, divisor and CLI checks.

    Each round draws small parameter pools and reuses every pool member
    across several checks; the Table-1 rows and the CLI campaigns have
    fixed inputs and repeat in every round.
    """
    pos = Sampler(rng, 0.0, 8.0)  # 0 < a < 8: P/S cycles, regulator, S-Steinberg
    neg = Sampler(rng, -20.0, -1.0)  # a < -1: P/S cycles and substitutions
    qr = Sampler(rng, 4.0, 12.0)  # a >= 4: Q/R cycles; R-Steinberg at b = a + 2
    while True:
        for row in sorted(lfunctions.TABLE_ONE):
            yield Check("table-row", (row,))
        a_pos = [pos.draw() for _ in range(2)]
        for a in a_pos:
            yield Check("period", ("p-doubled-vs-s", a))
            yield Check("substitution", ("shift-scale", a))
            yield Check("steinberg", ("S", a))
        yield Check("regulator", tuple(a_pos))
        for a in [neg.draw() for _ in range(3)]:
            yield Check("period", ("p-vs-s", a))
            for map_id in SUBSTITUTIONS_NEG:
                yield Check("substitution", (map_id, a))
        for a in [qr.draw() for _ in range(3)]:
            yield Check("period", ("q-vs-r", a))
            yield Check("steinberg", ("R", a + 2.0))
        for chain in ("S", "QR"):
            yield Check("derivation", (chain,))
        for target in CLI_TARGETS:
            yield Check("cli", (target,))


@dataclass(frozen=True)
class Workload:
    name: str
    stream: object  # rng -> Iterator[Check]
    warmup: Check  # fixed, untimed: part of set-up
    trace_checks: int  # checks in each pass of a traced run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("jensen-grid", jensen_grid, Check("s-eq-2p", (2.0,)), 150),
        Workload("torus-xcheck", torus_xcheck, Check("torus", ("P", -2.0)), 16),
        # ten rounds of 47 checks
        Workload("arith-periods", arith_periods, Check("cli", ("diamonds",)), 470),
    )
}


def stream(name: str, seed: int) -> Iterator[Check]:
    return WORKLOADS[name].stream(random.Random(f"{name}/{seed}"))


def take(name: str, seed: int, n: int) -> list:
    it = stream(name, seed)
    return [next(it) for _ in range(n)]
