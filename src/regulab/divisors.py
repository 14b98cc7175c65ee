"""Exact divisor calculus on abstract elliptic-curve point groups.

Points are integer words in named generators with declared torsion
relations, so divisor identities are checked by exact integer
arithmetic even when the underlying coordinates live in quadratic
extensions.  A divisor is its group and a dict from reduced coefficient
tuples to multiplicities: sums, canonical forms and diamonds work on the
tuples, and SymbolicPoints are made only where the API hands them out.
The diamond operation lands in the inversion quotient Z[E]^- where
(g) + (-g) = 0; Steinberg symbols {f, 1-f} give the "free moves" used to
pass between equivalent diamond values.

The family catalogs are constant data, built once per process.  Each line
c0 + cX X + cY Y on a family's curve is its divisor (a) + (b) + (-a-b) - 3(O)
through two words a and b, and the functions of the chains are sums and
differences of lines; only three functions of higher pole order and the
stated long forms are written out term by term.  The catalog is the
divisor calculus's only account of these functions: no numeric check of a
claimed divisor runs here, and the tests tie each line to its equation.
Each chain of ``CHAINS`` is a table of rows (name, lhs, rhs, modulo_self_inverse)
built from the catalogs when replayed; a step holds when its ``left_over`` is empty.

Numeric embeddings (coordinates, elliptic logarithms, Tate-curve
points) are attached separately and only when a dilogarithm evaluation
needs them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import elliptic, families
from .dilogarithm import elliptic_dilog_divisor
from .elliptic import CurvePoint, WeierstrassCurve
from .numerics import DegenerateInputError


class MixedGroupError(ValueError):
    pass


class UnembeddablePointError(KeyError):
    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it


@dataclass(frozen=True)
class PointGroup:
    """Free abelian group on named generators, with finite-order relations."""

    generators: tuple
    orders: tuple = ()  # pairs (generator name, order)

    def __post_init__(self):
        names = set(self.generators)
        for g, n in self.orders:
            if g not in names:
                raise ValueError(f"relation names unknown generator {g!r}")
            if n <= 0:
                raise ValueError("orders must be positive")

    @functools.cached_property
    def moduli(self) -> tuple:  # each generator's order, 0 for a free one
        return tuple(dict(self.orders).get(g, 0) for g in self.generators)

    def point(self, **coeffs) -> "SymbolicPoint":
        vec = [0] * len(self.generators)
        for name, c in coeffs.items():
            vec[self.generators.index(name)] = c
        return SymbolicPoint(self, tuple(vec))

    def zero(self) -> "SymbolicPoint":
        return SymbolicPoint(self, (0,) * len(self.generators))


@dataclass(frozen=True)
class SymbolicPoint:
    """Integer word over a PointGroup, stored in canonical form."""

    group: PointGroup
    coeffs: tuple

    def __post_init__(self):
        reduced = [c % n if n else c for c, n in zip(self.coeffs, self.group.moduli)]
        object.__setattr__(self, "coeffs", tuple(reduced))

    def __hash__(self):  # equal points have equal coefficients; the group is not hashed
        return hash(self.coeffs)

    def __neg__(self):
        return SymbolicPoint(self.group, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        return SymbolicPoint(
            _same_group(self, other), tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k: int):
        return SymbolicPoint(self.group, tuple(k * c for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def label(self) -> str:
        terms = [{1: name, -1: f"-{name}"}.get(c, f"{c}{name}")
                 for c, name in zip(self.coeffs, self.group.generators) if c]
        return "+".join(terms).replace("+-", "-") or "O"

    def __repr__(self):
        return f"<{self.label}>"


def _same_group(a, b):
    """The operands' common group (an empty divisor takes the other's)."""
    if a and b and a.group != b.group:
        raise MixedGroupError("operands over different point groups")
    return a.group if a else b.group


def _accumulate(terms: dict, pairs) -> dict:
    """Add (coefficient tuple, multiplicity) pairs into ``terms``, dropping zero sums."""
    for c, m in pairs:
        new = terms.get(c, 0) + m
        if new:
            terms[c] = new
        else:
            terms.pop(c, None)
    return terms


class FormalDivisor:
    """Finite Z-linear combination of symbolic points."""

    def __init__(self, terms=None):
        pairs = list(terms.items() if isinstance(terms, dict) else terms or ())
        for p, _ in pairs:
            _same_group(pairs[0][0], p)
        self.group = pairs[0][0].group if pairs else None
        self._terms = _accumulate({}, ((p.coeffs, m) for p, m in pairs))

    @classmethod
    def _of(cls, group, terms: dict):  # reduced tuples -> nonzero multiplicities, not copied
        d = cls()
        d.group, d._terms = group, terms
        return d

    def items(self) -> list:
        return [(SymbolicPoint(self.group, c), m) for c, m in self._terms.items()]

    def multiplicity(self, p: SymbolicPoint) -> int:
        return self._terms.get(p.coeffs, 0) if self.group == p.group else 0

    @property
    def degree(self) -> int:
        return sum(self._terms.values())

    def __add__(self, other):
        group = _same_group(self, other)
        return FormalDivisor._of(group, _accumulate(dict(self._terms), other._terms.items()))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, k: int):
        return FormalDivisor._of(self.group, {c: k * m for c, m in self._terms.items() if k})

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        if not isinstance(other, FormalDivisor):
            return NotImplemented
        return self._terms == other._terms and (not self._terms or self.group == other.group)

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = []
        for c, m in sorted(self._terms.items()):
            coef = "" if m == 1 else ("-" if m == -1 else str(m))
            bits.append(f"{coef}({SymbolicPoint(self.group, c).label})")
        return " + ".join(bits).replace("+ -", "- ")


class MinusDivisor(FormalDivisor):
    """FormalDivisor reduced in Z[E]^-; construct via canonicalize_minus."""


def _minus(group, terms, strip: bool = False) -> MinusDivisor:
    """Z[E]^- form of (tuple, multiplicity) pairs, one negation each; ``strip`` drops 2-torsion."""
    moduli = group.moduli if group is not None else ()
    out = {}
    for c, m in terms:
        neg = tuple([-a % n if n else -a for a, n in zip(c, moduli)])
        if neg == c:
            if m % 2 and not strip:
                out[c] = out.get(c, 0) ^ 1  # parity; the point keeps its place
            continue
        if neg > c:
            c, m = neg, -m
        new = out.get(c, 0) + m
        if new:
            out[c] = new
        else:
            out.pop(c, None)
    return MinusDivisor._of(group, {c: m for c, m in out.items() if m})


def canonicalize_minus(d: FormalDivisor) -> MinusDivisor:
    """Reduce a divisor modulo (g) + (-g) ~ 0.

    Inversion orbits {g, -g} keep only the lexicographically larger
    coefficient vector (sign flipped if the stored point was the other
    one); self-inverse points keep their multiplicity mod 2.  A MinusDivisor,
    made only by ``_minus``, is reduced already and comes back as it is.
    """
    return d if isinstance(d, MinusDivisor) else _minus(d.group, d._terms.items())


def diamond(f_div: FormalDivisor, g_div: FormalDivisor) -> MinusDivisor:
    """Bilinear diamond: sum_{i,j} m_i n_j (S_i - T_j), in Z[E]^-."""
    group = _same_group(f_div, g_div)
    moduli = group.moduli if group is not None else ()
    differences = ((tuple([(a - b) % n if n else a - b for a, b, n in zip(s, t, moduli)]), m * k)
                   for s, m in f_div._terms.items() for t, k in g_div._terms.items())
    # summed first, so that each distinct difference is negated once
    return _minus(group, _accumulate({}, differences).items())


# ---------------------------------------------------------------------------
# family catalogs
# ---------------------------------------------------------------------------

GROUPS = {name: PointGroup(f.generators, f.orders) for name, f in families.FAMILIES.items()}


def _div(*terms) -> FormalDivisor:
    """m1(p1) + m2(p2) + ... from (m, point) pairs."""
    return FormalDivisor([(p, m) for m, p in terms])


def _line(a: SymbolicPoint, b: SymbolicPoint) -> FormalDivisor:
    """Divisor of the line through a and b: (a) + (b) + (-a-b) - 3(O).

    With a == b it is the tangent at a; with b == -a the vertical line, whose
    third point is O.
    """
    return _div((1, a), (1, b), (1, -a - b), (-3, a.group.zero()))


def family_divisor_catalog(family: str) -> dict:
    """Named divisors of the rational functions used by each family's chain.

    A line is named by its equation in the family's Weierstrass coordinates
    (X, Y; Z, W for Q and R) and built from two points it passes through; the
    other functions are sums and differences of named divisors, except S's
    a_numerator and ab_denominator and R's a_numerator (pole orders 7, 5 and
    5) and the stated long forms of the chains.
    A new dict per call, of divisors built once: no public operation changes one.
    """
    return dict(_catalog(families.family(family).name))


@functools.cache
def _catalog(family: str) -> dict:
    g = GROUPS[family]
    O = g.zero()
    gens = [g.point(**{name: 1}) for name in g.generators]
    if family == "P":
        (P,) = gens
        cat = {
            "X-Y": _line(P, 2 * P),
            "Y+(alpha-1)X+alpha": _line(3 * P, 4 * P),
            "X-alpha": _line(P, -P),
        }
        # x and y as families._p_from_curve maps the curve to the cubic
        cat["x"] = cat["X-Y"] - cat["X-alpha"]
        cat["y"] = cat["Y+(alpha-1)X+alpha"] - cat["X-alpha"]
        return cat
    if family == "S":
        P, U, V = gens
        cat = {
            "X-alpha": _line(P, -P),
            "ab_denominator": _div((2, P), (1, 2 * P), (1, V), (1, 2 * P - V), (-5, O)),
            "a_numerator": _div((5, P), (1, U), (1, P - U), (-7, O)),
            "X+alpha": _line(V - P, P - V),
            "alphaX+2Y+alpha^2": _line(5 * P, U),
            "Y": _line(2 * P, 2 * P),  # 2P is a flex
        }
        cat["a"] = cat["a_numerator"] - cat["ab_denominator"] - cat["X-alpha"]
        cat["b"] = 2 * cat["X-alpha"] - cat["ab_denominator"]
        # Steinberg pair {f, 1-f} with f = -alpha (X+alpha)/(2Y):
        # constants do not move divisors, so these are quotient divisors
        cat["steinberg_f"] = cat["X+alpha"] - cat["Y"]
        cat["steinberg_1mf"] = cat["alphaX+2Y+alpha^2"] - cat["Y"]
        cat["minus_x1_diamond_y1"] = _div(
            (5, P), (3, 2 * P), (1, U), (1, P - U), (3, P + U), (3, 2 * P - U), (1, V - U),
            (1, 2 * P - U - V), (1, U + V - P), (1, P + U - V), (-1, V), (-1, 2 * P - V),
            (-3, P + V), (3, 3 * P + V),
        )
        cat["steinberg_diamond_claimed"] = _div(
            (1, P), (3, 2 * P), (-1, U), (-1, P - U), (-3, P + U), (-3, 2 * P - U),
            (-1, V - U), (-1, 2 * P - U - V), (-1, U + V - P), (-1, P + U - V), (1, V),
            (1, 2 * P - V), (3, P + V), (-3, 3 * P + V),
        )
        return cat
    if family == "Q":
        P, S, T = gens
        cat = {
            "W-alphaZ": _line(S, P),
            "W+alphaZ": _line(-S, P),
            "3Z+4(alpha^2-9)": _line(T, -T),
        }
        cat["a"] = cat["W-alphaZ"] - cat["W+alphaZ"]
        cat["b"] = cat["3Z+4(alpha^2-9)"] - cat["W+alphaZ"]
        cat["minus_x2_diamond_y2"] = _div(
            (2, S - T), (2, S + T), (-2, P + S + T), (-2, P + S - T), (4, S), (-4, P + S),
        )
        return cat
    P, A, S, T = gens
    cat = {
        "W": _line(P, A),
        "Z-4(beta+1)": _line(S, -S),
        "3Z+4(beta-5)(beta+1)": _line(T, -T),
        "a_numerator": _div((3, S), (1, P - S), (1, P - 2 * S), (-5, O)),
        "W-3Z-4(beta-5)(beta+1)": _line(S, P + S),
    }
    cat["a"] = cat["a_numerator"] - cat["W"] - cat["Z-4(beta+1)"]
    cat["b"] = cat["3Z+4(beta-5)(beta+1)"] - cat["W"]
    cat["minus_x3_diamond_y3"] = _div(
        (3, S - T), (3, S + T), (4, S), (-4, P + S), (-1, P + S + T), (-1, P + S - T),
        (1, 2 * S), (-1, P + 2 * S), (-1, P + 2 * S + T), (1, P - 2 * S + T), (-2, S + A),
        (1, 2 * S + A), (-2, S + A + P), (1, 2 * S + A + P),
    )
    cat["steinberg_diamond_claimed"] = _div(
        (1, S - T), (1, S + T), (1, P + S + T), (1, P + S - T), (1, P - 2 * S + T),
        (1, P - 2 * S - T), (1, 2 * S), (-1, P + 2 * S), (-2, S + A), (-2, S + A + P),
        (1, 2 * S + A), (1, 2 * S + A + P),
    )
    # {f, 1-f} with f = (W - 3Z - 4(beta-5)(beta+1))/W
    cat["steinberg_f"] = cat["W-3Z-4(beta-5)(beta+1)"] - cat["W"]
    cat["steinberg_1mf"] = cat["3Z+4(beta-5)(beta+1)"] - cat["W"]
    return cat


def map_r_to_q(d: FormalDivisor) -> FormalDivisor:
    """Transport an A-free divisor over the R group to the Q group."""
    out = []
    for p, m in d.items():
        coeffs = dict(zip(p.group.generators, p.coeffs))
        if coeffs.pop("A", 0) % 2 != 0:
            raise MixedGroupError(f"term {p.label} involves the extra 2-torsion point")
        out.append((GROUPS["Q"].point(**coeffs), m))
    return FormalDivisor(out)


# ---------------------------------------------------------------------------
# derivation chains
# ---------------------------------------------------------------------------


def strip_self_inverse(d: FormalDivisor) -> MinusDivisor:
    """Drop points fixed by inversion (2-torsion and O).

    The q-averaged dilogarithm vanishes identically on such classes, and
    the stated diamond expansions omit them; comparisons modulo this
    subgroup carry the full analytic content.
    """
    return _minus(d.group, d._terms.items(), strip=True)


@dataclass
class DerivationStep:
    name: str
    lhs: MinusDivisor
    rhs: MinusDivisor
    modulo_self_inverse: bool = False

    @property
    def discrepancy(self) -> MinusDivisor:
        """Exact difference; nonzero only on self-inverse classes when passed."""
        return canonicalize_minus(self.lhs - self.rhs)

    @property
    def left_over(self) -> MinusDivisor:
        """The discrepancy, less self-inverse points where the step allows; empty if it holds."""
        if self.lhs == self.rhs:
            return MinusDivisor()
        d = self.discrepancy
        return strip_self_inverse(d) if self.modulo_self_inverse else d

    @property
    def passed(self) -> bool:
        return not self.left_over


@dataclass
class DerivationReport:
    chain: str
    steps: list

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def first_failure(self):
        return next((s for s in self.steps if not s.passed), None)


def _torsion_class(family: str, k: int) -> FormalDivisor:
    """k(P) + k(2P), where both ends of the S chain land."""
    P = GROUPS[family].point(P=1)
    return _div((k, P), (k, 2 * P))


def _s_chain() -> list:
    """x dia y on P is -6(P)-6(2P); so is (x1) dia (y1) on S, modulo one Steinberg element."""
    p, s = _catalog("P"), _catalog("S")
    return [
        ("x_diamond_y", diamond(p["x"], p["y"]), _torsion_class("P", -6), False),
        ("a_diamond_b_equals_long_form", diamond(s["a"], s["b"]), s["minus_x1_diamond_y1"], True),
        ("steinberg_expansion", diamond(s["steinberg_f"], s["steinberg_1mf"]),
         s["steinberg_diamond_claimed"], True),
        ("collapse_to_torsion_class", s["minus_x1_diamond_y1"] + s["steinberg_diamond_claimed"],
         _torsion_class("S", 6), False),
    ]


def _qr_chain() -> list:
    """The two quartic families' diamonds agree modulo one Steinberg element."""
    q, r = _catalog("Q"), _catalog("R")
    # difference of the two long forms is exactly the Steinberg element
    diff = canonicalize_minus(r["minus_x3_diamond_y3"] - r["steinberg_diamond_claimed"])
    return [
        ("aQ_diamond_bQ", diamond(q["a"], q["b"]), q["minus_x2_diamond_y2"], True),
        ("aR_diamond_bR", diamond(r["a"], r["b"]), r["minus_x3_diamond_y3"], True),
        ("steinberg_expansion", diamond(r["steinberg_f"], r["steinberg_1mf"]),
         r["steinberg_diamond_claimed"], True),
        ("families_agree_mod_steinberg", map_r_to_q(diff), q["minus_x2_diamond_y2"], False),
    ]


# each chain's rows (name, lhs, rhs, modulo_self_inverse), built when called
CHAINS = {"S": _s_chain, "QR": _qr_chain}


def derive_equivalence(chain: str) -> DerivationReport:
    """Replay a diamond-equivalence chain of ``CHAINS`` exactly.

    Each row's sides are reduced in Z[E]^-, and a step holds when its
    ``left_over`` is empty.
    """
    if chain not in CHAINS:
        raise DegenerateInputError(f"unknown chain {chain!r}")
    return DerivationReport(chain, [
        DerivationStep(name, canonicalize_minus(lhs), canonicalize_minus(rhs), modulo)
        for name, lhs, rhs, modulo in CHAINS[chain]()])


# ---------------------------------------------------------------------------
# numeric embeddings
# ---------------------------------------------------------------------------


@dataclass
class FamilyEmbedding:
    """Numeric realization of a family's point group on its Weierstrass model.

    Generator logs are computed once; word logs are generator-linear, so
    the embedding is a group homomorphism by construction.
    """

    family: str
    param: float
    curve: WeierstrassCurve
    lattice: elliptic.PeriodLattice
    generator_points: dict
    generator_logs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.generator_logs:
            self.generator_logs = {
                name: elliptic.elliptic_log(self.curve, self.lattice, pt)
                for name, pt in self.generator_points.items()
            }

    @property
    def group(self) -> PointGroup:
        return GROUPS[self.family]

    def coordinates(self, p: SymbolicPoint) -> CurvePoint:
        acc = elliptic.O
        for c, name in zip(p.coeffs, p.group.generators):
            acc = elliptic.group_op(
                self.curve, acc, elliptic.multiply(self.curve, c, self.generator_points[name])
            )
        return acc

    def log(self, p: SymbolicPoint) -> complex:
        return sum(
            (c * self.generator_logs[name] for c, name in zip(p.coeffs, p.group.generators)),
            0j,
        )

    def qpoint(self, p: SymbolicPoint):
        return elliptic.u_to_qz(self.log(p), self.lattice)

    def elliptic_dilog_of(self, d: FormalDivisor) -> float:
        return elliptic_dilog_divisor(self.qpoint, d)


def family_embedding(family: str, param: float) -> FamilyEmbedding:
    fam = families.family(family)
    a = float(param)
    curve = fam.curve(a)
    gens = dict(zip(fam.generators, fam.points(a)))
    for name, pt in gens.items():
        if not curve.contains(pt, tol=1e-8):
            raise UnembeddablePointError(f"generator {name} off curve at param {param}")
    lat = elliptic.period_lattice(curve)
    return FamilyEmbedding(fam.name, a, curve, lat, gens)
