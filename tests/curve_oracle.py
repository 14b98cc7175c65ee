"""The chord-tangent group law on a long-Weierstrass curve, as a test oracle.

``None`` is the point at infinity O; every other point is an affine
``CurvePoint``.  The law is written generically, so it is exact on
Fraction coordinates and works unchanged on float and complex ones.
``coordinates`` realizes a word of a family's point group on its curve
from the generators' coordinates, which ties each catalog line to its
equation (``test_divisors``).  The library itself never adds points: it
works with words and their elliptic logarithms.
"""

from regulab.elliptic import CurvePoint
from regulab.numerics import DegenerateInputError


def negate(c, p):
    return None if p is None else CurvePoint(p.x, -p.y - c.a1 * p.x - c.a3)


def add(c, p, q):
    """Chord-tangent addition on the long model; exact on exact inputs."""
    if not all(pt is None or c.contains(pt) for pt in (p, q)):
        raise DegenerateInputError("input point not on curve")
    if p is None:
        return q
    if q is None:
        return p
    a1, a2, a3, a4 = c.a1, c.a2, c.a3, c.a4
    if p.x == q.x:
        if p.y != q.y or 2 * p.y + a1 * p.x + a3 == 0:
            # vertical chord (Q = -P) or 2-torsion tangent
            return None
        lam = (3 * p.x * p.x + 2 * a2 * p.x + a4 - a1 * p.y) / (2 * p.y + a1 * p.x + a3)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    nu = p.y - lam * p.x
    x3 = lam * lam + a1 * lam - a2 - p.x - q.x
    return CurvePoint(x3, -(lam + a1) * x3 - nu - a3)


def multiply(c, n, p):
    """n p by doubling and adding."""
    if n < 0:
        return multiply(c, -n, negate(c, p))
    acc, power = None, p
    while n:
        if n & 1:
            acc = add(c, acc, power)
        n >>= 1
        if n:
            power = add(c, power, power)
    return acc


def coordinates(emb, word):
    """The point of ``emb``'s curve that a word of its family's group names, by the group law."""
    acc = None
    for k, name in zip(word.coeffs, word.group.generators):
        acc = add(emb.curve, acc, multiply(emb.curve, k, emb.generator_points[name]))
    return acc
