"""Points of the projective Berkovich line over Puiseux series and the
tree structure on them.

A point ``zeta(a, t)`` is the sup-seminorm on the closed disk of centre
``a`` and radius ``|x|^t``; ``t`` ranges over Q and may be negative
(disks larger than the unit disk).  ``zeta(0, 0)`` is the Gauss point.
Only these disk points are represented: that is exactly what the
algorithms downstream need.  Classical points enter only as series
tested against directions (``classical_in_direction``).

Stored form: ``(center, tn, td)``.  The radius t is the pair of ints
``tn/td`` in lowest terms with ``td > 0``, and the centre is canonical:
every exponent of it is strictly below t, and it is the exact finite sum
obtained by discarding the rest.  Two points are equal as seminorms iff
their stored forms are equal, so ``==`` is semantic equality.  The
producers (``join`` here, the lattice walk and flanks of
``vertexset``, the pushes of ``skew``) reduce their pair with one gcd,
and the tree queries (``leq``, ``join``, directions) compare integers:
radii by cross-multiplication, and centres term by term on the lcm of
their exponent lattices (``_split``).  ``t`` as a ``Fraction`` is built
on its first read and kept on the point.

Conventions: ``|x| < 1``, so larger ``t`` means smaller disk.  The
hyperbolic metric is normalised so the Gauss point and ``zeta(0, 1)``
are at distance 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InsufficientPrecision
from .puiseux import INF, PuiseuxPoly, _text, as_series, rat


class TypeIIPoint:
    """Disk point ``zeta(center, t)`` in canonical form; immutable by
    convention (the hot constructor skips a ``__setattr__`` guard).

    The stored centre is exact: a truncated centre known to O(x^t) or
    beyond is cut at t, and one known less far is rejected.  The radius
    is stored as ``tn/td``; ``t`` reads it as a ``Fraction``.
    """

    __slots__ = ("center", "tn", "td", "_t", "_hash")

    def __init__(self, center, t):
        center = as_series(center)
        t = rat(t)
        if center.precision is not INF and center.precision < t:
            raise InsufficientPrecision(
                f"centre only known to O(x^{center.precision}), "
                f"cannot canonicalise at t = {t}"
            )
        _point(center.drop_from(t), t.numerator, t.denominator, self)
        self._t = t

    @property
    def t(self) -> Fraction:
        t = self._t
        if t is None:
            t = self._t = Fraction(self.tn, self.td)
        return t

    def __eq__(self, other):
        if not isinstance(other, TypeIIPoint):
            return NotImplemented
        return self.tn == other.tn and self.td == other.td and self.center == other.center

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.center, self.tn, self.td))
            self._hash = h
        return h

    def sort_key(self):
        return (self.t, self.center.terms)

    def __str__(self):
        t = _text(self.tn) if self.td == 1 else f"{_text(self.tn)}/{_text(self.td)}"
        return f"zeta({self.center}, {t})"

    def __repr__(self):
        return f"TypeIIPoint({self})"


def _point(center: PuiseuxPoly, tn: int, td: int, into=None) -> TypeIIPoint:
    """The point of radius tn/td, in lowest terms with td > 0, of a centre
    already canonical there, set up in ``into`` if given."""
    p = object.__new__(TypeIIPoint) if into is None else into
    p.center, p.tn, p.td, p._t, p._hash = center, tn, td, None, None
    return p


def _point_over(center: PuiseuxPoly, k: int, n: int) -> TypeIIPoint:
    """``_point`` of radius k/n, n > 0, reduced with one gcd."""
    g = math.gcd(k, n)
    return _point(center, k // g, n // g)


def gauss_point() -> TypeIIPoint:
    return TypeIIPoint(PuiseuxPoly.zero(), 0)


@dataclass(frozen=True)
class Direction:
    """A tangent direction at a Type II point.

    Either the direction at infinity (towards larger disks) or the
    direction of one residue class, identified by the canonical
    representative of the class: the terms of a member with exponent
    <= t.
    """

    at: TypeIIPoint
    at_infinity: bool
    rep: Optional[PuiseuxPoly] = None

    def __str__(self):
        if self.at_infinity:
            return f"dir(infinity at {self.at})"
        return f"dir({self.rep} at {self.at})"


def class_rep(center: PuiseuxPoly, t) -> PuiseuxPoly:
    """Canonical representative of the residue class of ``center`` at level t."""
    return center.keep_through(rat(t))


def direction_to_class(at: TypeIIPoint, member) -> Direction:
    """The direction at ``at`` of the residue class containing ``member``."""
    member = as_series(member)
    if member.precision is not INF and member.precision <= at.t:
        raise InsufficientPrecision(
            f"class member only known to O(x^{member.precision}) at level {at.t}"
        )
    k, n = _split(member, at.center)
    if k is not None and k * at.td < at.tn * n:
        raise ValueError("class member lies outside the disk of the point")
    return Direction(at=at, at_infinity=False, rep=class_rep(member, at.t))


def direction_infinity(at: TypeIIPoint) -> Direction:
    return Direction(at=at, at_infinity=True)


# -- partial order and metric -------------------------------------------------


def _scaled(c: PuiseuxPoly, n: int, d: int) -> list:
    """The terms of c as integer pairs (exponent * n, coefficient * d),
    for n a multiple of c.N and d of c.den."""
    s, m = n // c.N, d // c.den
    return [((c.lo + i) * s, k * m) for i, k in enumerate(c.nums) if k]


def _split(a: PuiseuxPoly, b: PuiseuxPoly):
    """(k, n): the centres a and b first differ at x^(k/n), n the lcm of
    their ramification indices; k is None when they are equal.

    The terms are compared as integers on the lattice x^(1/n) over the
    product of the two denominators, so no ``Fraction`` is built.  Point
    centres and class representatives are exact, and the one truncated
    argument, a class member in ``direction_to_class``, is known past the
    point's level, so that term is known in both.
    """
    if a is b:  # points on one ray share their centre
        return None, a.N
    n, d = math.lcm(a.N, b.N), a.den * b.den
    ta, tb = _scaled(a, n, d), _scaled(b, n, d)
    for x, y in zip(ta, tb):
        if x != y:
            return min(x[0], y[0]), n
    rest = ta[len(tb):] or tb[len(ta):]
    return (rest[0][0] if rest else None), n


def leq(p1: TypeIIPoint, p2: TypeIIPoint) -> bool:
    """Disk containment: the disk of p1 is contained in the disk of p2."""
    if p1.tn * p2.td < p2.tn * p1.td:
        return False
    k, n = _split(p1.center, p2.center)
    return k is None or k * p2.td >= p2.tn * n


def join(p1: TypeIIPoint, p2: TypeIIPoint) -> TypeIIPoint:
    """Least upper bound: the smallest disk containing both."""
    # the join of a nested pair is the outer point itself
    outer = p1 if p1.tn * p2.td <= p2.tn * p1.td else p2
    k, n = _split(p1.center, p2.center)
    if k is None or k * outer.td >= outer.tn * n:
        return outer
    return _point_over(p1.center._cut(-(-k * p1.center.N // n), INF), k, n)


def hyperbolic_distance(p1: TypeIIPoint, p2: TypeIIPoint) -> Fraction:
    s = join(p1, p2).t
    return (p1.t - s) + (p2.t - s)


def direction_at(at: TypeIIPoint, target: TypeIIPoint) -> Direction:
    """The direction at ``at`` along the path towards ``target``."""
    if target == at:
        raise ValueError("no direction from a point to itself")
    if leq(target, at):
        return Direction(at=at, at_infinity=False, rep=class_rep(target.center, at.t))
    return Direction(at=at, at_infinity=True)


def point_in_direction(v: Direction, p: TypeIIPoint) -> bool:
    """Does p lie in the open component cut out by v at its anchor?"""
    anchor = v.at
    if p == anchor:
        return False
    if v.at_infinity:
        return not leq(p, anchor)
    if p.tn * anchor.td <= anchor.tn * p.td:
        return False
    k, n = _split(p.center, v.rep)
    return k is None or k * anchor.td > anchor.tn * n


def classical_in_direction(v: Direction, value: PuiseuxPoly) -> bool:
    """Membership of the classical point ``value`` in the component of v.

    Raises InsufficientPrecision when the truncation of ``value`` leaves
    this undecidable.
    """
    anchor = v.at
    if v.at_infinity:
        diff = value - anchor.center
        if diff:
            return diff.val() < anchor.t
        if diff.precision is INF or diff.precision >= anchor.t:
            return False
        raise InsufficientPrecision("classical point too close to the boundary disk")
    diff = value - v.rep
    if diff:
        return diff.val() > anchor.t
    if diff.precision is INF or diff.precision > anchor.t:
        return True
    raise InsufficientPrecision("classical point too close to the boundary disk")


# -- multiplicities ----------------------------------------------------------


def m_point(p: TypeIIPoint) -> int:
    """Multiplicity of the point: orbit size of its disk under the Galois
    action on exponents, read off the canonical centre."""
    return p.center.ramification_index()


def g_point(p: TypeIIPoint) -> int:
    """Least n such that p is a vertex of the level-n lattice."""
    return math.lcm(m_point(p), p.td)


def classify_point(p: TypeIIPoint) -> str:
    m = m_point(p)
    g = g_point(p)
    if g == 1:
        return "integral"
    if g == m:
        return "free"
    return "satellite"


def special_directions(p: TypeIIPoint):
    """Directions of non-generic multiplicity, with their multiplicities.

    Generic directions at p have multiplicity g_point(p); the ones listed
    here are the exceptions.
    """
    kind = classify_point(p)
    if kind == "integral":
        return []
    if kind == "free":
        return [(direction_infinity(p), 1)]
    return [
        (direction_to_class(p, p.center), m_point(p)),
        (direction_infinity(p), 1),
    ]


def direction_multiplicity(p: TypeIIPoint, v: Direction) -> int:
    if v.at_infinity:
        return 1
    if v.rep == class_rep(p.center, p.t):
        return m_point(p)
    return g_point(p)

