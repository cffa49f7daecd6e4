"""Points of the projective Berkovich line over Puiseux series and the
tree structure on them.

A point ``zeta(a, t)`` is the sup-seminorm on the closed disk of centre
``a`` and radius ``|x|^t``; ``t`` ranges over Q and may be negative
(disks larger than the unit disk).  ``zeta(0, 0)`` is the Gauss point.
Only these disk points are represented: that is exactly what the
algorithms downstream need.  Classical points enter only as series
tested against directions (``classical_in_direction``).

The centre is stored in canonical form: every exponent of the stored
centre is strictly below ``t``, and the stored series is the exact finite
sum obtained by discarding the rest.  Two points are equal as seminorms
iff their canonical forms are structurally equal, so ``==`` is semantic
equality.

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
from .puiseux import INF, PuiseuxPoly, as_series, rat


class TypeIIPoint:
    """Disk point ``zeta(center, t)`` in canonical form.

    The stored centre is exact: a truncated centre known to O(x^t) or
    beyond is cut at t, and one known less far is rejected.
    """

    __slots__ = ("center", "t", "_hash")

    def __init__(self, center, t):
        center = as_series(center)
        t = rat(t)
        if center.precision is not INF and center.precision < t:
            raise InsufficientPrecision(
                f"centre only known to O(x^{center.precision}), "
                f"cannot canonicalise at t = {t}"
            )
        object.__setattr__(self, "center", center.drop_from(t))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("TypeIIPoint is immutable")

    def __eq__(self, other):
        if not isinstance(other, TypeIIPoint):
            return NotImplemented
        return self.t == other.t and self.center == other.center

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.center, self.t))
            object.__setattr__(self, "_hash", h)
        return h

    def sort_key(self):
        return (self.t, self.center.terms)

    def __str__(self):
        return f"zeta({self.center}, {self.t})"

    def __repr__(self):
        return f"TypeIIPoint({self})"


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
    v = _diff_val(member, at.center)
    if v is not None and v < at.t:
        raise ValueError("class member lies outside the disk of the point")
    return Direction(at=at, at_infinity=False, rep=class_rep(member, at.t))


def direction_infinity(at: TypeIIPoint) -> Direction:
    return Direction(at=at, at_infinity=True)


# -- partial order and metric -------------------------------------------------


def _diff_val(a: PuiseuxPoly, b: PuiseuxPoly):
    """Valuation of a - b without building it; None when the two term
    lists are equal.

    Both term lists are canonical (sorted, nonzero coefficients), so the
    first disagreement is the leading term of the difference.  Point
    centres and class representatives are exact, and the one truncated
    argument, a class member in ``direction_to_class``, is known past the
    point's level, so that term is known in both.
    """
    ta, tb = a.terms, b.terms
    n = min(len(ta), len(tb))
    i = 0
    while i < n and ta[i] == tb[i]:
        i += 1
    if i < n:
        return min(ta[i][0], tb[i][0])
    if i < len(ta):
        return ta[i][0]
    if i < len(tb):
        return tb[i][0]
    return None


def leq(p1: TypeIIPoint, p2: TypeIIPoint) -> bool:
    """Disk containment: the disk of p1 is contained in the disk of p2."""
    if p1.t < p2.t:
        return False
    v = _diff_val(p1.center, p2.center)
    return v is None or v >= p2.t


def join(p1: TypeIIPoint, p2: TypeIIPoint) -> TypeIIPoint:
    """Least upper bound: the smallest disk containing both."""
    s = min(p1.t, p2.t)
    v = _diff_val(p1.center, p2.center)
    if v is not None:
        s = min(s, v)
    # the join of a nested pair is the outer point itself
    if s == p1.t:
        return p1
    if s == p2.t:
        return p2
    return TypeIIPoint(p1.center, s)


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
    if p.t <= anchor.t:
        return False
    d = _diff_val(p.center, v.rep)
    return d is None or d > anchor.t


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
    m = m_point(p)
    q = p.t.denominator
    return m * q // math.gcd(m, q)


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

