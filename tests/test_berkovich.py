"""Tree structure, canonical forms, multiplicities."""

import math
import random
from fractions import Fraction as F

import pytest

from skewstab.berkovich import (
    TypeIIPoint,
    classify_point,
    direction_at,
    direction_infinity,
    direction_to_class,
    g_point,
    gauss_point,
    hyperbolic_distance,
    join,
    leq,
    m_point,
    point_in_direction,
    special_directions,
)
from skewstab.errors import InsufficientPrecision
from skewstab.puiseux import INF, PuiseuxPoly


def S(*terms):
    return PuiseuxPoly(terms)


def Z(series, t):
    return TypeIIPoint(series, t)


GAUSS = gauss_point()
X_HALF = S((F(1, 2), F(1)))  # x^(1/2)


# -- canonical form ----------------------------------------------------------


def test_centre_terms_at_or_above_t_are_dropped():
    p = Z(S((F(1, 2), F(1)), (F(3, 4), F(2))), F(3, 4))
    assert p.center.terms == ((F(1, 2), F(1)),)
    assert p.center.precision is INF


def test_equality_is_seminorm_equality():
    assert Z(S((F(2), F(5))), F(1)) == Z(PuiseuxPoly.zero(), F(1))
    assert Z(X_HALF, F(1, 2)) == Z(PuiseuxPoly.zero(), F(1, 2))


def test_insufficient_centre_precision_rejected():
    from skewstab.errors import InsufficientPrecision

    c = PuiseuxPoly(((F(0), F(1)),), precision=F(1))
    with pytest.raises(InsufficientPrecision):
        Z(c, F(2))


# -- order, join, distance ---------------------------------------------------


def test_leq_examples():
    assert leq(Z(0, 1), GAUSS)
    assert not leq(GAUSS, Z(0, 1))
    assert leq(Z(S((F(1), F(1))), F(2)), Z(0, 1))  # zeta(x, 2) inside zeta(0,1)
    assert not leq(Z(S((F(0), F(1))), F(2)), Z(0, 1))  # centre 1 escapes


def test_join_of_unit_translates_is_gauss():
    a = Z(PuiseuxPoly.zero(), F(1))
    b = Z(PuiseuxPoly.const(1), F(1))
    assert join(a, b) == GAUSS


def test_distance_normalisation():
    assert hyperbolic_distance(GAUSS, Z(0, 1)) == 1


def test_distance_examples():
    assert hyperbolic_distance(Z(0, F(1, 2)), Z(X_HALF, F(3, 4))) == F(1, 4)
    assert hyperbolic_distance(Z(0, 2), Z(PuiseuxPoly.const(1), 1)) == 3


# -- directions ---------------------------------------------------------------


def test_direction_at_descendant_and_ancestor():
    below = Z(X_HALF, F(3, 4))
    v = direction_at(Z(0, F(1, 2)), below)
    assert not v.at_infinity
    assert v.rep.terms == ((F(1, 2), F(1)),)
    up = direction_at(below, GAUSS)
    assert up.at_infinity


def test_direction_reps_identify_classes():
    at = Z(0, F(1))
    # x + x^2 and x agree through level 1, x and 2x do not
    v1 = direction_to_class(at, S((F(1), F(1)), (F(2), F(1))))
    v2 = direction_to_class(at, S((F(1), F(1))))
    v3 = direction_to_class(at, S((F(1), F(2))))
    assert v1 == v2
    assert v1 != v3


def test_point_in_direction():
    at = Z(0, F(1))
    inside = Z(S((F(1), F(1))), F(2))
    v = direction_to_class(at, S((F(1), F(1))))
    assert point_in_direction(v, inside)
    assert not point_in_direction(v, Z(0, 2))
    assert point_in_direction(direction_infinity(at), GAUSS)
    assert not point_in_direction(direction_infinity(at), inside)



def test_direction_helpers_on_exact_and_truncated_series():
    # a class member may be truncated, point centres are exact; term-by-term
    # comparison must agree with subtraction on membership, ValueError and
    # InsufficientPrecision
    at = Z(S((F(0), F(1))), F(2))  # the disk |y - 1| <= |x|^2
    v = direction_to_class(at, S((F(0), F(1)), (F(2), F(3)), (F(3), F(1))))
    assert v.rep == S((F(0), F(1)), (F(2), F(3)))
    assert direction_to_class(at, PuiseuxPoly(((F(0), F(1)), (F(2), F(3))), F(5))) == v
    for outside in (S((F(0), F(2))), S((F(0), F(1)), (F(1), F(1)))):
        with pytest.raises(ValueError):
            direction_to_class(at, outside)
        with pytest.raises(ValueError):
            direction_to_class(at, PuiseuxPoly(outside.terms, F(3)))
    with pytest.raises(InsufficientPrecision):
        direction_to_class(at, PuiseuxPoly(((F(0), F(1)),), F(2)))
    inside = S((F(0), F(1)), (F(2), F(3)), (F(5, 2), F(1)))
    elsewhere = S((F(0), F(1)), (F(2), F(-3)))
    for centre, expected in ((inside, True), (elsewhere, False)):
        assert point_in_direction(v, Z(centre, 3)) is expected
    assert not point_in_direction(v, Z(S((F(0), F(1)), (F(2), F(3))), 2))

    # leq, join and point_in_direction read val(a - b), as the subtraction
    # a - b does
    def sub_val(a, b):
        d = a - b
        return d.val() if d.terms else None

    pts = [
        Z(S((F(0), F(1)), (F(2), F(3))), 3),
        Z(S((F(0), F(1)), (F(2), F(3)), (F(5, 2), F(1))), 4),
        Z(S((F(0), F(1)), (F(1), F(-1))), F(3, 2)),
        Z(0, 1),
    ]
    for p1 in pts:
        for p2 in pts:
            d = sub_val(p1.center, p2.center)
            assert leq(p1, p2) is (p1.t >= p2.t and (d is None or d >= p2.t))
            s = min([p1.t, p2.t] + ([] if d is None else [d]))
            assert join(p1, p2) == TypeIIPoint(p1.center, s)
        d = sub_val(p1.center, v.rep)
        expected = p1 != v.at and p1.t > v.at.t and (d is None or d > v.at.t)
        assert point_in_direction(v, p1) is expected


# -- multiplicities -----------------------------------------------------------


def test_multiplicity_examples():
    p = Z(X_HALF, F(3, 4))
    assert m_point(p) == 2
    assert g_point(p) == 4
    assert classify_point(p) == "satellite"


def test_gauss_is_integral():
    assert m_point(GAUSS) == 1
    assert g_point(GAUSS) == 1
    assert classify_point(GAUSS) == "integral"


def test_free_point():
    p = Z(X_HALF, F(3, 2))
    assert m_point(p) == 2
    assert g_point(p) == 2
    assert classify_point(p) == "free"
    sd = special_directions(p)
    assert len(sd) == 1
    assert sd[0][0].at_infinity and sd[0][1] == 1


def test_satellite_special_directions():
    p = Z(X_HALF, F(3, 4))
    sd = special_directions(p)
    kinds = {(v.at_infinity, mult) for v, mult in sd}
    assert kinds == {(True, 1), (False, 2)}
    toward = [v for v, _ in sd if not v.at_infinity][0]
    assert toward.rep.terms == ((F(1, 2), F(1)),)


def test_integral_point_has_no_special_directions():
    assert special_directions(Z(0, 3)) == []


# -- seeded property checks -----------------------------------------------------


def _random_point(rng):
    terms = []
    e = F(rng.randint(-2, 2), rng.choice([1, 2, 3, 4]))
    for _ in range(rng.randint(0, 3)):
        terms.append((e, F(rng.randint(-4, 4))))
        e += F(rng.randint(1, 5), rng.choice([1, 2, 3, 4]))
    t = e + F(rng.randint(0, 3), rng.choice([1, 2, 3, 4]))
    return TypeIIPoint(PuiseuxPoly(terms), t)


def test_join_is_least_upper_bound():
    rng = random.Random(101)
    for _ in range(300):
        a, b = _random_point(rng), _random_point(rng)
        j = join(a, b)
        assert leq(a, j) and leq(b, j)
        assert join(b, a) == j
        c = join(j, _random_point(rng))  # any common upper bound dominates j
        if leq(a, c) and leq(b, c):
            assert leq(j, c)


def test_distance_additive_on_chains():
    rng = random.Random(103)
    for _ in range(200):
        a = _random_point(rng)
        mid = TypeIIPoint(a.center, a.t - F(rng.randint(1, 5), rng.randint(1, 3)))
        top = TypeIIPoint(mid.center, mid.t - F(rng.randint(1, 5), rng.randint(1, 3)))
        assert leq(a, mid) and leq(mid, top)
        assert hyperbolic_distance(a, top) == hyperbolic_distance(
            a, mid
        ) + hyperbolic_distance(mid, top)


def test_g_point_is_minimal():
    rng = random.Random(107)
    for _ in range(200):
        p = _random_point(rng)
        g = g_point(p)
        brute = [
            n
            for n in range(1, 9)
            if m_point(p) % 1 == 0
            and (p.t * n).denominator == 1
            and n % m_point(p) == 0
        ]
        if g <= 8:
            assert g == min(brute)
        else:
            assert brute == []


# -- the integer tree layer against Fraction oracles ---------------------------


def _oracle_diff_val(a, b):
    """Valuation of a - b from the Fraction terms; None when equal."""
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


def _oracle_leq(p1, p2):
    if p1.t < p2.t:
        return False
    v = _oracle_diff_val(p1.center, p2.center)
    return v is None or v >= p2.t


def _oracle_join(p1, p2):
    s = min(p1.t, p2.t)
    v = _oracle_diff_val(p1.center, p2.center)
    if v is not None:
        s = min(s, v)
    if s == p1.t:
        return p1
    if s == p2.t:
        return p2
    return TypeIIPoint(p1.center, s)


def _oracle_in_direction(v, p):
    anchor = v.at
    if p == anchor:
        return False
    if v.at_infinity:
        return not _oracle_leq(p, anchor)
    if p.t <= anchor.t:
        return False
    d = _oracle_diff_val(p.center, v.rep)
    return d is None or d > anchor.t


def _oracle_tree_key(p):
    """Depth-first order of the disk tree, keyed on Fraction terms."""
    terms = p.center.terms
    return tuple((1, -e, c) if c > 0 else (-1, e, c) for e, c in terms) + ((-1, p.t),)


def _oracle_flank(p, v):
    m = m_point(p)
    if v.at_infinity:
        k = math.floor(p.t * m)
        return TypeIIPoint(p.center, F(k - 1 if F(k, m) == p.t else k, m))
    k = math.ceil(p.t * m)
    return TypeIIPoint(v.rep, F(k + 1 if F(k, m) == p.t else k, m))


def _mixed_centres(rng, count):
    """Centres with exponent denominators 1-6 and coefficient
    denominators 1-5, many sharing a prefix with an earlier one: cut,
    extended, or with one coefficient changed."""
    pool = [PuiseuxPoly.zero()]
    while len(pool) < count:
        base = list(rng.choice(pool).terms)
        move = rng.randrange(3)
        if move == 0 and base:
            base = base[: rng.randrange(len(base))]
        elif move == 1 and base:
            i = rng.randrange(len(base))
            base[i] = (base[i][0], base[i][1] + F(rng.choice([-1, 1]), rng.randint(1, 5)))
        top = base[-1][0] if base else F(rng.randint(-3, 1), rng.randint(1, 3))
        for _ in range(rng.randint(0, 2)):
            top += F(rng.randint(1, 3), rng.choice([1, 2, 3, 4, 6]))
            base.append((top, F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 5))))
        pool.append(PuiseuxPoly(base))
    return pool


def _mixed_point(rng, centres):
    c = rng.choice(centres)
    e = c.terms[-1][0] if c.terms else F(rng.randint(-2, 2))
    # at, below or past the centre's last exponent
    return TypeIIPoint(c, e + F(rng.randint(-4, 6), rng.choice([1, 2, 3, 4, 6])))


def test_tree_layer_matches_the_fraction_oracles():
    from skewstab.vertexset import _join_closure, flank_in_direction

    rng = random.Random(1601)
    centres = _mixed_centres(rng, 60)
    assert len({c.N for c in centres}) >= 4 and len({c.den for c in centres}) >= 4
    deep = outside = 0
    for _ in range(3000):
        a, b = _mixed_point(rng, centres), _mixed_point(rng, centres)
        assert leq(a, b) == _oracle_leq(a, b), (str(a), str(b))
        assert join(a, b) == _oracle_join(a, b), (str(a), str(b))
        v = _oracle_diff_val(a.center, b.center)
        deep += v is not None and v > min(a.center.val_floor(), b.center.val_floor())
        for d in (direction_infinity(a), direction_at(a, b) if b != a else None):
            if d is not None:
                assert point_in_direction(d, b) == _oracle_in_direction(d, b)
        # a member of a class at a known to O(x^prec), prec just past a.t
        member = PuiseuxPoly(b.center.terms, precision=a.t + F(1, rng.randint(1, 6)))
        d = _oracle_diff_val(member, a.center)
        if d is not None and d < a.t:
            outside += 1
            with pytest.raises(ValueError):
                direction_to_class(a, member)
        else:
            rep = direction_to_class(a, member).rep
            assert rep == member.keep_through(a.t) and rep.precision is INF
        for d, _m in special_directions(a):
            assert flank_in_direction(a, d) == _oracle_flank(a, d), str(a)
    assert deep > 200 and 300 < outside < 2700
    for _ in range(300):
        pts = list({_mixed_point(rng, centres) for _ in range(rng.randint(1, 9))})
        order = _join_closure(pts)
        assert order == sorted(order, key=_oracle_tree_key)
        assert len(order) == len(set(order))
        assert set(order) == {_oracle_join(a, b) for a in pts for b in pts}
