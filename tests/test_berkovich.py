"""Tree structure, canonical forms, multiplicities."""

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
