"""Series arithmetic: frozen examples plus seeded property checks."""

import random
from fractions import Fraction as F

import pytest

from skewstab.errors import InsufficientPrecision, NotRepresentable
from skewstab.puiseux import (
    INF,
    DEFAULT_PRECISION,
    PuiseuxPoly,
    X,
    nth_root_fraction,
    reversion,
)


def P(*terms, precision=INF):
    return PuiseuxPoly(terms, precision)


# -- valuation and basic shape -------------------------------------------


def test_val_of_visible_leading_term():
    a = P((F(1, 2), F(-3, 2)), (F(2), F(1)))
    assert a.val() == F(1, 2)
    assert a.leading_coeff() == F(-3, 2)


def test_val_of_exact_zero_is_inf():
    assert PuiseuxPoly.zero().val() is INF


def test_val_of_truncated_zero_raises():
    with pytest.raises(InsufficientPrecision):
        PuiseuxPoly.zero(precision=F(5)).val()


def test_terms_are_merged_sorted_and_nonzero():
    a = P((F(2), F(1)), (F(0), F(3)), (F(2), F(-1)), (F(1), F(4)))
    assert a.terms == ((F(0), F(3)), (F(1), F(4)))


def test_terms_beyond_precision_are_dropped():
    a = P((F(0), F(1)), (F(7), F(2)), precision=F(5))
    assert a.terms == ((F(0), F(1)),)
    assert a.precision == F(5)


def test_ramification_index():
    assert PuiseuxPoly.zero().ramification_index() == 1
    assert P((F(1, 2), F(1))).ramification_index() == 2
    assert P((F(1, 2), F(1)), (F(2, 3), F(1))).ramification_index() == 6
    assert P((F(3), F(5))).ramification_index() == 1


# -- arithmetic with precision propagation --------------------------------


def test_add_takes_min_precision():
    a = P((F(0), F(1)), precision=F(3))
    b = P((F(1), F(2)), precision=F(5))
    c = a + b
    assert c.terms == ((F(0), F(1)), (F(1), F(2)))
    assert c.precision == F(3)


def test_cancellation_leaves_truncated_zero():
    a = P((F(1), F(1)), precision=F(2))
    d = a - a
    assert d.terms == ()
    assert d.precision == F(2)


def test_mul_precision_rule():
    # (x + O(x^4)) * (x^2 + O(x^3)) known mod x^min(4+2, 3+1) = x^4
    a = P((F(1), F(1)), precision=F(4))
    b = P((F(2), F(1)), precision=F(3))
    c = a * b
    assert c.terms == ((F(3), F(1)),)
    assert c.precision == F(4)


def test_pow_matches_repeated_mul():
    a = P((F(0), F(1)), (F(1, 2), F(2)), (F(1), F(-3)))
    assert a**3 == a * a * a
    assert (a**0).terms == ((F(0), F(1)),)


def test_inv_geometric_series():
    # 1/(1 - x) = 1 + x + x^2 + ... ; exact input defaults to 64 terms
    a = P((F(0), F(1)), (F(1), F(-1)))
    b = a.inv(precision=F(5))
    assert b.terms == tuple((F(k), F(1)) for k in range(5))
    assert b.precision == F(5)


def test_inv_monomial_is_exact():
    b = P((F(2), F(3))).inv()
    assert b.terms == ((F(-2), F(1, 3)),)
    assert b.precision is INF


def test_inv_tracks_input_precision():
    # a = x + x^2 + O(x^4): 1/a = x^-1 - 1 + x - ... known mod x^2
    a = P((F(1), F(1)), (F(2), F(1)), precision=F(4))
    b = a.inv()
    assert b.precision == F(2)
    assert b.terms == ((F(-1), F(1)), (F(0), F(-1)), (F(1), F(1)))


def test_inv_precision_stops_at_the_input():
    # 1 + x + O(x^2) fixes its inverse only to O(x^2); asking for more must
    # not label unknown terms as known, asking for less still truncates
    a = P((F(0), F(1)), (F(1), F(1)), precision=F(2))
    assert a.inv(precision=5) == a.inv() == P((F(0), F(1)), (F(1), F(-1)), precision=F(2))
    assert str(a.inv(precision=5)) == "1 - x + O(x^2)"
    assert a.inv(precision=1) == P((F(0), F(1)), precision=F(1))
    # x + x^2 + O(x^4): natural precision 4 - 2*1 = 2
    b = P((F(1), F(1)), (F(2), F(1)), precision=F(4))
    assert b.inv(precision=10) == b.inv()


def test_rational_power_precision_stops_at_the_input():
    # x + x^2 + O(x^3) fixes its square root only to O(x^(5/2)); a larger
    # requested precision must not label unknown terms as known
    a = P((F(1), F(1)), (F(2), F(1)), precision=F(3))
    root = a.rational_power(F(1, 2), precision=6)
    assert root == a.rational_power(F(1, 2))
    assert root.precision == F(5, 2)
    assert root.terms == ((F(1, 2), F(1)), (F(3, 2), F(1, 2)))


def test_inv_of_invisible_leading_term_raises():
    with pytest.raises(InsufficientPrecision):
        PuiseuxPoly.zero(precision=F(3)).inv()


def test_inv_oracle_product_is_one():
    rng = random.Random(11)
    for _ in range(40):
        terms = []
        v = F(rng.randint(-3, 3), rng.randint(1, 3))
        terms.append((v, F(rng.randint(1, 5))))
        for _ in range(rng.randint(0, 4)):
            e = v + F(rng.randint(1, 8), rng.randint(1, 3))
            terms.append((e, F(rng.randint(-5, 5))))
        a = PuiseuxPoly(terms)
        b = a.inv(precision=F(10))
        prod = a * b
        assert prod.coeff_at(0) == 1
        assert all(e == 0 for e, _ in prod.terms if e < prod.precision)


# -- truncation -----------------------------------------------------------


def test_truncate_sets_exact_precision():
    a = P((F(0), F(1)), (F(2), F(5)))
    t = a.truncate(F(3, 2))
    assert t.terms == ((F(0), F(1)),)
    assert t.precision == F(3, 2)


def test_truncate_is_idempotent():
    a = P((F(0), F(1)), (F(1), F(2)), (F(2), F(5)))
    assert a.truncate(F(3, 2)).truncate(F(3, 2)) == a.truncate(F(3, 2))


def test_truncate_beyond_precision_raises():
    a = P((F(0), F(1)), precision=F(2))
    with pytest.raises(ValueError):
        a.truncate(F(3))


# -- composition and reversion ---------------------------------------------


def test_compose_polynomial():
    # (x + x^2) o (2x) = 2x + 4x^2, exact
    a = P((F(1), F(1)), (F(2), F(1)))
    b = P((F(1), F(2)))
    c = a.compose(b)
    assert c.terms == ((F(1), F(2)), (F(2), F(4)))
    assert c.precision is INF


def test_compose_fractional_exponent_on_monomial():
    # x^(1/2) o x^2 = x, exact
    a = P((F(1, 2), F(1)))
    c = a.compose(P((F(2), F(1))))
    assert c.terms == ((F(1), F(1)),)


def test_compose_requires_positive_valuation():
    a = P((F(1), F(1)))
    with pytest.raises(ValueError):
        a.compose(P((F(0), F(1)), (F(1), F(1))))


def test_compose_fractional_exponent_needs_rational_root():
    # x^(1/2) o (2x^2) would need sqrt(2)
    a = P((F(1, 2), F(1)))
    with pytest.raises(NotRepresentable):
        a.compose(P((F(2), F(2))))


def test_reversion_simple_germ():
    # phi1 = x + x^2: g = x - x^2 + 2x^3 - 5x^4 + ... (Catalan signs)
    g = reversion(P((F(1), F(1)), (F(2), F(1))), F(6))
    assert g.coeff_at(1) == 1
    assert g.coeff_at(2) == -1
    assert g.coeff_at(3) == 2
    assert g.coeff_at(4) == -5
    assert g.coeff_at(5) == 14


def test_reversion_square_germ():
    # phi1 = x^2: g = x^(1/2) exactly
    g = reversion(P((F(2), F(1))), F(8))
    assert g.coeff_at(F(1, 2)) == 1
    assert all(c == 0 for e, c in g.terms if e != F(1, 2))


def test_reversion_needs_rational_root_of_lead():
    with pytest.raises(NotRepresentable):
        reversion(P((F(2), F(2))), F(4))


def test_reversion_round_trip_random_germs():
    rng = random.Random(23)
    for _ in range(12):
        n = rng.choice([1, 2, 3])
        lam_base = rng.choice([1, 2, 3, -2])
        lam = F(lam_base) ** n  # guarantees a rational n-th root
        terms = [(F(n), lam)]
        for j in range(1, rng.randint(1, 4) + 1):
            terms.append((F(n + j), F(rng.randint(-4, 4))))
        phi1 = PuiseuxPoly(terms)
        g = reversion(phi1, F(9))
        back = g.compose(phi1, precision=F(9))
        assert back.agrees_with(X.truncate_soft(F(9)))
        # exponents land in (1/n)Z
        assert all((e * n).denominator == 1 for e, _ in g.terms)


# -- ultrametric laws (seeded) ----------------------------------------------


def _random_series(rng, allow_zero=True):
    if allow_zero and rng.random() < 0.1:
        return PuiseuxPoly.zero()
    k = rng.randint(1, 4)
    terms = []
    e = F(rng.randint(-4, 4), rng.randint(1, 4))
    for _ in range(k):
        terms.append((e, F(rng.randint(-6, 6))))
        e += F(rng.randint(1, 6), rng.randint(1, 4))
    return PuiseuxPoly(terms)


def test_valuation_ultrametric_laws():
    rng = random.Random(7)
    for _ in range(300):
        a = _random_series(rng)
        b = _random_series(rng)
        va, vb = a.val(), b.val()
        s = a + b
        p = a * b
        if va is INF or vb is INF:
            assert p.val() is INF
        else:
            assert p.val() == va + vb
        assert s.val() >= min(va, vb)
        if va != vb:
            assert s.val() == min(va, vb)


def test_default_precision_constant():
    assert DEFAULT_PRECISION == F(64)


def test_nth_root_fraction():
    assert nth_root_fraction(F(4, 9), 2) == F(2, 3)
    assert nth_root_fraction(F(-8), 3) == F(-2)
    assert nth_root_fraction(F(2), 2) is None
    assert nth_root_fraction(F(-4), 2) is None
