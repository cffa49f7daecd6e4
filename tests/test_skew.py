"""Skew-product local models: pushforward, reduction, critical points."""

import math
import random
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest

from mapdefs import bundled_links
from skewstab import puiseux, skew
from skewstab.berkovich import TypeIIPoint, direction_at, direction_infinity, direction_to_class
from skewstab.errors import DegenerateImage, InsufficientPrecision, NotRepresentable, SkewstabError
from skewstab.parsing import parse_definition
from skewstab.puiseux import DEFAULT_PRECISION, INF, PuiseuxPoly, X, reversion
from skewstab.roots import poly_eval
from skewstab.skew import (
    BaseGerm,
    Chain,
    CriticalLocus,
    ReducedMap,
    SkewLocal,
    critical_points,
    critical_points_rational,
    folding_tree,
    gauss_val,
    has_good_reduction,
    pushforward,
    pushforward_direction,
    reduction_mod_x,
    shift_poly,
)

ZERO = PuiseuxPoly.zero()
ONE = PuiseuxPoly.const(1)
DATA = Path(__file__).with_name("data")


def S(*terms):
    return PuiseuxPoly(terms)


def Z(series, t):
    return TypeIIPoint(series, t)


def thm6_map():
    # phi1 = x^2, phi2 = x^4*y^-3 + y^3 = (x^4 + y^6)/y^3
    base = BaseGerm(S((F(2), F(1))))
    num = [S((F(4), F(1)))] + [ZERO] * 5 + [ONE]
    den = [ZERO, ZERO, ZERO, ONE]
    return SkewLocal(base, num, den, label="thm6")


def xy2_map():
    # phi1 = x, phi2 = x*y^2
    return SkewLocal(BaseGerm(X), [ZERO, ZERO, X], [ONE], label="xy2")


def square_map():
    # phi1 = x, phi2 = y^2
    return SkewLocal(BaseGerm(X), [ZERO, ZERO, ONE], [ONE], label="square")


# -- frozen pushforward values --------------------------------------------------


def test_thm6_radius_formula_on_zero_ray():
    s = thm6_map()
    for t, expected in [
        (F(0), F(0)),
        (F(1, 3), F(1, 2)),
        (F(2, 3), F(1)),
        (F(1), F(1, 2)),
        (F(4, 3), F(0)),
    ]:
        img = pushforward(s, Z(0, t))
        assert img == Z(0, expected), f"t={t}"


def test_xy2_pushforward_is_affine_in_t():
    s = xy2_map()
    for t in (F(0), F(1, 2), F(1), F(7, 3)):
        assert pushforward(s, Z(0, t)) == Z(0, 1 + 2 * t)


def test_square_map_fixes_unit_translate():
    s = square_map()
    img = pushforward(s, Z(ONE, 1))
    assert img == Z(ONE, 1)


def test_square_map_doubles_exponent_on_zero_ray():
    s = square_map()
    assert pushforward(s, Z(0, F(3, 4))) == Z(0, F(3, 2))


def test_pushforward_gauss_is_gauss_for_good_reduction():
    assert pushforward(square_map(), Z(0, 0)) == Z(0, 0)


def test_pushforward_fractional_centre():
    # phi2 = y^2 sends zeta(x^(1/2), 1) to zeta(x, 2): (x^(1/2)+u)^2 has
    # cross term 2x^(1/2)u of size |x|^(1/2+1), beating u^2 at |x|^2
    s = square_map()
    img = pushforward(s, Z(S((F(1, 2), F(1))), 1))
    assert img == Z(S((F(1), F(1))), F(3, 2))


# -- direction images -------------------------------------------------------------


def test_direction_toward_zero_at_gauss():
    s = thm6_map()
    g = Z(0, 0)
    v = direction_to_class(g, ZERO)
    img_v = pushforward_direction(s, g, v)
    assert not img_v.at_infinity
    assert img_v.rep.terms == ()


def test_direction_folds_above_breakpoint():
    # above t = 2/3 the radius map decreases, so the infinity direction
    # at zeta(0,1) maps toward zero at the image
    s = thm6_map()
    p = Z(0, 1)
    v = direction_infinity(p)
    img_v = pushforward_direction(s, p, v)
    assert not img_v.at_infinity
    assert img_v.rep.terms == ()


def test_direction_at_infinity_preserved_by_xy2():
    s = xy2_map()
    p = Z(0, 1)
    img_v = pushforward_direction(s, p, direction_infinity(p))
    assert img_v.at_infinity


def test_a_direction_images_where_the_points_just_inside_it_go():
    # on a folding ray the radius turns at a crossing: thm6 lifts
    # zeta(0, t) to 3t/2 below t = 2/3 and lowers it to 2 - 3t/2 past it,
    # so zeta(0, 1/2) towards 0 images towards 0 at zeta(0, 3/4), though
    # points a distance 1 or 1/2 inside image towards infinity
    eps = F(1, 2**20)
    wrong = []
    for name, link in bundled_links():
        for k in range(-36, 48):
            b = Z(0, F(k, 12))
            image = pushforward(link, b)
            for v, near in (
                (direction_to_class(b, ZERO), Z(0, b.t + eps)),
                (direction_infinity(b), Z(0, b.t - eps)),
            ):
                want = direction_at(image, pushforward(link, near))
                if pushforward_direction(link, b, v) != want:
                    wrong.append(f"{name}: {v}")
    assert not wrong


# -- seminorm identity oracle ------------------------------------------------------
#
# For f = y - w with w a function of the image base coordinate, the image
# seminorm satisfies |f|_image = |phi2 - w o phi1|_source^(1/n).  This
# checks the pushforward without using candidate ratios or reversion.


def _seminorm_identity_holds(s, p, w):
    img = pushforward(s, p)
    diff = img.center - w
    lhs = min(diff.val(), img.t) if diff.terms else img.t
    wpull = w.compose(s.base.series) if w.terms else ZERO
    P = shift_poly(list(s.num), p.center)
    Q = shift_poly(list(s.den), p.center)
    top = [
        (P[i] if i < len(P) else ZERO) - wpull * (Q[i] if i < len(Q) else ZERO)
        for i in range(max(len(P), len(Q)))
    ]
    rhs = F(1, s.base.n) * (gauss_val(top, p.t) - gauss_val(Q, p.t))
    return lhs == rhs


def test_seminorm_identity_thm6():
    s = thm6_map()
    rng = random.Random(401)
    pts = [Z(0, F(1, 3)), Z(0, 1), Z(S((F(1, 2), F(1))), F(5, 4)), Z(ONE, F(1, 2))]
    for p in pts:
        img = pushforward(s, p)
        probes = [
            ZERO,
            PuiseuxPoly.const(1),
            PuiseuxPoly.const(-2),
            img.center + PuiseuxPoly.monomial(1, img.t + 1),
            img.center + PuiseuxPoly.monomial(3, img.t - F(1, 2)),
        ]
        for w in probes:
            assert _seminorm_identity_holds(s, p, w), f"p={p}, w={w}"


def test_seminorm_identity_random_points_and_probes():
    rng = random.Random(409)
    maps = [thm6_map(), xy2_map(), square_map()]
    for s in maps:
        for _ in range(20):
            e = F(rng.randint(0, 3), rng.choice([1, 2]))
            terms = [(e, F(rng.randint(-3, 3)))] if rng.random() < 0.7 else []
            t = e + F(rng.randint(1, 4), rng.choice([1, 2, 3]))
            p = TypeIIPoint(PuiseuxPoly(terms), t)
            img = pushforward(s, p)
            for k in range(5):
                u = img.t + F(rng.randint(-2, 2), rng.choice([1, 2, 3]))
                w = img.center + PuiseuxPoly.monomial(rng.randint(1, 4), u)
                assert _seminorm_identity_holds(s, p, w)


# -- classical disk oracle ----------------------------------------------------------
#
# Probe the boundary sphere of the source disk.  For classical b in a
# generic residue class of the sphere, |phi2(b) - centre-pullback| equals
# the image radius exactly; only classes containing a zero or pole of the
# test function can deviate, and there are at most 2*rdeg of those.


def _classical_image_exponent(s, b, img):
    value = s.phi2_eval(b, precision=F(32))
    need = max(F(1), abs(img.t) + 2) * s.base.n
    ghat = img.center.compose(s.base.series, precision=need) if img.center.terms else ZERO
    diff = value - ghat
    if not diff.terms:
        return None  # indistinguishable from the centre at this precision
    return diff.val() * F(1, s.base.n)


def test_classical_sphere_probes_see_the_image_radius():
    rng = random.Random(419)
    maps = [thm6_map(), xy2_map(), square_map()]
    for s in maps:
        for trial in range(6):
            e = F(rng.randint(0, 2), rng.choice([1, 2]))
            terms = [(e, F(rng.randint(1, 3)))] if rng.random() < 0.5 else []
            t = e + F(rng.randint(1, 3), rng.choice([1, 2]))
            p = TypeIIPoint(PuiseuxPoly(terms), t)
            img = pushforward(s, p)
            exact = 0
            below = 0
            total = 0
            for k in range(50):
                c = F(rng.randint(1, 500))
                b = p.center + PuiseuxPoly.monomial(c, p.t)
                got = _classical_image_exponent(s, b, img)
                if got is None:
                    continue
                total += 1
                if got == img.t:
                    exact += 1
                elif got < img.t:
                    below += 1
            assert exact >= 2, f"{s.label}: radius not witnessed twice"
            assert exact * 2 > total, f"{s.label}: radius not the generic value"
            assert below <= s.rdeg, f"{s.label}: too many probes beat the radius"


# -- reduction ------------------------------------------------------------------------


def test_square_map_has_good_reduction():
    assert has_good_reduction(square_map())


def test_thm6_fibre_map_reduces_badly():
    # over a simple base stand-in: same fibre map, base x
    s = SkewLocal(BaseGerm(X), list(thm6_map().num), list(thm6_map().den))
    red = reduction_mod_x(s)
    assert red.degree == 3  # y^6/y^3 collapses to y^3
    assert not has_good_reduction(s)


def test_xy2_reduces_to_constant():
    red = reduction_mod_x(xy2_map())
    assert red.degree == 0
    assert not has_good_reduction(xy2_map())


def test_reduced_map_orbits():
    red = reduction_mod_x(square_map())
    assert red.apply(F(2)) == F(4)
    assert red.apply(None) is None
    assert red.apply(F(0)) == F(0)


def test_link_and_reduced_map_strings_wrap_only_sums():
    text = resources.files("skewstab.fixtures").joinpath("goodred.skew").read_text()
    link = parse_definition(text).chain.links[0]
    assert str(link) == "[goodred[0]] phi1 = x, phi2 = y^2 / (1)"
    assert str(reduction_mod_x(link)) == "y^2 / (1)"
    assert str(thm6_map()) == "[thm6] phi1 = x^2, phi2 = ((x^4) + y^6) / y^3"
    assert str(ReducedMap((F(1), F(0), F(2)), (F(0), F(3)))) == "((1) + (2)*y^2) / ((3)*y)"


def test_reduction_requires_simple_base():
    with pytest.raises(ValueError):
        reduction_mod_x(thm6_map())


# -- critical points -----------------------------------------------------------------


def test_critical_points_of_base_cubic():
    # y^2 - y^3 as a fibre map: critical at 0, 2/3, infinity(2)
    locus = critical_points_rational([ZERO, ZERO, ONE, PuiseuxPoly.const(-1)], [ONE])
    finite = sorted(
        (r.series.terms, r.multiplicity) for r in locus.roots
    )
    assert finite == [((), 1), (((F(0), F(2, 3)),), 1)]
    assert locus.descriptors == ()
    assert locus.infinity_multiplicity == 2
    assert locus.total() == 4


def test_critical_points_thm6():
    locus = critical_points(thm6_map())
    assert locus.total() == 10  # 2*6 - 2
    series = sorted(r.series.terms for r in locus.roots)
    assert ((F(2, 3), F(1)),) in series and ((F(2, 3), F(-1)),) in series
    zero_root = [r for r in locus.roots if not r.series.terms]
    assert zero_root and zero_root[0].multiplicity == 2
    assert sum(d.degree for d in locus.descriptors) == 4
    assert all(d.valuation == F(2, 3) for d in locus.descriptors)
    assert locus.infinity_multiplicity == 2


def test_degenerate_fibre_map_rejected():
    # (x^2 + x*y)/(x + y) is constant x
    with pytest.raises(ValueError):
        SkewLocal(
            BaseGerm(X),
            [S((F(2), F(1))), S((F(1), F(1)))],
            [S((F(1), F(1))), ONE],
        )


# -- folding tree -------------------------------------------------------------------


def test_folding_tree_empty_for_degree_one():
    s = SkewLocal(BaseGerm(X), [ZERO, X], [ONE])
    assert folding_tree(s) == []


def test_folding_tree_thm6_contains_critical_rays():
    pts = folding_tree(thm6_map())
    assert pts, "expected a nonempty folding tree"
    centres = {p.center.terms for p in pts}
    assert ((F(2, 3), F(1)),) in centres
    assert any(p.t < 0 for p in pts)  # the ray to infinity


# -- chains --------------------------------------------------------------------------


def test_chain_indexing_and_wrap():
    s = square_map()
    c = Chain([s, s, s], period=2, tail=1)
    assert c.next_fibre(0) == 1
    assert c.next_fibre(1) == 2
    assert c.next_fibre(2) == 1  # wraps to the cycle start


def test_chain_orbit_length_and_fibres():
    c = Chain([xy2_map()], period=1, tail=0)
    orb = c.orbit(0, Z(0, 0), 3)
    assert [t for _, t in [(f, p.t) for f, p in orb]] == [0, 1, 3, 7]


# -- multiplicity divisibility for simple links ---------------------------------------


def test_m_and_g_divide_under_simple_links():
    from skewstab.berkovich import g_point, m_point

    rng = random.Random(431)
    maps = [xy2_map(), square_map()]
    for s in maps:
        for _ in range(100):
            e = F(rng.randint(0, 3), rng.choice([1, 2, 3, 4]))
            terms = [(e, F(rng.randint(-3, 3)))] if rng.random() < 0.6 else []
            t = e + F(rng.randint(1, 5), rng.choice([1, 2, 3, 4]))
            p = TypeIIPoint(PuiseuxPoly(terms), t)
            img = pushforward(s, p)
            assert m_point(p) % m_point(img) == 0
            assert g_point(p) % g_point(img) == 0


# -- demand-driven precision against the fixed-precision rule ------------------------
#
# _oracle_pushforward is pushforward as it was when every candidate ratio
# was expanded to DEFAULT_PRECISION orders and the base germ was reversed
# to max(64, (|T| + 2) * n), with no regard to the image radius.  The
# demand-driven pushforward must give the same image point, or raise the
# same exception type.  ``reversion_precision`` replaces the reversion
# rule for germs whose reversion at 64 takes too long for a test (about
# 42 s for x^2 - x^3).  ``inverses`` caches the reversions and the
# denominators' inverses across calls: both links below share the
# denominator y^3, and one inverse of a two-term series with gap 1/6
# takes seconds at 64 orders.


def _oracle_pushforward(s, p, inverses, reversion_precision=None):
    t = p.t
    P = shift_poly(list(s.num), p.center)
    Q = shift_poly(list(s.den), p.center)
    vQ = gauss_val(Q, t)
    if vQ is INF:
        raise ValueError("denominator vanished identically after shift")
    candidates = []
    seen = set()
    for i, qi in enumerate(Q):
        if not qi.terms:
            if qi.precision is not INF:
                raise InsufficientPrecision("candidate ratio blocked")
            continue
        pi = P[i] if i < len(P) else ZERO
        if pi.terms and qi not in inverses:
            inverses[qi] = qi.inv()
        w = ZERO if not pi.terms else pi * inverses[qi]
        key = (w.terms, w.precision)
        if key not in seen:
            seen.add(key)
            candidates.append((w, pi, qi))
    best = None
    best_s = None
    for w, pi, qi in candidates:
        diff = [
            (P[i] if i < len(P) else ZERO) - w * (Q[i] if i < len(Q) else ZERO)
            for i in range(max(len(P), len(Q)))
        ]
        v = gauss_val(diff, t)
        if v is INF:
            raise DegenerateImage("constant on the disk")
        sw = v - vQ
        if best_s is None or sw > best_s:
            best_s = sw
            best = (w, pi, qi)
    T = F(1, s.base.n) * best_s
    w, pi, qi = best
    if w.terms and w.precision is not INF and w.precision <= best_s:
        w = pi * qi.inv(precision=best_s + 2 - pi.val_floor() + qi.val_floor())
    center = _oracle_transport_center(s.base, w, T, inverses, reversion_precision)
    return TypeIIPoint(center, T)


def _oracle_transport_center(base, w, T, inverses, reversion_precision):
    if not w.terms:
        return ZERO
    need = reversion_precision or max(DEFAULT_PRECISION, (abs(T) + 2) * base.n)
    key = (base.series, need)
    if key not in inverses:
        inverses[key] = reversion(base.series, need)
    composed = w.compose(inverses[key], precision=T + 1)
    if composed.precision is not INF and composed.precision < T:
        raise InsufficientPrecision("transported centre lost too much precision")
    return composed


def _outcome(push, *args):
    try:
        return push(*args)
    except SkewstabError as exc:
        return type(exc)


def _fixture_links(name):
    text = resources.files("skewstab.fixtures").joinpath(f"{name}.skew").read_text()
    return parse_definition(text).chain.links


def _shaped_point(rng, den, gap=None):
    """c1*x^e1 (+ c2*x^(e1 + gap)), e1 in [-2, 2] of exact denominator den,
    radius up to 2 above the last centre exponent."""
    coefs = (-3, -2, -1, 1, 2, 3)
    e1 = F(rng.choice([k for k in range(-2 * den, 2 * den + 1) if math.gcd(k, den) == 1]), den)
    center = PuiseuxPoly.monomial(rng.choice(coefs), e1)
    top = e1
    if gap is not None:
        top = e1 + gap
        center = center + PuiseuxPoly.monomial(rng.choice(coefs), top)
    t_den = rng.randint(1, 4)
    return TypeIIPoint(center, F(math.floor(top * t_den) + rng.randint(1, 2 * t_den), t_den))


SHAPES = [(den, None) for den in (1, 2, 3, 4)] + [
    (1, F(2)), (2, F(1)), (4, F(1, 2)), (3, F(1, 6)),
]


def test_pushforward_matches_fixed_precision_oracle():
    links = {name: _fixture_links(name)[0] for name in ("thmB", "thm6")}
    rng = random.Random(503)
    inverses = {}
    for den, gap in SHAPES:
        p = _shaped_point(rng, den, gap)
        for name, s in links.items():
            got = _outcome(pushforward, s, p)
            assert got == _outcome(_oracle_pushforward, s, p, inverses), f"{name}: {p}"


def test_pushforward_matches_oracle_over_a_ramified_non_monomial_germ():
    # thmB's fibre 1 has base germ x^2 - x^3
    s = _fixture_links("thmB")[1]
    rng = random.Random(509)
    inverses = {}
    for den, gap in SHAPES[:6]:
        p = _shaped_point(rng, den, gap)
        got = _outcome(pushforward, s, p)
        assert got == _outcome(_oracle_pushforward, s, p, inverses, F(16)), f"{p}"


def _told(push, *args):
    """The image, or the type and message of the SkewstabError raised."""
    try:
        return push(*args)
    except SkewstabError as exc:
        return type(exc), str(exc)


def test_pushforward_matches_the_oracle_over_monomial_germs():
    # lam*x^n with lam = 4, -1, 8 and 2^1100: the inverse germ is one slot,
    # so every piece of the transport is one slot.  A fractional exponent
    # needs a root of 1/2 under 4x^2 and 8x^3 and an even root of -1 under
    # -x^3, and 2^1100 has no rational cube root, so no inverse germ
    num, den = thm6_map().num, thm6_map().den
    rng = random.Random(3103)
    outcomes = set()
    for lam, n in ((4, 2), (-1, 3), (8, 3), (2**1100, 3)):
        s = SkewLocal(BaseGerm(S((F(n), F(lam)))), num, den)
        inverses = {}
        for den_, gap in SHAPES:
            p = _shaped_point(rng, den_, gap)
            got = _told(pushforward, s, p)
            assert got == _told(_oracle_pushforward, s, p, inverses), f"{lam}*x^{n}: {p}"
            outcomes.add(got if isinstance(got, tuple) else TypeIIPoint)
    assert TypeIIPoint in outcomes
    assert (NotRepresentable, "1/2 has no rational 2-th root") in outcomes
    assert (NotRepresentable, "1/2 has no rational 6-th root") in outcomes
    assert any(o[1].startswith("reversion needs a rational 3-th root of ") for o in outcomes if o is not TypeIIPoint)


def test_push_through_a_germ_whose_inverse_is_rational_only_below_five_halves():
    # phi1 = 2x - x^2 + 3x^(5/2) - x^3/2 has the inverse x/2 + x^2/8 +
    # O(x^(5/2)), and its x^(5/2) term needs a square root of 1/2; phi2 =
    # y^2.  A transport that reads the inverse below 5/2 has an image, one
    # that reads it further raises.  It raised at every depth while the
    # reversion was a Newton iteration run past its target.
    germ = BaseGerm(S((F(1), F(2)), (F(2), F(-1)), (F(5, 2), F(3)), (F(3), F(-1, 2))))
    s = SkewLocal(germ, [ZERO, ZERO, ONE], [ONE])
    assert pushforward(s, Z(X, F(5, 4))) == Z(S((F(2), F(1, 4))), F(9, 4))
    assert pushforward(s, Z(S((F(1, 2), F(1))), F(3, 4))) == Z(S((F(1), F(1, 2))), F(5, 4))
    with pytest.raises(NotRepresentable, match="^1/2 has no rational 2-th root$"):
        pushforward(s, Z(X, F(3)))


def test_monomial_germs_push_with_no_series_product(monkeypatch):
    # a one-term centre over thm6's x^2, p2's -x and w3's x: the ratio is
    # over an exact monomial, the inverse germ is one slot, and the
    # transport respreads the centre's slots with their root powers, with
    # no series product and no Miller run, in reversion or compose
    assert not hasattr(puiseux, "_reversion_simple")
    pushes = [
        (resources.files("skewstab.fixtures") / "thm6.skew", 0, S((F(-1, 2), F(-2))), F(2), Z(S((F(-3, 4), F(-8))), F(1, 2))),
        (DATA / "p2.skew", 0, S((F(1, 3), F(1))), F(2), Z(S((F(2, 3), F(1)), (F(1), F(-1))), F(7, 3))),
        (DATA / "p2.skew", 1, S((F(1, 3), F(-2))), F(1), Z(S((F(1), F(8))), F(5, 3))),
        (DATA / "w3.skew", 0, S((F(1, 3), F(1))), F(3), Z(S((F(1), F(1)), (F(4, 3), F(1))), F(11, 3))),
    ]
    # cold germs, whose reversions run in the pushes below
    pushes = [(parse_definition(path.read_text()).chain.links[j], Z(c, t), image) for path, j, c, t, image in pushes]
    calls = []
    mul, unit = PuiseuxPoly.__mul__, puiseux._unit_power
    monkeypatch.setattr(PuiseuxPoly, "__mul__", lambda a, b: calls.append("mul") or mul(a, b))
    monkeypatch.setattr(puiseux, "_unit_power", lambda *args: calls.append("unit") or unit(*args))
    for s, p, image in pushes:
        assert pushforward(s, p) == image
    assert calls == []


def test_ratio_known_only_to_the_image_radius_is_expanded_further():
    # (1 + y^2)/y over base x at centres a with val(a) < -2: the winning
    # ratio P_0/Q_0 = (1 + a^2)/a must be known past the radius r.  Its
    # inverse 1/Q_0 is read to O(x^(r - val P_0 + 1)); a precision offset
    # from val Q_0 instead, as in r + 2 + val(a), falls short of r here.
    s = SkewLocal(BaseGerm(X), [ONE, ZERO, ONE], [ZERO, ONE])
    for centre, t in [
        (S((F(-7, 2), F(-2)), (F(-5, 2), F(2))), F(3, 2)),
        (S((F(-3), F(2)), (F(-2), F(2))), F(-3, 2)),
        (S((F(-5, 2), F(-3)), (F(-13, 6), F(3))), F(-1, 6)),
    ]:
        p = Z(centre, t)
        got = _outcome(pushforward, s, p)
        assert isinstance(got, TypeIIPoint), f"{p}: {got}"
        assert got == _oracle_pushforward(s, p, {})


def test_deep_disk_transport_has_the_closed_form():
    # y^2 over base x at centre x^(-1): the image is zeta(x^(-2), t - 1) at
    # every depth, which needs the inverse germ to O(x^(t + 3)); the oracle's
    # fixed rule reads it to max(64, t + 1) and fails from t = 63
    s = square_map()
    centre = S((F(-1), F(1)))
    for t in (F(60), F(62), F(63), F(200)):
        p = Z(centre, t)
        got = pushforward(s, p)
        assert got == Z(S((F(-2), F(1))), t - 1), f"{p}"
        if t < 63:
            assert got == _oracle_pushforward(s, p, {}), f"{p}"


def _unchecked_link(base, num, den):
    # SkewLocal refuses a fibre map constant in y; build one without the check
    s = object.__new__(SkewLocal)
    for slot, value in (
        ("base", base), ("num", tuple(num)), ("den", tuple(den)), ("label", ""),
        ("_poles", None), ("_crit", None), ("_zeros", None), ("_reduction", None),
        ("_tables", {}), ("_pushes", {}), ("_images", {}),
    ):
        object.__setattr__(s, slot, value)
    return s


def test_constant_fibre_map_is_degenerate_as_before():
    # (x^2 + x*y) / (x + y) = x: at the centre 0 the denominator's
    # coefficients are monomials, whose ratio is exact.  Off it, x + a is
    # not, and the oracle's expanded ratio leaves the constant undecided,
    # while the exact lines of D_k = Q_k*P - P_k*Q are all zero.
    s = _unchecked_link(BaseGerm(X), [S((F(2), F(1))), X], [X, ONE])
    for p, oracle in [
        (Z(0, 1), DegenerateImage),
        (Z(S((F(1, 2), F(1))), 1), InsufficientPrecision),
        (Z(S((F(0), F(2)), (F(1, 2), F(1))), F(3, 2)), InsufficientPrecision),
    ]:
        assert _outcome(_oracle_pushforward, s, p, {}) is oracle
        assert _outcome(pushforward, s, p) is DegenerateImage


def _pairwise_proportional(num, den):
    """The definition: num_i*den_j == num_j*den_i for every pair i < j,
    and False when a coefficient is truncated."""
    if any(c.precision is not INF for c in [*num, *den]):
        return False
    n = max(len(num), len(den))
    num, den = [*num, *[ZERO] * (n - len(num))], [*den, *[ZERO] * (n - len(den))]
    return all(num[i] * den[j] == num[j] * den[i] for i in range(n) for j in range(i + 1, n))


def test_proportional_matches_the_pairwise_definition():
    # zero patterns that differ, pairs that differ by a series factor,
    # the same with one entry changed or truncated, and unrelated pairs
    rng = random.Random(2903)
    half = S((F(1, 2), F(1)))
    pairs = [
        ([ZERO, ONE], [ONE, ZERO]),
        ([ONE, ZERO], [ZERO, ONE]),
        ([ZERO, X], [ZERO, ONE]),
        ([ZERO, ZERO, X + half], [ZERO, ZERO, ONE]),
        ([X, ONE], [X * X, X]),
        ([ONE], [ONE, ONE]),
        ([X, ONE.truncate(4)], [X, ONE]),
    ]
    for _ in range(400):
        choices = [ZERO, ZERO, ONE, X, half, S((F(-1), F(2)), (F(1, 3), F(-1)))]
        den = [rng.choice(choices) for _ in range(rng.randint(1, 4))]
        r = rng.random()
        if r < 0.6:
            factor = rng.choice([ONE, X, S((F(0), F(2)), (F(1, 2), F(1))), S((F(-2, 3), F(-3)))])
            num = [factor * c for c in den]
            if r < 0.2:
                i = rng.randrange(len(num))
                num[i] = rng.choice([num[i] + X, ZERO, ONE, num[i].truncate(3)])
            if rng.random() < 0.3:
                num.append(ZERO)
        else:
            num = [rng.choice([ZERO, ONE, X, half]) for _ in range(rng.randint(1, 4))]
        pairs.append((num, den) if rng.random() < 0.5 else (den, num))
    seen = {True: 0, False: 0}
    for num, den in pairs:
        want = _pairwise_proportional(num, den)
        assert skew._proportional(num, den) is want, f"{num} / {den}"
        seen[want] += 1
    assert min(seen.values()) > 100, seen


def _mixed_coefficient(rng):
    """An exact zero, a truncated zero, or one or two small terms, at
    times truncated."""
    r = rng.random()
    if r < 0.3:
        return ZERO
    if r < 0.45:
        return PuiseuxPoly.zero(F(rng.randint(1, 8), rng.choice([1, 2])))
    e = F(rng.randint(0, 2))
    terms = [(e, F(rng.choice([-2, -1, 1, 2, 3])))]
    if rng.random() < 0.4:
        terms.append((e + rng.randint(1, 2), F(rng.choice([-1, 1, 2]))))
    c = PuiseuxPoly(terms)
    return c.truncate(terms[-1][0] + rng.randint(1, 3)) if rng.random() < 0.3 else c


def _mixed_link(rng):
    while True:
        deg = rng.randint(1, 3)
        num = [_mixed_coefficient(rng) for _ in range(deg + 1)]
        den = [_mixed_coefficient(rng) for _ in range(rng.randint(1, deg + 1))]
        if rng.random() < 0.5:
            num[-1] = ONE
        base = BaseGerm(X if rng.random() < 0.7 else S((F(2), F(1))))
        try:
            return SkewLocal(base, num, den)
        except ValueError:  # zero or constant in y
            continue


def _mixed_point(rng):
    terms = [(F(0), F(rng.choice([-1, 1, 2])))] if rng.random() < 0.75 else []
    if rng.random() < 0.5:
        terms.append((F(rng.randint(1, 3), rng.choice([1, 2])), F(rng.choice([-1, 1, 3]))))
    top = terms[-1][0] if terms else F(0)
    return Z(PuiseuxPoly(terms), top + F(rng.randint(-2, 6), rng.choice([1, 2, 3])))


def test_pushforward_matches_the_oracle_on_mixed_zero_coefficients():
    # fibre maps whose coefficients mix exact zeros, truncated zeros and
    # truncated terms; shifting to the centre spreads a truncated zero of
    # the numerator into the P_k.  Wherever the oracle returns a point,
    # pushforward returns the same point, and where it raises, pushforward
    # raises the same exception type.  The first push at a centre builds
    # the link's push table there; a second push of the point, and one at
    # a larger radius on the same centre, read it and meet the oracle
    # too.  A table whose build is blocked by a truncated Q_k is not kept,
    # and every push there raises the same InsufficientPrecision.
    rng = random.Random(601)
    points = truncated_pk = blocked = q_failures = 0
    for _ in range(250):
        s = _mixed_link(rng)
        for _ in range(4):
            p = _mixed_point(rng)
            got = _outcome(pushforward, s, p)
            assert got == _outcome(_oracle_pushforward, s, p, {}), f"{s} at {p}"
            deeper = Z(p.center, p.t + F(1, 2))
            if p.center in s._tables:
                assert _outcome(pushforward, s, p) == got, f"{s} at {p}"
                got_deeper = _outcome(pushforward, s, deeper)
                assert got_deeper == _outcome(_oracle_pushforward, s, deeper, {}), f"{s} at {deeper}"
            else:
                blocked += 1
                failures = []
                for q in (p, p, deeper, deeper):
                    with pytest.raises(InsufficientPrecision) as exc:
                        pushforward(s, q)
                    failures.append(str(exc.value))
                assert failures[0] == failures[1] and failures[2] == failures[3]
                assert p.center not in s._tables
                # vG(Q) is checked before the blocked candidate
                try:
                    gauss_val(shift_poly(list(s.den), p.center), p.t)
                    expected = "candidate ratio at y-degree"
                except InsufficientPrecision as exc:
                    expected, q_failures = str(exc), q_failures + 1
                assert failures[0].startswith(expected)
            if isinstance(got, TypeIIPoint):
                points += 1
                table = s.push_table(p.center)
                ratios = [table.ratio(j) for j in range(len(table.cands))]
                truncated_pk += any(not pk and not pk.is_exact_zero for pk, _ in ratios)
    assert (points, truncated_pk, blocked, q_failures) == (603, 51, 174, 39)


# -- the integer table build against the series build ---------------------------
#
# _oracle_shift_poly and _oracle_candidate_lines are the Taylor shift and
# the candidate lines as they were computed on series: the shift by series
# products, scalings and sums, and each D_ki = P_i*Q_k - P_k*Q_i as a full
# product difference, read by ``gauss_lines``.  The push table's build on
# integer slots must give the same coefficients, lines and bounds.


def _oracle_shift_poly(coeffs, a):
    if a.is_exact_zero:
        return list(coeffs)
    d = len(coeffs) - 1
    out = [ZERO] * (d + 1)
    apow = [ONE]
    for _ in range(d):
        apow.append(apow[-1] * a)
    for j, cj in enumerate(coeffs):
        if cj.is_exact_zero:
            continue
        for i in range(j, -1, -1):
            out[i] = out[i] + cj.scale(math.comb(j, i)) * apow[j - i]
    return out


def _oracle_candidate_lines(P, Q):
    """Q's lines and each candidate's (P_k, Q_k, lines, bounds), lines
    and bounds as (i, u) Fraction pairs lowered by val Q_k."""
    n = max(len(P), len(Q))
    P = list(P) + [ZERO] * (n - len(P))
    Q = list(Q) + [ZERO] * (n - len(Q))
    cands = []
    for k, qk in enumerate(Q):
        if not qk:
            if qk.precision is not INF:
                raise InsufficientPrecision(
                    f"candidate ratio at y-degree {k} blocked by truncated coefficient"
                )
            continue
        pk = P[k]
        if pk.is_exact_zero:
            cands.append((pk, qk, *skew.gauss_lines(P)))
            continue
        d = []
        for pi, qi in zip(P, Q):
            di = ZERO if pi.is_exact_zero else pi * qk
            if not qi.is_exact_zero:
                di = di - pk * qi
            d.append(di)
        lines, bounds = skew.gauss_lines(d)
        vq = qk.val()
        cands.append((pk, qk, [(i, v - vq) for i, v in lines], [(i, b - vq) for i, b in bounds]))
    return skew.gauss_lines(Q)[0], cands


def _table_lines(table):
    """The table's integer lines read back as (i, u) Fraction pairs."""
    L = table.L

    def read(part):
        return [(iL // L, F(uL, L)) for uL, iL in part]

    cands = [(*table.ratio(j), read(ls), read(bs)) for j, (_, ls, bs) in enumerate(table.cands)]
    return read(table.den), cands


def _centre(rng):
    """One to three terms c*x^e, e in [-3, 3] with denominators up to 4."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, 4)
        terms[F(rng.randint(-3 * d, 3 * d), d)] = F(rng.choice([-3, -1, 1, 2, 5]))
    return PuiseuxPoly(terms.items())


def test_the_integer_table_build_matches_the_series_build():
    # seeded mixed links (exact zeros, truncated zeros, truncated terms)
    # shifted to centres of one to three terms, and the bundled links:
    # the shifted coefficients equal the series shift's, and the table's
    # lines and bounds equal the product-based candidate lines', or both
    # builds raise the same InsufficientPrecision
    rng = random.Random(613)
    links = [(s, [_centre(rng) for _ in range(3)]) for _, s in bundled_links()]
    links += [(_mixed_link(rng), [_centre(rng) for _ in range(3)]) for _ in range(200)]
    built = blocked = bounded = truncated_pk = 0
    for s, centres in links:
        for center in centres:
            P = shift_poly(list(s.num), center)
            Q = shift_poly(list(s.den), center)
            assert P == _oracle_shift_poly(list(s.num), center), f"{s} at {center}"
            assert Q == _oracle_shift_poly(list(s.den), center), f"{s} at {center}"
            try:
                want = _oracle_candidate_lines(P, Q)
            except InsufficientPrecision as exc:
                with pytest.raises(InsufficientPrecision) as got:
                    skew.build_push_table(s, center)
                assert str(got.value) == str(exc)
                blocked += 1
                continue
            table = skew.build_push_table(s, center)
            assert _table_lines(table) == want, f"{s} at {center}"
            built += 1
            bounded += any(bs for *_, bs in table.cands)
            ratios = [table.ratio(j) for j in range(len(table.cands))]
            truncated_pk += any(not pk and not pk.is_exact_zero for pk, _ in ratios)
    assert (built, blocked, bounded, truncated_pk) == (526, 89, 379, 27)


# -- the table's reads past the lowest slot --------------------------------------
#
# A push table reads each shifted coefficient down to its lowest slot, and
# in full only where that is not enough: a coefficient whose first slots
# cancel, and proving it zero reads every slot; an entry D_ki whose two
# products' leading slots cancel; and the winning candidate's ratio.


@pytest.fixture
def full_reads(monkeypatch):
    """Every coefficient the shifts canonicalise, i.e. build in full."""
    from skewstab import roots

    built, canon = [], roots._canon

    def counting(*form):
        built.append(form)
        return canon(*form)

    monkeypatch.setattr(roots, "_canon", counting)
    return built


def _shifted_back(coeffs, a):
    """The polynomial in y whose shift to the centre a has these coefficients."""
    return shift_poly(coeffs, -a)


def _check_table_and_pushes(s, center, levels):
    """The table at ``center`` against the product-based build, and a push
    at each level against the oracle; the table's build outcome."""
    P, Q = _oracle_shift_poly(list(s.num), center), _oracle_shift_poly(list(s.den), center)
    try:
        want = _oracle_candidate_lines(P, Q)
    except InsufficientPrecision as exc:
        with pytest.raises(InsufficientPrecision) as got:
            skew.build_push_table(s, center)
        assert str(got.value) == str(exc)
        return "blocked"
    assert _table_lines(skew.build_push_table(s, center)) == want, f"{s} at {center}"
    for t in levels:
        p = Z(center, t)
        assert _outcome(pushforward, s, p) == _outcome(_oracle_pushforward, s, p, {}), f"{s} at {p}"
    return "built"


def test_a_double_root_at_a_two_term_centre_is_read_through_every_slot():
    # num = (y - u)^2*(y - u + 1), u = x + x^2: shifted to u, P_0 and P_1
    # are exact zeros, whose first slots cancel and which only a read of
    # every slot proves zero; truncating c_0 or c_1 leaves them truncated
    # zeros, bounds rather than lines
    u = S((F(1), F(1)), (F(2), F(1)))
    num = _shifted_back([ZERO, ZERO, ONE, ONE], u)
    den = [X, ONE]
    shifted = skew.TaylorShift(num, u)
    assert shifted.leads()[:2] == [None, None] and shifted[0].is_exact_zero and shifted[1].is_exact_zero
    levels = [F(2), F(5, 2), F(3), F(4), F(6)]
    outcomes = []
    for cut in ({}, {0: F(5)}, {1: F(4)}, {0: F(9, 2), 1: F(3)}, {2: F(3)}):
        coeffs = [c.truncate(cut[j]) if j in cut else c for j, c in enumerate(num)]
        s = SkewLocal(BaseGerm(X), coeffs, den)
        P = _oracle_shift_poly(coeffs, u)
        if cut:
            assert any(not c and not c.is_exact_zero for c in P[:2]), cut
        else:
            assert P[0].is_exact_zero and P[1].is_exact_zero
        outcomes.append(_check_table_and_pushes(s, u, levels))
    assert outcomes == ["built"] * 5


def test_an_entry_whose_leading_slots_cancel_is_read_in_full(full_reads):
    # at the centre x, P = (x^2 + x^3) + (x + x^3)*tau + tau^2 and Q = x + tau:
    # in D_10 = P_0*Q_1 - P_1*Q_0 the leading slots x^2 cancel and x^3 is
    # its least one, which the build reads off the four coefficients in full
    num = _shifted_back([S((F(2), F(1)), (F(3), F(1))), S((F(1), F(1)), (F(3), F(1))), ONE], X)
    s = SkewLocal(BaseGerm(X), num, [ZERO, ONE])
    del full_reads[:]
    table = skew.build_push_table(s, X)
    assert len(full_reads) == 4
    k = next(j for j, c in enumerate(table.cands) if c[0] == 1)
    assert (0, F(3)) in _table_lines(table)[1][k][2]
    assert _check_table_and_pushes(s, X, [F(1), F(3, 2), F(2), F(3)]) == "built"
    truncated = SkewLocal(BaseGerm(X), [num[0].truncate(4), *num[1:]], [ZERO, ONE])
    assert _check_table_and_pushes(truncated, X, [F(1), F(3, 2), F(2), F(3)]) == "built"


def _cancelling_reads(P, Q):
    """The (side, index) of every coefficient that an entry D_ki whose two
    products' leading terms cancel makes the build read in full."""
    reads = set()
    for k, (pk, qk) in enumerate(zip(P, Q)):
        if not qk or not pk:
            continue
        for i, (pi, qi) in enumerate(zip(P, Q)):
            if i == k or not pi or not qi:
                continue
            a, b = pi * qk, pk * qi
            if a.val() == b.val() and a.leading_coeff() == b.leading_coeff():
                reads |= {("P", i), ("Q", k), ("P", k), ("Q", i)}
    return reads


@pytest.mark.parametrize("name, centre", [
    ("thm6", S((F(-7, 4), F(1)))),
    ("thm6", S((F(1, 2), F(2)))),
    ("thm6", S((F(2, 3), F(-3)))),
    ("thmB", S((F(-1), F(2)))),
    ("thmB", S((F(3, 4), F(-1)))),
    ("thmB", S((F(-5, 3), F(3)))),
])
def test_a_push_builds_only_the_winning_ratio_in_full(full_reads, name, centre):
    # one push at a one-term centre on a fresh link: the table reads every
    # shifted coefficient down to its lowest slot, and builds in full only
    # the winner's P_k and Q_k, and what a cancelling entry reads
    s = _fixture_links(name)[0]
    p = Z(centre, centre.val() + 1)
    P, Q = _oracle_shift_poly(list(s.num), centre), _oracle_shift_poly(list(s.den), centre)
    allowed = len(_cancelling_reads(P, Q) | {("P", 0), ("Q", 0)})
    del full_reads[:]
    image = pushforward(s, p)
    built = len(full_reads)
    assert image == _oracle_pushforward(s, p, {})
    assert built <= allowed < len(P) + len(Q), (built, allowed)


def test_a_candidate_with_no_visible_line_leaves_the_radius_open():
    # At zeta(0, -1/2), P_0 = O(x^(5/2)), so the candidate w_0 = P_0/Q_0 is
    # known only to O(x^(1/2)) and every coefficient of D_0 is a truncated
    # zero: D_0 shows no line that bounds its valuation from above, and
    # pushforward raises.  The oracle puts w_0 = 0 and answers
    # zeta(0, 3/2), which holds for every completion of P_0 here; keeping
    # the bounds of the products P_0*Q_i is sound but leaves it open.
    num = [PuiseuxPoly.zero(F(5, 2)), S((F(1), F(2))).truncate(3), S((F(2), F(-2))).truncate(6)]
    den = [S((F(2), F(-2)), (F(3), F(-1))), S((F(0), F(1)), (F(2), F(-1))).truncate(3),
           S((F(0), F(-2)), (F(2), F(1)))]
    s = SkewLocal(BaseGerm(X), num, den)
    p = Z(0, F(-1, 2))
    assert _oracle_pushforward(s, p, {}) == Z(0, F(3, 2))
    assert _outcome(pushforward, s, p) is InsufficientPrecision


def test_base_germ_keeps_one_growing_reversion(monkeypatch):
    series = S((F(1), F(1)), (F(2), F(-2)), (F(3), F(1)))
    germ = BaseGerm(series)
    asked = []

    def counting_reversion(f, precision):
        asked.append(precision)
        return reversion(f, precision)

    monkeypatch.setattr(skew, "reversion", counting_reversion)
    computed = F(0)
    for precision in [F(3), F(5), F(4), F(2), F(7, 2), F(6), F(13), F(1), F(9)]:
        calls = len(asked)
        g = germ.inverse_to(precision.numerator, precision.denominator)
        # the kept reversion, whole: the highest asked so far
        assert g is germ._inverse and g.precision == max(asked)
        assert g.truncate_soft(precision) == reversion(series, precision)
        if precision > computed:
            assert len(asked) == calls + 1 and asked[-1] >= precision
            computed = asked[-1]
        else:
            assert len(asked) == calls
    assert asked == [F(3), F(6), F(13)]


# -- the push table's stretches ---------------------------------------------------


def _fresh_table(s, center):
    """A push table of s at centre apart from the link's own, so that its
    first push is scored over every line, with no stretch kept."""
    return skew.build_push_table(s, center)


def _radius_outcome(table, t):
    try:
        return table.radius(t.numerator, t.denominator)
    except (SkewstabError, ValueError) as exc:
        return type(exc), str(exc)


def _levels(rng, cuts):
    """Levels on, between and just off the crossings, some with
    denominators of 2^60 and more."""
    ts = [*cuts, F(rng.randint(-12, 24), rng.randint(1, 6))]
    if cuts:
        ts += [(a + b) / 2 for a, b in zip([cuts[0] - 1, *cuts], [*cuts, cuts[-1] + 1])]
    for x in rng.sample(cuts, min(2, len(cuts))) or [F(rng.randint(-3, 3))]:
        tiny = F(1, 2 ** rng.randint(60, 64))
        ts += [x + tiny, x - tiny, x + F(rng.randint(1, 2**61), 2**61 + 1)]
    rng.shuffle(ts)
    return ts


def test_the_stretch_read_matches_the_scoring_read():
    # every level is pushed twice through the link's own table, whose
    # pushes after its first read the stretch they lie in, and once
    # through a fresh table that scores it: the radii, and the exceptions
    # with their messages, agree
    rng = random.Random(607)
    links = [(s, [ZERO, ONE, X, S((F(1, 2), F(3)))]) for _, s in bundled_links()]
    links += [(_mixed_link(rng), [_mixed_point(rng).center for _ in range(2)]) for _ in range(150)]
    levels = on_crossing = stretches = scored = 0
    for s, centres in links:
        for center in centres:
            try:
                table = s.push_table(center)
            except InsufficientPrecision:
                continue
            cuts = _fresh_table(s, center).cuts()
            for t in _levels(rng, cuts):
                want = _radius_outcome(_fresh_table(s, center), t)
                for _ in range(2):
                    assert _radius_outcome(table, t) == want, f"{s} at zeta({center}, {t})"
                levels += 1
                on_crossing += t in cuts and table._plain
            if table._plain:
                stretches += sum(x is not None for x in table._stretches)
            else:
                scored += 1
                assert table._stretches is None
    assert (levels, on_crossing, stretches, scored) == (3565, 286, 362, 176)


def test_a_table_serving_one_push_sorts_nothing():
    # a transport push builds a table at its own centre and reads it once,
    # which scores the lines; the second push sorts the crossings and reads
    # a stretch, which later pushes in that stretch share
    s = thm6_map()
    pushforward(s, Z(S((F(1, 3), F(2))), F(1)))
    pushforward(s, Z(0, F(1, 3)))
    assert all(table._cuts is None for table in s._tables.values())
    table = s._tables[ZERO]
    assert pushforward(s, Z(0, F(1, 4))) == Z(0, F(3, 8))
    assert table._cuts == [0, F(2, 3), F(4, 3)]
    assert table._stretches == [None, (0, 0, 3 * table.L), None, None]
    assert pushforward(s, Z(0, F(1, 2))) == Z(0, F(3, 4))
    assert table._stretches == [None, (0, 0, 3 * table.L), None, None]


def test_every_image_of_a_stabilisation_run_is_the_scored_push():
    # stabilize thm6 --max-rounds 2: each image the links keep equals the
    # push of a fresh link, whose table scores its one push
    from skewstab.stability import RoundCapExceeded, StabilizationConfig, stabilize_smooth

    d = parse_definition(resources.files("skewstab.fixtures").joinpath("thm6.skew").read_text())
    with pytest.raises(RoundCapExceeded):
        stabilize_smooth(d.gammas, d.chain, StabilizationConfig(max_rounds=2))
    (link,) = d.chain.links
    assert len(link._pushes) > 1000
    assert any(table._stretches and any(table._stretches) for table in link._tables.values())
    for p, image in link._pushes.items():
        assert pushforward(SkewLocal(link.base, link.num, link.den), p) == image, f"{p}"
