import math
import random
from fractions import Fraction as F

import pytest

from mapdefs import ONE, X, ZERO, bundled_links, thm6_map, square_map, xy2_map
from skewstab import skew
from skewstab.berkovich import TypeIIPoint
from skewstab.errors import InsufficientPrecision, NotRayInvariant
from skewstab.intervalmap import (
    FixedInterval,
    FixedPoint,
    HorizonExceeded,
    InfiniteByDenominatorGrowth,
    PLMap,
    Preperiodic,
    _induce_link,
    denominator_growth_certificate,
    detect_preperiodic,
    fixed_points,
    induce_interval_map,
    iterate,
    pl_compose,
)
from skewstab.parsing import parse_series
from skewstab.puiseux import PuiseuxPoly
from skewstab.skew import BaseGerm, Chain, SkewLocal, pushforward


def fold_map():
    return induce_interval_map(thm6_map(), ZERO, (0, F(4, 3)))


class TestInduce:
    def test_fold_map_exact(self):
        pl = fold_map()
        assert pl.lo == 0 and pl.hi == F(4, 3)
        assert pl.breakpoints == (F(2, 3),)
        assert pl.pieces == ((F(3, 2), F(0)), (F(-3, 2), F(2)))
        assert pl(F(2, 3)) == 1

    def test_affine_map(self):
        pl = induce_interval_map(xy2_map(), ZERO, (0, 2))
        assert pl.breakpoints == ()
        assert pl.pieces == ((F(2), F(1)),)

    def test_good_reduction_doubling(self):
        pl = induce_interval_map(square_map(), ZERO, (0, 1))
        assert pl.pieces == ((F(2), F(0)),)

    def test_matches_pushforward_on_random_parameters(self):
        rng = random.Random(7)
        smap = thm6_map()
        pl = fold_map()
        for _ in range(20):
            t = F(rng.randint(0, 24), 18)
            if t > F(4, 3):
                continue
            img = pushforward(smap, TypeIIPoint(ZERO, t))
            assert img.t == pl(t)
            assert img.center.is_exact_zero

    def test_ray_guard_rejects_inconsistent_centres(self):
        links = dict(bundled_links())
        with pytest.raises(NotRayInvariant):
            induce_interval_map(links["thmB[0]"], parse_series("3*x^(1/2)"), (0, 6))

    def test_table_rendering(self):
        pl = fold_map()
        assert pl.table() == "\n".join(
            ["[0, 2/3]: T(t) = 3/2*t", "[2/3, 4/3]: T(t) = -3/2*t + 2"]
        )


#: The centres of the bundled rays: exact, constant, ramified, two-term.
RAY_CENTRES = ("0", "1", "3*x^(1/2)", "2 - x^(1/3)")


def seeded_parameters(rng, hi, count):
    return [F(rng.randint(1, 100 * hi), rng.randint(1, 100)) % hi or F(hi) for _ in range(count)]


def counting_winners(monkeypatch):
    """The levels at which ``PushTable.winner`` scores from here on."""
    winners, winner = [], skew.PushTable.winner

    def counting_winner(table, t):
        winners.append(t)
        return winner(table, t)

    monkeypatch.setattr(skew.PushTable, "winner", counting_winner)
    return winners


class TestExactMapAgainstPushforward:
    @pytest.mark.parametrize("name,link", bundled_links())
    @pytest.mark.parametrize("centre", RAY_CENTRES)
    def test_bundled_ray(self, name, link, centre):
        c = parse_series(centre)
        if (name, centre) == ("thmB[0]", "3*x^(1/2)"):
            with pytest.raises(NotRayInvariant):
                _induce_link(link, c, F(0), F(6))
            return
        pl, ray = _induce_link(link, c, F(0), F(6))
        rng = random.Random(f"{name} {centre}")
        for t in seeded_parameters(rng, 6, 30):
            img = pushforward(link, TypeIIPoint(c, t))
            assert img.t == pl(t)
            assert img.center == ray.drop_from(img.t)

    def test_seeded_random_maps(self):
        rng = random.Random(11)

        def series():
            terms = [(rng.choice([-2, -1, 1, 2, 3]), F(rng.randint(0, 6), rng.choice([1, 2, 3])))
                     for _ in range(rng.randint(0, 2))]
            return sum((PuiseuxPoly.monomial(a, e) for a, e in terms), ZERO)

        mapped = 0
        for _ in range(60):
            num = [series() for _ in range(rng.randint(1, 4))] + [PuiseuxPoly.const(1)]
            den = [series() for _ in range(rng.randint(0, 3))] + [PuiseuxPoly.const(rng.randint(1, 3))]
            try:
                smap = SkewLocal(BaseGerm(X ** rng.choice([1, 1, 2])), num, den)
            except ValueError:  # constant in y
                continue
            c = series()
            try:
                pl, ray = _induce_link(smap, c, F(0), F(4))
            except NotRayInvariant:
                continue
            mapped += 1
            for t in seeded_parameters(rng, 4, 8):
                img = pushforward(smap, TypeIIPoint(c, t))
                assert img.t == pl(t)
                assert img.center == ray.drop_from(img.t)
        assert mapped >= 30

    def test_truncated_coefficient_bounds_the_ray(self):
        # y^2 + x + O(x^3): the candidate's own difference is O(x^3), which
        # undercuts the 2t of y^2 past t = 3/2, for the map and the pushforward
        smap = SkewLocal(BaseGerm(X), [X + PuiseuxPoly.monomial(0, 0, precision=3), ZERO, ONE], [ONE])
        assert induce_interval_map(smap, ZERO, (0, F(3, 2))).pieces == ((F(2), F(0)),)
        with pytest.raises(InsufficientPrecision):
            induce_interval_map(smap, ZERO, (0, 2))
        with pytest.raises(InsufficientPrecision):
            pushforward(smap, TypeIIPoint(ZERO, F(7, 4)))

    def test_a_bound_is_checked_at_both_ends_of_a_stretch(self):
        # y^2 + O(x^3): the winning ratio is a truncated zero, so no
        # transport reads its precision, and its bound 3 undercuts the 2t
        # of y^2 past t = 3/2, inside the one stretch (0, 2), whose
        # midpoint it does not undercut
        smap = SkewLocal(BaseGerm(X), [PuiseuxPoly.monomial(0, 0, precision=3), ZERO, ONE], [ONE])
        assert induce_interval_map(smap, ZERO, (0, F(3, 2))).pieces == ((F(2), F(0)),)
        for lo in (0, 1):
            with pytest.raises(InsufficientPrecision) as exc:
                induce_interval_map(smap, ZERO, (lo, 2))
            assert str(exc.value) == "truncated coefficient (bound 3) could undercut Gauss valuation 4"

    def test_breakpoints_are_exact_crossings(self):
        # thm6's fold at t = 2/3 lies on no dyadic grid over [0, 6]
        links = dict(bundled_links())
        fold = induce_interval_map(links["thm6[0]"], ZERO, (0, 6))
        assert fold.breakpoints == (F(2, 3),)
        sq = induce_interval_map(links["goodred[0]"], parse_series("3*x^(1/2)"), (0, 6))
        assert sq.breakpoints == (F(1, 2),)
        assert sq.pieces == ((F(2), F(0)), (F(1), F(1, 2)))

    def test_one_centre_transport_per_winning_candidate(self, monkeypatch):
        # thmB fibre 0 at centre 1 on [0, 6]: 9 stretches between line
        # crossings make 1 breakpoint, and candidate 0 wins all of them; one
        # pushforward per stretch made 9 centre transports
        winners, transports = [], []

        def counting_winner(table, t):
            j, v = winner(table, t)
            winners.append(j)
            return j, v

        def counting_transport(base, w, tn, td):
            transports.append(w)
            return transport(base, w, tn, td)

        winner, transport = skew.PushTable.winner, skew._transport_center
        monkeypatch.setattr(skew.PushTable, "winner", counting_winner)
        monkeypatch.setattr(skew, "_transport_center", counting_transport)
        pl, _ = _induce_link(dict(bundled_links())["thmB[0]"], ONE, F(0), F(6))
        assert len(winners) == 9 and len(pl.breakpoints) == 1
        assert len(transports) <= len(set(winners)) == 1

    def test_the_map_reads_the_stretches_the_pushes_filled(self, monkeypatch):
        # thm6 at centre 0, crossings 0, 2/3 and 4/3: after a first push,
        # three pushes fill the three stretches of [0, 2], so the map on
        # [0, 2] scores no winner, and nor does a second map on it
        link = thm6_map()
        for t in (F(1, 3), F(1, 4), F(1), F(2)):
            pushforward(link, TypeIIPoint(ZERO, t))
        table = link.push_table(ZERO)
        assert table.cuts() == [0, F(2, 3), F(4, 3)] and all(table._stretches[1:])
        winners = counting_winners(monkeypatch)
        pl, ray = _induce_link(link, ZERO, F(0), F(2))
        assert winners == []
        assert _induce_link(link, ZERO, F(0), F(2)) == (pl, ray) and winners == []
        assert pl.breakpoints == (F(2, 3),) and ray.is_exact_zero
        for t in (F(1, 3), F(1, 4), F(1), F(2)):
            assert pl(t) == pushforward(link, TypeIIPoint(ZERO, t)).t

    def test_a_second_map_reads_the_stretches_the_first_filled(self, monkeypatch):
        # thmB fibre 0 at centre 1 on [0, 6]: the first map fills its 9
        # stretches with one winner each, the second scores none
        winners = counting_winners(monkeypatch)
        link = dict(bundled_links())["thmB[0]"]
        first = _induce_link(link, ONE, F(0), F(6))
        assert len(winners) == 9
        assert _induce_link(link, ONE, F(0), F(6)) == first and len(winners) == 9

    def test_the_map_and_the_pushes_on_its_ray_share_one_table(self, monkeypatch):
        # thmB fibre 0 at centre 1: the interval map builds the centre's
        # push table, and pushes along the ray read it
        builds = []
        build = skew.build_push_table

        def counting_build(link, center):
            builds.append(center)
            return build(link, center)

        monkeypatch.setattr(skew, "build_push_table", counting_build)
        link = dict(bundled_links())["thmB[0]"]
        pl, _ = _induce_link(link, ONE, F(0), F(6))
        assert len(builds) == 1 and list(link._tables) == [ONE]
        for t in (F(1), F(5, 2), F(6)):
            assert pushforward(link, TypeIIPoint(ONE, t)).t == pl(t)
        assert len(builds) == 1


class TestPLMap:
    def test_continuity_enforced(self):
        with pytest.raises(ValueError):
            PLMap(0, 1, (F(1, 2),), ((F(1), F(0)), (F(1), F(1))))

    def test_evaluation_and_domain(self):
        pl = fold_map()
        assert pl(0) == 0
        assert pl(1) == F(1, 2)
        with pytest.raises(ValueError):
            pl(2)

    def test_compose_matches_pointwise(self):
        pl = fold_map()
        sq = pl_compose(pl, pl)
        rng = random.Random(3)
        for _ in range(40):
            t = F(rng.randint(0, 36), 27)
            if t > F(4, 3):
                continue
            assert sq(t) == pl(pl(t))
        assert F(4, 9) in sq.breakpoints and F(8, 9) in sq.breakpoints


class TestOrbits:
    def test_displayed_orbit(self):
        pl = fold_map()
        orbit = iterate(pl, 1, 4)
        assert orbit == [1, F(1, 2), F(3, 4), F(7, 8), F(11, 16)]
        assert not orbit.escaped

    def test_fixed_parameter_orbits(self):
        pl = fold_map()
        assert iterate(pl, F(4, 5), 6) == [F(4, 5)] * 7
        assert iterate(pl, 0, 3) == [0, 0, 0, 0]

    def test_escape_truncates(self):
        pl = PLMap(0, 1, (), ((F(3), F(0)),))
        orbit = iterate(pl, F(1, 2), 5)
        assert orbit.escaped
        assert orbit == [F(1, 2), F(3, 2)]


class TestFixedPoints:
    def test_fold_map_fixed_points(self):
        fps = fixed_points(fold_map())
        assert fps == [FixedPoint(F(0), F(3, 2)), FixedPoint(F(4, 5), F(-3, 2))]
        assert all(fp.repelling for fp in fps)

    def test_brute_force_cross_check(self):
        pl = fold_map()
        fps = fixed_points(pl)
        solutions = {fp.t for fp in fps}
        for k in range(0, 8 * 15 + 1):
            t = F(k, 90)
            if t > F(4, 3):
                break
            assert (pl(t) == t) == (t in solutions)

    def test_identity_piece_reported_as_interval(self):
        pl = PLMap(0, 2, (F(1),), ((F(1), F(0)), (F(2), F(-1))))
        fps = fixed_points(pl)
        assert FixedInterval(F(0), F(1)) in fps
        assert not any(isinstance(fp, FixedPoint) and fp.t == 1 for fp in fps)


class TestInfiniteOrbitCertificate:
    def test_dyadic_start_is_certified_at_step_0(self):
        cert = denominator_growth_certificate(fold_map(), 1)
        assert (cert.start, cert.window, cert.prime) == (1, (1,), 2)
        assert cert.invariant == "odd/2^n with strictly growing n"

    def test_slope_two_gives_none(self):
        pl = induce_interval_map(square_map(), ZERO, (0, 1))
        assert denominator_growth_certificate(pl, 1) is None

    def test_fixed_point_gives_none(self):
        assert denominator_growth_certificate(fold_map(), F(4, 5)) is None


def vp(x, p):
    """v_p of a nonzero rational."""
    n, d, v = x.numerator, x.denominator, 0
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


def unit_fold():
    """thm6's map on [0, 1]: 3/2*t, then -3/2*t + 2 past t = 2/3."""
    pl = induce_interval_map(thm6_map(), ZERO, (0, 1))
    assert pl.pieces == ((F(3, 2), F(0)), (F(-3, 2), F(2)))
    return pl


def seeded_invariant_map(rng, *primes):
    """A zigzag on [0, H], H >= 1, with values in [0, 1] (so the domain is
    forward-invariant) and every slope +-u/d, d a product of p^e, e in
    {1, 2}, over the given primes p, none of which divides u."""
    top = 4 * math.prod(primes)
    v = F(rng.randint(0, 6), 6)
    cuts, pieces, sign = [F(0)], [], 1
    while cuts[-1] < 1 or len(pieces) < 2:
        u = rng.choice([u for u in range(1, top) if all(u % p for p in primes)])
        s = sign * F(u, math.prod(p ** rng.randint(1, 2) for p in primes))
        target = F(rng.randint(0, 6), 6)
        target = min(target, v - F(1, 6)) if sign < 0 else max(target, v + F(1, 6))
        target = min(max(target, F(0)), F(1))
        if target == v:
            sign = -sign
            continue
        cuts.append(cuts[-1] + (target - v) / s)
        pieces.append((s, v - s * cuts[-2]))
        v, sign = target, -sign
    return PLMap(cuts[0], cuts[-1], tuple(cuts[1:-1]), tuple(pieces))


class TestDetectPreperiodic:
    def test_fixed_point_is_preperiodic(self):
        pl = fold_map()
        cert = detect_preperiodic(pl, F(4, 5))
        assert isinstance(cert, Preperiodic)
        assert cert.tail == () and cert.cycle == (F(4, 5),)

    def test_zero_fixed(self):
        cert = detect_preperiodic(fold_map(), 0)
        assert isinstance(cert, Preperiodic)
        assert cert.cycle == (F(0),)

    def test_breakpoint_certified_at_step_0(self):
        # v_2(2/3) - 1 = 0 < 1 = v_2(2): certified before any step
        cert = detect_preperiodic(fold_map(), F(2, 3))
        assert cert == InfiniteByDenominatorGrowth(
            F(2, 3), (F(2, 3),), "2-adic valuation strictly decreasing from step 0", 2
        )

    def test_dyadic_start_certified_directly(self):
        cert = detect_preperiodic(fold_map(), 1)
        assert isinstance(cert, InfiniteByDenominatorGrowth)
        assert cert.window == (1,)
        assert cert.start == 1
        assert cert.invariant == "odd/2^n with strictly growing n"

    def test_slopes_five_thirds_certified_at_step_1(self):
        # v_3(5/3 * 1/7) = -1 = v_3(5/3) fails at 1/7; 5/21 passes
        pl = PLMap(0, 1, (F(1, 2),), ((F(5, 3), F(0)), (F(-5, 3), F(5, 3))))
        cert = detect_preperiodic(pl, F(1, 7), horizon=40)
        why = "3-adic valuation strictly decreasing from step 1"
        assert cert == InfiniteByDenominatorGrowth(F(5, 21), (F(1, 7), F(5, 21)), why, 3)

    def test_horizon_exceeded_without_certificate(self):
        # slopes +-2: no prime divides every slope's denominator, and the
        # orbit 2^k/2^50 does not repeat within 40 steps
        pl = PLMap(0, 1, (F(1, 2),), ((F(2), F(0)), (F(-2), F(2))))
        cert = detect_preperiodic(pl, F(1, 2**50), horizon=40)
        assert cert == HorizonExceeded(40, F(1, 2**10))

    def test_start_outside_the_domain_raises_as_the_map_does(self):
        pl = unit_fold()
        for t in (F(4, 3), F(3, 2), F(-1, 2)):
            with pytest.raises(ValueError) as want:
                pl(t)
            with pytest.raises(ValueError) as got:
                detect_preperiodic(pl, t)
            assert str(got.value) == str(want.value) == f"{t} outside domain [0, 1]"

    def test_starts_the_old_window_left_open(self):
        # no point among the first 64 of either orbit has a power-of-two
        # denominator, so a window of odd/2^n steps never starts; v_2(-3/2 * t) = -1 < 1 =
        # v_2(2) certifies both at step 0
        pl = unit_fold()
        for t in (F(9, 13), F(3, 7)):
            dens = [u.denominator for u in iterate(pl, t, 63)]
            assert not any(d & (d - 1) == 0 for d in dens)
            cert = detect_preperiodic(pl, t)
            assert (cert.start, cert.window, cert.prime) == (t, (t,), 2)
            assert cert.invariant == "2-adic valuation strictly decreasing from step 0"

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_seeded_valuation_certificates_against_iterate(self, p):
        rng = random.Random(1000 + p)
        certified = preperiodic = 0
        for _ in range(4):
            pl = seeded_invariant_map(rng, p)
            assert all(pl.lo <= pl(c) <= pl.hi for c in pl.cuts())
            fixed = [fp.t for fp in fixed_points(pl) if isinstance(fp, FixedPoint)]
            for t in fixed + [F(rng.randint(0, 40), rng.randint(1, 40)) % pl.hi for _ in range(12)]:
                cert = detect_preperiodic(pl, t)
                assert denominator_growth_certificate(pl, t) == (
                    cert if isinstance(cert, InfiniteByDenominatorGrowth) else None
                )
                orbit = iterate(pl, t, 200)
                if isinstance(cert, Preperiodic):
                    preperiodic += 1
                    assert tuple(orbit[: len(cert.tail) + len(cert.cycle)]) == cert.tail + cert.cycle
                    assert pl(cert.cycle[-1]) == cert.cycle[0]
                    continue
                assert isinstance(cert, InfiniteByDenominatorGrowth) and cert.prime == p
                certified += 1
                k = len(cert.window) - 1
                assert cert.window == tuple(orbit[: k + 1]) and cert.start == orbit[k]
                assert len(set(orbit)) == len(orbit) == 201
                vals = [vp(u, p) for u in orbit[k:]]
                assert all(b < a for a, b in zip(vals, vals[1:]))
        assert certified and preperiodic


    def test_every_prime_of_the_slope_denominators_is_tried(self):
        # slopes +-u/(2^a*3^b): at each orbit point the 2-adic test runs
        # first and the 3-adic one after it, and the certificate carries
        # the first that holds.  The test is read here off v_p directly:
        # v_p(s_i*t) < v_p(c_i) on every piece with c_i != 0.
        def holds(pl, t, p):
            return t != 0 and all(vp(s * t, p) < vp(c, p) for s, c in pl.pieces if c)

        rng = random.Random(2003)
        by_prime, only_three = {2: 0, 3: 0}, 0
        for _ in range(8):
            pl = seeded_invariant_map(rng, 2, 3)
            assert all(pl.lo <= pl(c) <= pl.hi for c in pl.cuts())
            starts = [F(rng.randint(1, 60), rng.choice([1, 5, 7, 9, 25, 27, 35])) for _ in range(12)]
            for t in (t % pl.hi for t in starts):
                cert = detect_preperiodic(pl, t)
                orbit = iterate(pl, t, 200)
                if not isinstance(cert, InfiniteByDenominatorGrowth):
                    assert not any(holds(pl, u, p) for u in orbit[:65] for p in (2, 3))
                    continue
                k, p = len(cert.window) - 1, cert.prime
                assert cert.window == tuple(orbit[: k + 1]) and cert.start == orbit[k]
                assert not any(holds(pl, u, q) for u in orbit[:k] for q in (2, 3))
                assert holds(pl, orbit[k], p)
                assert not any(holds(pl, orbit[k], q) for q in (2, 3) if q < p)
                assert cert.invariant == f"{p}-adic valuation strictly decreasing from step {k}"
                assert len(set(orbit)) == len(orbit) == 201
                vals = [vp(u, p) for u in orbit[k:]]
                assert all(b < a for a, b in zip(vals, vals[1:]))
                by_prime[p] += 1
                # starts that 3 certifies and 2 does not
                only_three += p == 3 and k == 0
        assert (by_prime, only_three) == ({2: 54, 3: 42}, 29)


class TestChainInduce:
    def test_single_link_chain_matches_map(self):
        from skewstab.skew import single_chain

        chain = single_chain(thm6_map())
        pl = induce_interval_map(chain, ZERO, (0, F(4, 3)))
        assert pl.breakpoints == (F(2, 3),)
        assert pl.pieces == ((F(3, 2), F(0)), (F(-3, 2), F(2)))

    def test_next_link_follows_the_exact_image_ray(self):
        # y^2 maps zeta(2, t) to zeta(4, t): the ray keeps its depth, and a
        # centre cut at the image of t = 0 would be 0, where y^2 doubles it
        links = dict(bundled_links())
        chain = Chain([links["goodred[0]"]] * 2, period=2)
        pl = induce_interval_map(chain, parse_series("2"), (0, 4))
        assert pl.pieces == ((F(1), F(0)),)

    @pytest.mark.parametrize("centre", RAY_CENTRES[1:] + ("2",))
    def test_two_link_chains_match_chain_pushforward(self, centre):
        c = parse_series(centre)
        links = bundled_links()
        rng = random.Random(centre)
        mapped = 0
        for (_, first), (_, second) in [(a, b) for a in links for b in links]:
            try:
                pl = induce_interval_map(Chain([first, second], period=2), c, (0, 4))
            except NotRayInvariant:
                continue
            mapped += 1
            for t in seeded_parameters(rng, 4, 6):
                img = pushforward(second, pushforward(first, TypeIIPoint(c, t)))
                assert img.t == pl(t)
        assert mapped >= 8
