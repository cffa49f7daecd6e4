"""Acceptance suite: ten numbered criteria, one test each.

Every test prints its own pass line (visible with ``pytest -s``) and
enforces a wall-clock budget.  Expected values are frozen here; the
oracles in criteria 7 and 8 are independent of the implementation under
test (they recompute images from classical boundary probes and seminorm
probes rather than trusting the pushforward internals).
"""

import io
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from itertools import zip_longest

import pytest

from mapdefs import ONE, ZERO, random_point, thm6_map
from skewstab.berkovich import (
    TypeIIPoint,
    g_point,
    gauss_point,
    hyperbolic_distance,
    join,
    leq,
    m_point,
)
from skewstab.cli import main as cli_main
from skewstab.errors import RoundCapExceeded
from skewstab.intervalmap import (
    denominator_growth_certificate,
    fixed_points,
    induce_interval_map,
    iterate,
)
from skewstab.parsing import parse_definition
from skewstab.puiseux import PuiseuxPoly, as_series
from skewstab.roots import poly_eval
from skewstab.skew import (
    BaseGerm,
    SkewLocal,
    critical_points_rational,
    gauss_val,
    has_good_reduction,
    pushforward,
    reduction_mod_x,
    shift_poly,
)
from skewstab.stability import (
    DESTABILISING,
    STABLE,
    StabilizationConfig,
    is_analytically_stable,
    minimal_stabilisation,
    stabilize_smooth,
)
from skewstab.vertexset import VertexSet, is_smooth, smooth_n_convex_hull

F = Fraction


@contextmanager
def budget(seconds, label):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{label} took {elapsed:.2f}s, budget {seconds}s"
    print(f"{label}: PASS ({elapsed:.2f}s)")


def load_fixture(name):
    text = resources.files("skewstab.fixtures").joinpath(name + ".skew").read_text()
    return parse_definition(text)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_criterion_01_induced_interval_map():
    with budget(1, "criterion 1 (induced interval map)"):
        pl = induce_interval_map(thm6_map(), ZERO, (0, F(4, 3)))
        assert pl.lo == 0 and pl.hi == F(4, 3)
        assert pl.breakpoints == (F(2, 3),)
        assert pl.pieces == ((F(3, 2), F(0)), (F(-3, 2), F(2)))


def test_criterion_02_repelling_fixed_point():
    with budget(1, "criterion 2 (repelling fixed point)"):
        pl = induce_interval_map(thm6_map(), ZERO, (0, F(4, 3)))
        hits = [f for f in fixed_points(pl) if getattr(f, "t", None) == F(4, 5)]
        assert len(hits) == 1
        assert abs(hits[0].slope) == F(3, 2)
        assert hits[0].repelling


def test_criterion_03_orbit_prefix_and_growth_certificate():
    with budget(1, "criterion 3 (orbit and growth certificate)"):
        pl = induce_interval_map(thm6_map(), ZERO, (0, F(4, 3)))
        orbit = iterate(pl, 1, 4)
        assert list(orbit) == [F(1), F(1, 2), F(3, 4), F(7, 8), F(11, 16)]
        assert not orbit.escaped
        cert = denominator_growth_certificate(pl, 1)
        assert (cert.start, cert.window, cert.prime) == (1, (1,), 2)
        assert cert.invariant == "odd/2^n with strictly growing n"
        # independent oracle: 50 steps of odd/2^k, k = 1, 2, ..., 50
        steps = iterate(pl, 1, 50)[1:]
        assert [t.denominator for t in steps] == [2**k for k in range(1, 51)]
        assert all(t.numerator % 2 for t in steps)


def test_criterion_04_destabilisation_witness_and_round_cap():
    with budget(5, "criterion 4 (destabilisation witness)"):
        d = load_fixture("thm6")
        report = is_analytically_stable(d.gammas, d.chain)
        assert report.verdict == DESTABILISING
        w = report.witnesses[0]
        assert w.point == TypeIIPoint(ZERO, 1) and w.fibre == 0
        ev = w.evidence
        assert ev.kind == "J"
        assert ev.witness == TypeIIPoint(ZERO, F(2, 3))
        # replay the evidence with a fresh pushforward call
        end = pushforward(d.chain.links[0], ev.witness)
        assert end == TypeIIPoint(ZERO, 1)
        assert ev.path[-1] == (0, end)

        cfg = StabilizationConfig(max_rounds=8)
        with pytest.raises(RoundCapExceeded) as exc:
            minimal_stabilisation(d.gammas, d.chain, cfg)
        trace = exc.value.trace
        assert trace[0].point == TypeIIPoint(ZERO, 1)
        assert [s.image.t for s in trace[:4]] == [F(1, 2), F(3, 4), F(7, 8), F(11, 16)]


def test_criterion_05_two_fibre_pipeline():
    with budget(10, "criterion 5 (two-fibre pipeline)"):
        locus = critical_points_rational([ZERO, ZERO, ONE, ONE.scale(-1)], [ONE])
        found = {str(r.series): r.multiplicity for r in locus.roots}
        assert found == {"0": 1, "2/3": 1}
        assert locus.descriptors == ()
        assert locus.infinity_multiplicity == 2
        assert locus.total() == 4

        d = load_fixture("thmB")
        assert pushforward(d.chain.links[0], gauss_point()) == TypeIIPoint(ZERO, 1)

        # user-declared backward-orbit link, localized at -1 (away from 0 and 1)
        u = PuiseuxPoly.monomial(1, 1)
        germ = as_series(-5) * u + as_series(4) * u * u - u * u * u
        c0 = (as_series(2) - u) * (ONE - u) ** 4
        c6 = as_series(2) - u
        back = SkewLocal(
            BaseGerm(germ),
            [c0, ZERO, ZERO, ZERO, ZERO, ZERO, c6],
            [ZERO, ZERO, ZERO, ONE],
        )
        assert has_good_reduction(back)
        red = reduction_mod_x(back)
        assert tuple(red.num) == (F(2), 0, 0, 0, 0, 0, F(2))
        assert tuple(red.den) == (0, 0, 0, F(1))

        code, out, _ = run_cli("demo", "thmB")
        assert code == 0 and "5/5 checks passed" in out


def test_criterion_06_smooth_hull():
    with budget(30, "criterion 6 (smooth hull)"):
        out = smooth_n_convex_hull([TypeIIPoint(ZERO, F(1, 2))], 2)
        assert set(out) == {
            TypeIIPoint(ZERO, 0),
            TypeIIPoint(ZERO, F(1, 2)),
            TypeIIPoint(ZERO, 1),
        }
        assert is_smooth(out).smooth

        bad = VertexSet([gauss_point(), TypeIIPoint(ZERO, 2)])
        rep = is_smooth(bad)
        assert not rep.smooth
        assert any(v.witness == TypeIIPoint(ZERO, 1) for v in rep.violations)

        rng = random.Random(6)
        for _ in range(100):
            pts = [random_point(rng) for _ in range(rng.randint(1, 4))]
            level = max(1, max(g_point(p) for p in pts))
            hulled = smooth_n_convex_hull(pts, level)
            assert is_smooth(hulled).smooth


def _seminorm_identity(link, zeta):
    """The image seminorm evaluated on five probe functionals must agree
    with the source seminorm of their pullbacks, up to the unit change
    of the base coordinate (valuations in x vs in x' = phi1(x))."""
    img = pushforward(link, zeta)
    n = link.base.n
    a, t = zeta.center, zeta.t

    def vG(coeffs):
        return gauss_val(shift_poly(coeffs, a), t)

    vP, vQ = vG(link.num), vG(link.den)
    img_y = min(img.center.val(), img.t)
    assert vP - vQ == n * img_y
    assert vQ - vP == n * -img_y
    for c in (1, -1, 2):
        shifted = [
            p + q.scale(-c)
            for p, q in zip_longest(link.num, link.den, fillvalue=PuiseuxPoly.zero())
        ]
        rhs = min((img.center - PuiseuxPoly.const(c)).val(), img.t)
        assert vG(shifted) - vQ == n * rhs


def _disk_oracle(link, zeta, probes=50):
    """Pairwise distances of boundary-probe images must be capped by,
    and attain, the image disk's diameter.

    Probes in directions where the denominator drops below its generic
    size are skipped (they sit near a zero or pole of Q and their images
    may leave the disk).  The ultrametric inequality reduces all-pairs
    claims to the star of one reference probe.
    """
    img = pushforward(link, zeta)
    target = link.base.n * img.t
    a, t = zeta.center, zeta.t
    vQ = gauss_val(shift_poly(link.den, a), t)
    ref = None
    vals = []
    for c in range(1, probes + 1):
        xi = a + PuiseuxPoly.monomial(c, t)
        pn, qd = poly_eval(link.num, xi), poly_eval(link.den, xi)
        if not qd.terms or qd.val() != vQ:
            continue
        if ref is None:
            ref = (pn, qd)
            continue
        diff = pn * ref[1] - ref[0] * qd
        if not diff.terms:
            continue  # this probe and the reference share one image point
        vals.append(diff.val() - qd.val() - ref[1].val())
    assert ref is not None and len(vals) >= probes // 2
    assert all(v >= target for v in vals)
    assert min(vals) == target


def test_criterion_07_pushforward_oracles():
    with budget(60, "criterion 7 (pushforward oracles)"):
        rng = random.Random(7)
        for name in ("thm6", "xy2", "goodred"):
            link = load_fixture(name).chain.links[0]
            for _ in range(20):
                zeta = random_point(rng)
                _seminorm_identity(link, zeta)
                _disk_oracle(link, zeta)


def test_criterion_08_multiplicity_divisibility():
    with budget(30, "criterion 8 (multiplicity divisibility)"):
        simple = [load_fixture(n).chain.links[0] for n in ("xy2", "goodred")]
        rng = random.Random(8)
        for _ in range(100):
            zeta = random_point(rng)
            for link in simple:
                img = pushforward(link, zeta)
                assert m_point(zeta) % m_point(img) == 0
                assert g_point(zeta) % g_point(img) == 0


def test_criterion_09_positive_stabilisation_run():
    with budget(10, "criterion 9 (positive stabilisation)"):
        d = load_fixture("xy2")
        res, report, registry, trace = stabilize_smooth(d.gammas, d.chain)
        assert report.verdict == STABLE
        assert is_smooth(res[0]).smooth
        fresh = is_analytically_stable(res, d.chain, registry=registry)
        assert fresh.verdict == STABLE
        assert registry.audit(res, d.chain) == []
        assert trace and all(r["registry_audit"] == [] for r in trace)


def test_criterion_10_tree_laws():
    with budget(10, "criterion 10 (tree laws)"):
        rng = random.Random(10)
        for _ in range(500):
            a, b, c = (random_point(rng) for _ in range(3))
            heights = sorted([join(a, b).t, join(b, c).t, join(a, c).t])
            assert heights[0] == heights[1]  # ultrametric: lowest join is shared

            j = join(a, b)
            assert leq(a, j) and leq(b, j)
            assert join(b, a) == j
            assert leq(j, join(j, c))  # dominated by every upper bound

            m = join(a, b)
            top = join(m, c)
            assert hyperbolic_distance(a, top) == hyperbolic_distance(
                a, m
            ) + hyperbolic_distance(m, top)
