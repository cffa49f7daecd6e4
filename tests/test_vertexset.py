import math
import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from mapdefs import bundled_links, random_point
from skewstab.berkovich import (
    TypeIIPoint,
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
from skewstab import vertexset
from skewstab.errors import RoundCapExceeded, SkewstabError
from skewstab.parsing import parse_point
from skewstab.puiseux import PuiseuxPoly, Rat
from skewstab.skew import SkewLocal, pushforward
from skewstab.vertexset import (
    GammaDomain,
    SmoothnessReport,
    VertexSet,
    Violation,
    _build_tree,
    _join_closure,
    deepest_below,
    domain_contains,
    dual_graph,
    dual_graph_dot,
    enumerate_domains,
    flank_in_direction,
    hull,
    is_smooth,
    is_tree,
    locate,
    meets,
    missing_flanks,
    n_convex_hull,
    segment_lattice_points,
    smooth_n_convex_hull,
    tree_lattice_points,
)

X = PuiseuxPoly.monomial(1, 1)
ZERO = PuiseuxPoly.zero()
ONE = PuiseuxPoly.const(1)
ROOT_X = PuiseuxPoly.monomial(1, F(1, 2))


def zeta(center, t):
    return TypeIIPoint(center, F(t))


GAUSS = gauss_point()


class TestHull:
    def test_collinear_path(self):
        h = hull([GAUSS, zeta(ZERO, 1), zeta(X, 2)])
        assert h.top == GAUSS
        assert h.nodes == (GAUSS, zeta(ZERO, 1), zeta(X, 2))
        assert h.edges == (
            (GAUSS, zeta(ZERO, 1)),
            (zeta(ZERO, 1), zeta(X, 2)),
        )

    def test_singleton(self):
        h = hull([zeta(X, 2)])
        assert h.nodes == (zeta(X, 2),)
        assert h.edges == ()

    def test_incomparable_pair_gets_join(self):
        h = hull([zeta(ZERO, 1), zeta(ONE, 1)])
        assert GAUSS in h.nodes
        assert h.top == GAUSS
        assert len(h.edges) == 2
        assert hyperbolic_distance(GAUSS, zeta(ZERO, 1)) == 1


class TestNConvexHull:
    def test_level_one_fill(self):
        out = n_convex_hull([GAUSS, zeta(ZERO, 2)], 1)
        assert out == VertexSet([GAUSS, zeta(ZERO, 1), zeta(ZERO, 2)])

    def test_level_two_fill(self):
        out = n_convex_hull([GAUSS, zeta(ZERO, 1)], 2)
        assert out == VertexSet([GAUSS, zeta(ZERO, F(1, 2)), zeta(ZERO, 1)])

    def test_level_four_farey_fill(self):
        out = n_convex_hull([GAUSS, zeta(ZERO, 1)], 4)
        expected = [GAUSS, zeta(ZERO, 1)] + [
            zeta(ZERO, s) for s in (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4))
        ]
        assert out == VertexSet(expected)

    def test_ramified_ray_respects_centre_multiplicity(self):
        p = zeta(ROOT_X, F(3, 4))
        out = n_convex_hull([GAUSS, p], 4)
        # below 1/2 the centre truncates to 0 (m=1); above it m=2 caps the
        # admissible denominators at {1,2,4}, so 2/3 is excluded
        expected = [
            GAUSS,
            zeta(ZERO, F(1, 4)),
            zeta(ZERO, F(1, 3)),
            zeta(ZERO, F(1, 2)),
            p,
        ]
        assert out == VertexSet(expected)

    def test_idempotent(self):
        once = n_convex_hull([GAUSS, zeta(ZERO, 2)], 3)
        assert n_convex_hull(once, 3) == once

    def test_precondition(self):
        with pytest.raises(ValueError):
            n_convex_hull([zeta(ZERO, F(1, 2))], 1)


class TestFlanked:
    def test_gauss_always_flanked(self):
        assert not missing_flanks(GAUSS, [GAUSS])
        assert not missing_flanks(GAUSS, [GAUSS, zeta(ZERO, 5)])

    def test_satellite_flanked_by_both_endpoints(self):
        gammas = [GAUSS, zeta(ZERO, F(1, 2)), zeta(ZERO, 1)]
        assert not missing_flanks(zeta(ZERO, F(1, 2)), gammas)

    def test_satellite_missing_inner_endpoint(self):
        assert missing_flanks(zeta(ZERO, F(1, 2)), [GAUSS, zeta(ZERO, F(1, 2))])


class TestSmoothHull:
    def test_satellite_singleton(self):
        out = smooth_n_convex_hull([zeta(ZERO, F(1, 2))], 2)
        assert out == VertexSet([GAUSS, zeta(ZERO, F(1, 2)), zeta(ZERO, 1)])

    def test_gauss_fixed(self):
        assert smooth_n_convex_hull([GAUSS], 1) == VertexSet([GAUSS])

    def test_ramified_satellite(self):
        p = zeta(ROOT_X, F(3, 4))
        out = smooth_n_convex_hull([p], 4)
        expected = [
            GAUSS,
            zeta(ZERO, F(1, 4)),
            zeta(ZERO, F(1, 3)),
            zeta(ZERO, F(1, 2)),
            zeta(ZERO, F(2, 3)),
            zeta(ZERO, F(3, 4)),
            zeta(ZERO, 1),
            p,
            zeta(ROOT_X, 1),
        ]
        assert out == VertexSet(expected)
        assert zeta(ZERO, F(1, 2)) in out and zeta(ROOT_X, 1) in out
        assert is_smooth(out).smooth


class TestIsSmooth:
    def test_adjacent_integral_pair(self):
        assert is_smooth([GAUSS, zeta(ZERO, 1)]).smooth

    def test_gap_names_interior_vertex(self):
        report = is_smooth([GAUSS, zeta(ZERO, 2)])
        assert not report.smooth
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.kind == "interior-vertex"
        assert v.witness == zeta(ZERO, 1)

    def test_smooth_path(self):
        assert is_smooth([GAUSS, zeta(ZERO, F(1, 2)), zeta(ZERO, 1)]).smooth

    def test_missing_flank_reported(self):
        report = is_smooth([GAUSS, zeta(ZERO, F(1, 2))])
        assert not report.smooth
        kinds = {v.kind for v in report.violations}
        assert kinds == {"missing-flank"}
        assert report.violations[0].witness == zeta(ZERO, 1)

    def test_missing_junction_reported(self):
        report = is_smooth([zeta(ZERO, 1), zeta(ONE, 1)])
        assert not report.smooth
        assert any(
            v.kind == "missing-junction" and v.witness == GAUSS
            for v in report.violations
        )

    def test_farey_neighbours_clean_but_skips_are_not(self):
        assert is_smooth(
            [GAUSS, zeta(ZERO, F(1, 3)), zeta(ZERO, F(1, 2)), zeta(ZERO, 1)]
        ).smooth
        report = is_smooth(
            [GAUSS, zeta(ZERO, F(1, 4)), zeta(ZERO, F(1, 2)), zeta(ZERO, 1)]
        )
        assert not report.smooth
        assert any(
            v.kind == "interior-vertex" and v.witness == zeta(ZERO, F(1, 3))
            for v in report.violations
        )


class TestDomains:
    def test_locate_disk_at_gauss(self):
        dom = locate([GAUSS], zeta(ZERO, 1))
        assert dom.kind == "disk"
        assert dom.boundary == (GAUSS,)
        assert not dom.direction.at_infinity
        assert dom.direction.rep.is_exact_zero

    def test_locate_annulus(self):
        dom = locate([GAUSS, zeta(ZERO, 1)], zeta(ZERO, F(1, 2)))
        assert dom.kind == "annulus"
        assert dom.boundary == (GAUSS, zeta(ZERO, 1))

    def test_locate_vertex(self):
        assert locate([GAUSS, zeta(ZERO, 1)], GAUSS) is None

    def test_hanging_branch_is_a_disk(self):
        gammas = [GAUSS, zeta(ZERO, F(1, 2)), zeta(ZERO, 1)]
        dom = locate(gammas, zeta(ROOT_X, F(3, 4)))
        assert dom.kind == "disk"
        assert dom.boundary == (zeta(ZERO, F(1, 2)),)

    def test_point_hanging_inside_annulus(self):
        gammas = [GAUSS, zeta(ZERO, F(1, 2)), zeta(ZERO, 1)]
        probe = zeta(PuiseuxPoly.monomial(1, F(3, 4)), F(7, 8))
        dom = locate(gammas, probe)
        assert dom.kind == "annulus"
        assert dom.boundary == (zeta(ZERO, F(1, 2)), zeta(ZERO, 1))

    def test_enumeration_partitions(self):
        gammas = [GAUSS, zeta(ZERO, F(1, 2)), zeta(ZERO, 1)]
        doms = enumerate_domains(gammas)
        annuli = [d for d in doms if d.kind == "annulus"]
        disks = [d for d in doms if d.kind == "disk"]
        assert len(annuli) == 2 and len(disks) == 3
        probes = [
            zeta(ZERO, F(1, 4)),
            zeta(ZERO, F(3, 4)),
            zeta(ZERO, 2),
            zeta(ONE, 1),
            zeta(ROOT_X, F(3, 4)),
            zeta(X, F(3, 2)),
        ]
        for p in probes:
            hits = [d for d in doms if domain_contains(d, gammas, p)]
            assert len(hits) == 1, f"{p} hit {len(hits)} domains"
        for g in gammas:
            assert not any(domain_contains(d, gammas, g) for d in doms)


class TestDualGraph:
    def test_single_edge(self):
        nodes, edges = dual_graph([GAUSS, zeta(ZERO, 1)])
        assert len(nodes) == 2 and len(edges) == 1

    def test_smooth_hull_path(self):
        out = smooth_n_convex_hull([zeta(ZERO, F(1, 2))], 2)
        nodes, edges = dual_graph(out)
        assert len(nodes) == 3 and len(edges) == 2
        assert is_tree(out)

    def test_singleton(self):
        nodes, edges = dual_graph([GAUSS])
        assert len(nodes) == 1 and edges == []

    def test_dot_output_frozen(self):
        out = smooth_n_convex_hull([zeta(ZERO, F(1, 2))], 2)
        dot = dual_graph_dot(out)
        assert dot == "\n".join(
            [
                "graph dual {",
                '  v0 [label="a=0 t=0 m=1 g=1" cls="integral"];',
                '  v1 [label="a=0 t=1/2 m=1 g=2" cls="satellite"];',
                '  v2 [label="a=0 t=1 m=1 g=1" cls="integral"];',
                "  v0 -- v1;",
                "  v1 -- v2;",
                "}",
            ]
        )

    def test_missing_junction_clique(self):
        two = PuiseuxPoly.const(2)
        gammas = [zeta(ZERO, 1), zeta(ONE, 1), zeta(two, 1)]
        nodes, edges = dual_graph(gammas)
        assert len(edges) == 3
        assert not is_tree(gammas)
        doms = enumerate_domains(gammas)
        comps = [d for d in doms if d.kind == "component"]
        assert len(comps) == 1 and len(comps[0].boundary) == 3


def _random_vertex(rng):
    centers = [
        ZERO,
        X,
        ONE,
        ROOT_X,
        X + PuiseuxPoly.monomial(1, F(3, 2)),
        PuiseuxPoly.monomial(1, F(1, 3)),
    ]
    while True:
        c = rng.choice(centers)
        q = rng.choice([1, 2, 3, 4])
        t = F(rng.randint(0, 2 * q), q)
        p = TypeIIPoint(c, t)
        if g_point(p) <= 4:
            return p


def _join_closure_by_pairs(pts):
    """Quadratic reference closure: every pairwise join, then a check."""
    nodes = set(pts)
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            nodes.add(join(a, b))
    # one closure round is enough in a tree, but verify
    lst = sorted(nodes, key=TypeIIPoint.sort_key)
    for i, a in enumerate(lst):
        for b in lst[i + 1 :]:
            j = join(a, b)
            if j not in nodes:
                nodes.add(j)
    return nodes


class TestJoinClosureAgainstReference:
    """The neighbour-join closure must agree with plain pairwise joining."""

    def test_matches_pairwise_closure(self):
        rng = random.Random(97)
        for case in range(200):
            pts = [_random_vertex(rng) for _ in range(rng.randint(1, 7))]
            fast = set(_join_closure(pts))
            slow = _join_closure_by_pairs(pts)
            assert fast == slow, f"case {case}: {sorted(map(str, fast))}"

    def test_matches_on_shared_rays(self):
        # stacked points on few rays: nested disks and shared centres
        rng = random.Random(98)
        centers = [ZERO, X, X + PuiseuxPoly.monomial(1, F(3, 2))]
        for case in range(100):
            pts = [
                TypeIIPoint(rng.choice(centers), F(rng.randint(-4, 8), 2))
                for _ in range(rng.randint(2, 8))
            ]
            fast = set(_join_closure(pts))
            assert fast == _join_closure_by_pairs(pts), f"case {case}"


class TestSmoothHullProperty:
    def test_outputs_pass_is_smooth(self):
        rng = random.Random(20260815)
        for case in range(40):
            gammas = [_random_vertex(rng) for _ in range(rng.randint(1, 4))]
            n = max(g_point(p) for p in gammas)
            out = smooth_n_convex_hull(gammas, n)
            for p in gammas:
                assert p in out
            report = is_smooth(out)
            assert report.smooth, f"case {case}: {report}"
            assert is_tree(out) or len(out) == 1
            if case < 10:
                assert smooth_n_convex_hull(out, n) == out
                filled = n_convex_hull(out, n)
                assert filled == out

    def test_lattice_points_on_tree(self):
        pts = tree_lattice_points([GAUSS, zeta(ZERO, 1)], 2)
        assert pts == VertexSet([GAUSS, zeta(ZERO, F(1, 2)), zeta(ZERO, 1)])
        inside = segment_lattice_points(GAUSS, zeta(ZERO, 1), 2)
        assert [p.t for p in inside] == [F(1, 2)]


# -- differential tests of the tree index against pairwise oracles ---------
#
# The functions below are the pairwise scans the tree index replaced,
# kept verbatim in substance as independent references.


def _oracle_sees(pts, a, b):
    if a == b:
        return False
    j = join(a, b)
    for r in pts:
        if r == a or r == b:
            continue
        if (leq(a, r) and leq(r, j)) or (leq(b, r) and leq(r, j)):
            return False
    return True


def _oracle_visible_pairs(pts):
    out = []
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            if _oracle_sees(pts, a, b):
                out.append((a, b))
    return out


def _oracle_adjacent_pairs(pts):
    out = []
    for a in pts:
        parent = None
        for q in pts:
            if q == a or not leq(a, q):
                continue
            if parent is None or q.t > parent.t:
                parent = q
        if parent is not None:
            out.append((parent, a))
    return out


def _oracle_visible_boundary(pts, p):
    pts = [q for q in pts if q != p]
    out = []
    for q in pts:
        jq = join(p, q)
        blocked = False
        for r in pts:
            if r == q:
                continue
            if (leq(p, r) and leq(r, jq)) or (leq(q, r) and leq(r, jq)):
                blocked = True
                break
        if not blocked:
            out.append(q)
    return sorted(out, key=TypeIIPoint.sort_key)


def _oracle_hull(pts):
    lst = sorted(_join_closure_by_pairs(pts), key=TypeIIPoint.sort_key)
    # every node's parent is the smallest node strictly above it
    edges, top = [], None
    for p in lst:
        above = [q for q in lst if q != p and leq(p, q)]
        if above:
            edges.append((max(above, key=lambda q: q.t), p))
        else:
            top = p
    return tuple(lst), tuple(edges), top


def _oracle_missing_flanks(p, pts):
    others = [q for q in pts if q != p]
    return [
        (v, flank_in_direction(p, v))
        for v, _mult in special_directions(p)
        if not any(point_in_direction(v, q) for q in others)
    ]


def _oracle_is_smooth(pts):
    violations = []
    pset = set(pts)
    junction_gaps = {}
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            j = join(a, b)
            if j in pset or leq(a, b) or leq(b, a) or not _oracle_sees(pts, a, b):
                continue
            junction_gaps.setdefault(j, (a, b))
    for j, (a, b) in junction_gaps.items():
        violations.append(
            Violation(
                "missing-junction",
                j,
                f"component between {a} and {b} is not a disk or annulus",
            )
        )
    for outer, inner in _oracle_adjacent_pairs(pts):
        cap = max(g_point(outer), g_point(inner))
        inside = segment_lattice_points(outer, inner, cap)
        if inside:
            witness = min(inside, key=lambda p: (g_point(p), p.t))
            violations.append(
                Violation(
                    "interior-vertex",
                    witness,
                    f"annulus from {outer} to {inner} contains a point of "
                    f"level {g_point(witness)} <= {cap}",
                )
            )
    for p in pts:
        for v, flank in _oracle_missing_flanks(p, pts):
            where = "at infinity" if v.at_infinity else f"towards {v.rep}"
            violations.append(
                Violation(
                    "missing-flank",
                    flank,
                    f"special direction {where} of {p} sees no vertex",
                )
            )
    violations.sort(key=lambda v: (v.witness.sort_key(), v.kind))
    return SmoothnessReport(not violations, tuple(violations))


def _oracle_locate(pts, p):
    if p in pts:
        return None
    bdry = _oracle_visible_boundary(pts, p)
    if len(bdry) == 1:
        return GammaDomain("disk", (bdry[0],), direction_at(bdry[0], p))
    if len(bdry) == 2:
        a, b = bdry
        if leq(b, a):
            return GammaDomain("annulus", (a, b))
        if leq(a, b):
            return GammaDomain("annulus", (b, a))
    return GammaDomain("component", tuple(bdry))


def _oracle_domains(pts):
    comps, assigned = [], set()
    for a, b in _oracle_visible_pairs(pts):
        if (a, b) in assigned:
            continue
        comp = {a, b}
        for c in pts:
            if c not in comp and all(_oracle_sees(pts, c, q) for q in comp):
                comp.add(c)
        members = sorted(comp, key=TypeIIPoint.sort_key)
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                assigned.add((x, y))
        comps.append(members)
    doms = []
    for members in comps:
        if len(members) == 2:
            a, b = members
            if leq(b, a):
                doms.append(GammaDomain("annulus", (a, b)))
            elif leq(a, b):
                doms.append(GammaDomain("annulus", (b, a)))
            else:
                doms.append(GammaDomain("component", (a, b)))
        else:
            doms.append(GammaDomain("component", tuple(members)))
    return doms + [GammaDomain("disk", (p,), None) for p in pts]


def _branch(p, t_gap, coeff=7):
    """A point below p in a direction that no test vertex uses."""
    return TypeIIPoint(p.center + PuiseuxPoly.monomial(coeff, p.t), p.t + t_gap)


def _probes(vs):
    """Probes of five kinds: vertices, points inside hull edges, branches
    off nodes and edges, points above the top, and inexact-centre
    proxies like those of stability._Analyzer._classical_in_domain."""
    h = hull(vs)
    out = list(vs)
    for outer, inner in h.edges:
        mid = TypeIIPoint(inner.center, (outer.t + inner.t) / 2)
        out += [mid, _branch(mid, F(1, 3))]
    out += [_branch(u, F(1, 2)) for u in h.nodes]
    top = h.top
    out += [
        TypeIIPoint(top.center, top.t - 1),
        TypeIIPoint(top.center + PuiseuxPoly.monomial(5, top.t - 1), top.t - F(1, 2)),
    ]
    for p in list(vs)[:4]:
        depth = p.t + 2
        series = PuiseuxPoly(
            p.center.terms + ((p.t + F(1, 2), 3), (depth + 1, 1)), precision=depth + 2
        )
        out.append(TypeIIPoint(series, depth))
    return out


def _raw_set(rng):
    return VertexSet(random_point(rng) for _ in range(rng.randint(2, 9)))


def _smooth_set(rng):
    pts = [random_point(rng) for _ in range(rng.randint(1, 3))]
    return smooth_n_convex_hull(pts, max(1, max(g_point(p) for p in pts)))


class TestTreeIndexAgainstPairwiseOracles:
    """Every query of the tree index agrees with the pairwise scans it
    replaced, on smooth hulls of criterion 6's distribution and on raw
    sets with missing junctions and flanks."""

    @pytest.mark.parametrize(
        "make, seed, cases", [(_smooth_set, 61, 12), (_raw_set, 62, 40)]
    )
    def test_queries_match(self, make, seed, cases):
        rng = random.Random(seed)
        kinds = set()
        for case in range(cases):
            vs = make(rng)
            if len(vs) > 60:
                continue
            pts = list(vs)
            h = hull(vs)
            assert (h.nodes, h.edges, h.top) == _oracle_hull(pts), f"case {case}"
            assert is_smooth(vs) == _oracle_is_smooth(pts), f"case {case}"
            doms = enumerate_domains(vs)
            assert doms == _oracle_domains(pts), f"case {case}"
            kinds.update(d.kind for d in doms)
            assert dual_graph(vs)[1] == _oracle_visible_pairs(pts), f"case {case}"
            for p in _probes(vs):
                assert locate(vs, p) == _oracle_locate(pts, p), f"case {case}: {p}"
        assert "annulus" in kinds
        if make is _raw_set:
            assert "component" in kinds

    def test_missing_flanks_off_the_set(self):
        rng = random.Random(63)
        for case in range(30):
            vs = _raw_set(rng)
            for p in _probes(vs):
                assert missing_flanks(p, vs) == _oracle_missing_flanks(p, list(vs)), (
                    f"case {case}: {p}"
                )
                assert missing_flanks(p, []) == _oracle_missing_flanks(p, [])

    def test_missing_flanks_on_n_convex_hulls(self):
        # n-convex hulls are mostly not smooth: their vertices miss flanks
        missed = 0
        for case, (pts, n) in enumerate(_criterion6_sets(64, 60)):
            vs = n_convex_hull(pts, n)
            for p in vs:
                got = missing_flanks(p, vs)
                assert got == _oracle_missing_flanks(p, list(vs)), f"case {case}: {p}"
                missed += len(got)
        assert missed > 50


def _tied_points(rng):
    """Criterion 6 points with radius denominators up to 24, each beside
    points of the same radius and other centres."""
    out = []
    for _ in range(rng.randint(1, 6)):
        p = random_point(rng, max_den=24)
        out += [p, TypeIIPoint(p.center + rng.choice([-1, 2]), p.t)]
        out.append(TypeIIPoint(p.center + PuiseuxPoly.monomial(3, p.t - F(1, 24)), p.t))
    return out


class TestSetOrder:
    """The integer key of the set order sorts as TypeIIPoint.sort_key."""

    def test_vertex_sets_sort_by_sort_key(self):
        rng = random.Random(65)
        negative = 0
        for case in range(150):
            pts = _tied_points(rng)
            negative += any(p.t < 0 for p in pts)
            vs = VertexSet(pts)
            assert vs.points == tuple(sorted(set(pts), key=TypeIIPoint.sort_key)), f"case {case}"
            extra = _tied_points(rng)
            both = vs.union(extra)
            assert both.points == tuple(sorted(set(pts + extra), key=TypeIIPoint.sort_key)), (
                f"case {case}"
            )
            nodes = hull(both).nodes
            assert nodes == tuple(sorted(nodes, key=TypeIIPoint.sort_key)), f"case {case}"
        assert negative > 50

    def test_hulls_sort_by_sort_key(self):
        for case, (pts, n) in enumerate(_criterion6_sets(66, 40)):
            vs = smooth_n_convex_hull(pts, n)
            assert vs.points == tuple(sorted(vs.points, key=TypeIIPoint.sort_key)), f"case {case}"

    def test_boundaries_and_violations_sort_by_sort_key(self):
        rng = random.Random(67)
        components = 0
        for case in range(40):
            vs = _raw_set(rng)
            got = is_smooth(vs).violations
            assert list(got) == sorted(got, key=lambda v: (v.witness.sort_key(), v.kind)), f"case {case}"
            for p in _probes(vs):
                dom = locate(vs, p)
                if dom is not None and dom.kind == "component":
                    components += 1
                    assert list(dom.boundary) == sorted(dom.boundary, key=TypeIIPoint.sort_key)
        assert components > 10


# -- the one-tree smooth hull and the piecewise lattice scan against the ---
# -- round loop and per-candidate scan they replaced ------------------------


def _oracle_segment_lattice_points(outer, inner, bound):
    """Every k/q in range for every q <= bound, each built as a point and
    kept when its level is at most the bound."""
    found = {}
    for q in range(1, bound + 1):
        k = math.ceil(outer.t * q)
        while F(k, q) <= inner.t:
            s = F(k, q)
            k += 1
            if s == outer.t or s == inner.t or s in found:
                continue
            p = TypeIIPoint(inner.center, s)
            if math.lcm(m_point(p), s.denominator) <= bound:
                found[s] = p
    return [found[s] for s in sorted(found)]


def _walk_is_empty(outer, inner, bound):
    return next(vertexset._lattice_walk(outer, inner, bound), None) is None


#: a segment from GAUSS whose truncated centre has m = 1, 2, 6, 12 on its
#: four pieces
_MULTI_PIECE_INNER = zeta(PuiseuxPoly(((F(1, 2), 1), (F(2, 3), 1), (F(3, 4), 1))), 2)

_NEGATIVE_RADIUS_SEGMENTS = [
    (zeta(ZERO, -1), zeta(PuiseuxPoly.monomial(2, F(-1, 2)), 1)),
    (zeta(ZERO, F(-7, 3)), zeta(ZERO, F(-1, 4))),
    (zeta(ZERO, F(1, 2)), zeta(ZERO, F(3, 2))),
    (zeta(ROOT_X, 1), zeta(ROOT_X + PuiseuxPoly.monomial(1, F(5, 4)), 3)),
]


def _oracle_n_convex_hull(points, n):
    h = hull(points)
    got = list(h.nodes)
    for outer, inner in h.edges:
        got.extend(_oracle_segment_lattice_points(outer, inner, n))
    return VertexSet(got)


def _oracle_smooth_hull(points, n):
    """Fill every edge and flank every vertex of a fresh set each round,
    until a round adds nothing."""
    current = VertexSet(points)
    while True:
        filled = _oracle_n_convex_hull(current, n)
        extra = [f for p in filled for _v, f in missing_flanks(p, filled)]
        new = filled.union(extra)
        if new == current:
            return current
        current = new


def _assert_tree_is_fresh(vs):
    grown, fresh = vs.tree(), _build_tree(VertexSet(vs.points))
    for name in ("nodes", "edges", "top", "parent_of", "children_of"):
        assert getattr(grown, name) == getattr(fresh, name), name


def _criterion6_sets(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        pts = [random_point(rng) for _ in range(rng.randint(1, 4))]
        yield pts, max(1, max(g_point(p) for p in pts))


class TestOneTreeSmoothHull:
    def test_matches_the_round_loop(self):
        for case, (pts, n) in enumerate(_criterion6_sets(806, 200)):
            out = smooth_n_convex_hull(pts, n)
            ref = _oracle_smooth_hull(pts, n)
            assert out == ref, f"case {case}"
            assert str(is_smooth(out)) == str(is_smooth(ref)) == "smooth", f"case {case}"
            _assert_tree_is_fresh(out)

    def test_n_convex_hull_and_lattice_points_carry_fresh_trees(self):
        for case, (pts, n) in enumerate(_criterion6_sets(807, 100)):
            filled = n_convex_hull(pts, n)
            assert filled == _oracle_n_convex_hull(pts, n), f"case {case}"
            _assert_tree_is_fresh(filled)
            for level in (1, 2, n):
                got = tree_lattice_points(pts, level)
                h = hull(pts)
                ref = [p for p in h.nodes if g_point(p) <= level]
                for outer, inner in h.edges:
                    ref += _oracle_segment_lattice_points(outer, inner, level)
                assert got == VertexSet(ref), f"case {case}, level {level}"
                if got:
                    _assert_tree_is_fresh(got)

    def test_scan_matches_on_every_hull_edge(self):
        for case, (pts, _n) in enumerate(_criterion6_sets(808, 200)):
            # the first few cases also at bounds whose lcm keys run long
            bounds = [*range(1, 13), 24, 60] if case < 6 else range(1, 13)
            for outer, inner in hull(pts).edges:
                for bound in bounds:
                    want = _oracle_segment_lattice_points(outer, inner, bound)
                    where = f"case {case}: {outer} to {inner} at {bound}"
                    assert segment_lattice_points(outer, inner, bound) == want, where
                    # the emptiness test of is_smooth reads one step of the walk
                    assert _walk_is_empty(outer, inner, bound) == (not want), where

    def test_multiplicity_changes_inside_the_segment(self):
        # the truncated centre has m = 1, 2, 6, 12 on the four pieces
        inner = _MULTI_PIECE_INNER
        got = segment_lattice_points(GAUSS, inner, 6)
        assert [p.t for p in got] == [F(1, 6), F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(1, 2), F(2, 3)]
        assert got[-1].center == PuiseuxPoly.monomial(1, F(1, 2))
        for bound in range(1, 25):
            assert segment_lattice_points(GAUSS, inner, bound) == (
                _oracle_segment_lattice_points(GAUSS, inner, bound)
            ), bound

    def test_negative_radii_and_a_lattice_point_outer_end(self):
        for outer, inner in _NEGATIVE_RADIUS_SEGMENTS:
            for bound in range(1, 13):
                assert segment_lattice_points(outer, inner, bound) == (
                    _oracle_segment_lattice_points(outer, inner, bound)
                ), (str(outer), str(inner), bound)
        assert [p.t for p in segment_lattice_points(zeta(ZERO, -1), zeta(ZERO, 1), 2)] == [
            F(-1, 2), 0, F(1, 2)
        ]
        assert [p.t for p in segment_lattice_points(zeta(ZERO, F(1, 2)), zeta(ZERO, F(3, 2)), 2)] == [1]

    def test_long_segment(self):
        got = segment_lattice_points(GAUSS, zeta(ZERO, 10000), 1)
        assert [p.t for p in got] == list(range(1, 10000))

    def test_level_and_empty_input_errors(self):
        p = zeta(ROOT_X, F(3, 4))
        for build in (smooth_n_convex_hull, n_convex_hull):
            with pytest.raises(ValueError, match=r"^zeta\(x\^\(1/2\), 3/4\) has g = 4 > n = 2$"):
                build([GAUSS, p], 2)
        with pytest.raises(ValueError):
            smooth_n_convex_hull([], 2)

    def test_round_cap(self, monkeypatch):
        monkeypatch.setattr(vertexset, "_SMOOTH_HULL_ROUNDS", 1)
        with pytest.raises(RoundCapExceeded):
            smooth_n_convex_hull([zeta(ZERO, F(1, 2))], 2)
        assert smooth_n_convex_hull([GAUSS, zeta(ZERO, 2)], 1) == VertexSet(
            [GAUSS, zeta(ZERO, 1), zeta(ZERO, 2)]
        )


# -- the Farey walk of the lattice scan -----------------------------------


def _farey_terms(order, lo, hi):
    """The reduced a/b with b <= order and lo < a/b <= hi, as pairs (a, b),
    by trying every denominator."""
    return {
        (a, b)
        for b in range(1, order + 1)
        for a in range(math.floor(lo * b) + 1, math.floor(hi * b) + 1)
        if math.gcd(a, b) == 1
    }


class TestFareyWalk:
    def test_level_points_are_a_farey_sequence_over_m(self):
        lo, hi = F(-3, 4), F(5, 3)
        for m in range(1, 13):
            for n in range(1, 61):
                # reduced k/q with lcm(m, q) <= n, as pairs (k, q)
                want = {
                    (k, q)
                    for k, q in _farey_terms(n, lo, hi)
                    if math.lcm(m, q) <= n
                }
                got = set()
                for a, b in _farey_terms(n // m, m * lo, m * hi):
                    g = math.gcd(a, m)
                    got.add((a // g, m * b // g))
                assert got == want, (m, n)

    def test_emptiness_on_multi_piece_and_negative_radius_segments(self):
        # the hull edges of seed 808 are checked in the scan test above
        empty = 0
        for outer, inner in [(GAUSS, _MULTI_PIECE_INNER), *_NEGATIVE_RADIUS_SEGMENTS]:
            for bound in [*range(1, 13), 24, 60]:
                want = not _oracle_segment_lattice_points(outer, inner, bound)
                assert _walk_is_empty(outer, inner, bound) == want, (
                    f"{outer} to {inner} at {bound}"
                )
                empty += want
        assert empty >= 5

    def test_interior_vertex_violations_match_the_oracle_scan(self):
        rng = random.Random(809)
        found = 0
        for case in range(200):
            vs = _raw_set(rng)
            want = []
            for outer, inner in _oracle_adjacent_pairs(list(vs)):
                cap = max(g_point(outer), g_point(inner))
                inside = _oracle_segment_lattice_points(outer, inner, cap)
                if inside:
                    witness = min(inside, key=lambda p: (g_point(p), p.t))
                    want.append(
                        Violation(
                            "interior-vertex",
                            witness,
                            f"annulus from {outer} to {inner} contains a point of "
                            f"level {g_point(witness)} <= {cap}",
                        )
                    )
            got = [v for v in is_smooth(vs).violations if v.kind == "interior-vertex"]
            key = lambda v: (v.witness.sort_key(), v.message)
            assert sorted(got, key=key) == sorted(want, key=key), f"case {case}"
            found += len(want)
        assert found > 100

    def test_incomparable_endpoints_are_refused(self):
        a, b = zeta(ONE, 1), zeta(ZERO, 2)
        for outer, inner in ((a, b), (b, a), (zeta(ZERO, 2), GAUSS)):
            with pytest.raises(ValueError, match="^segment endpoints are not comparable$"):
                segment_lattice_points(outer, inner, 6)


# -- the stored form: integer radii from every producer --------------------


def _stored_form_holds(p):
    """tn/td in lowest terms with td > 0, and p the point the public
    constructor makes of its centre and Fraction(tn, td)."""
    want = TypeIIPoint(p.center, F(p.tn, p.td))
    return (
        math.gcd(p.tn, p.td) == 1
        and p.td > 0
        and p == want
        and hash(p) == hash(want)
        and str(p) == str(want) == f"zeta({p.center}, {F(p.tn, p.td)})"
        and p.t == want.t == F(p.tn, p.td)
    )


@contextmanager
def _fractions_made():
    """The argument tuples of every Fraction built inside the block."""
    made, new = [], F.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new.__func__(cls, *args, **kwargs)

    F.__new__ = staticmethod(counting)
    try:
        yield made
    finally:
        F.__new__ = new


def _fresh_links():
    """thm6's link and thmB's first, apart from the bundled ones, so that
    no push of another test is kept on them."""
    links = dict(bundled_links())
    return [SkewLocal(s.base, s.num, s.den) for s in (links["thm6[0]"], links["thmB[0]"])]


class TestStoredForm:
    def test_walk_points_are_in_lowest_terms(self):
        walked = 0
        for outer, inner in [(GAUSS, _MULTI_PIECE_INNER), *_NEGATIVE_RADIUS_SEGMENTS]:
            for bound in [*range(1, 13), 24, 60]:
                for p in segment_lattice_points(outer, inner, bound):
                    assert _stored_form_holds(p), f"{outer} to {inner} at {bound}: {p}"
                    walked += 1
        assert walked > 5000

    def test_flanks_and_joins_are_in_lowest_terms(self):
        rng = random.Random(2901)
        kinds = Counter()
        for _ in range(300):
            p, q = random_point(rng, 6), random_point(rng, 6)
            for v in (direction_infinity(p), direction_to_class(p, p.center)):
                f = flank_in_direction(p, v)
                assert _stored_form_holds(f), f"flank of {p} in {v}: {f}"
                kinds["flank", v.at_infinity] += 1
            s = join(p, q)
            assert _stored_form_holds(s), f"join of {p} and {q}: {s}"
            kinds["new join" if s not in (p, q) else "outer"] += 1
        assert min(kinds.values()) > 50, kinds

    def test_pushes_and_parsed_points_are_in_lowest_terms(self):
        # zero winners push centre 0 with no transport; non-zero winners
        # carry their centre through the inverse germ
        rng = random.Random(2902)
        zero_won = transported = 0
        for s in _fresh_links():
            for _ in range(40):
                p = random_point(rng, 4)
                p = rng.choice([p, TypeIIPoint(ZERO, p.t), TypeIIPoint(ONE, p.t)])
                try:
                    image = pushforward(s, p)
                except SkewstabError:
                    continue
                assert _stored_form_holds(image), f"{s} at {p}: {image}"
                table = s.push_table(p.center)
                if table.ratio(table.winner(p.t)[0])[0]:
                    transported += 1
                else:
                    zero_won += 1
        assert zero_won > 10 and transported > 10, (zero_won, transported)
        for text in ("zeta(0, 6/4)", "zeta(x^(1/2) - x, -10/15)", "zeta(1, 0/7)", "zeta(x^(-1/3), -2)"):
            assert _stored_form_holds(parse_point(text)), text
        for _ in range(100):
            p = random_point(rng, 6)
            assert _stored_form_holds(parse_point(str(p))), p

    def test_a_lattice_walk_builds_no_fraction(self):
        segments = [(GAUSS, _MULTI_PIECE_INNER), *_NEGATIVE_RADIUS_SEGMENTS]
        with _fractions_made() as made:
            walked = sum(len(segment_lattice_points(o, i, b)) for o, i in segments for b in range(1, 61))
        assert walked > 5000 and made == []

    def test_a_push_read_off_a_kept_stretch_builds_no_fraction(self):
        # two pushes in the stretch (0, 2/3) of thm6's table at centre 0
        # fill and keep it; a third in it reads the kept stretch, and its
        # winning ratio is zero, so its image takes no centre transport
        s, _ = _fresh_links()
        first, second, third = (TypeIIPoint(ZERO, F(k, 7)) for k in (1, 2, 3))
        pushforward(s, first)
        pushforward(s, second)
        table = s.push_table(ZERO)
        assert not table.ratio(table.winner(third.t)[0])[0]
        with _fractions_made() as made:
            image = pushforward(s, third)
        assert made == [] and image == TypeIIPoint(ZERO, F(9, 14))


# -- descents that jump runs of single-child nodes, against the ----------
# -- one-node-at-a-time descent and the scans over every vertex -----------


def _oracle_seat(tree, p):
    """HullTree.seat as one comparison per child of every node passed."""
    if not leq(p, tree.top):
        return None, tree.top
    u = tree.top
    while u != p:
        for w in tree.children_of[u]:
            if leq(p, w):
                u = w
                break
            if join(p, w).t > u.t:
                return u, w
        else:
            return u, None
    return u, None


def _thm6_level24_hull():
    return smooth_n_convex_hull([GAUSS, zeta(ZERO, 1)], 24)


def _descent_sets():
    yield _thm6_level24_hull()
    for pts, n in _criterion6_sets(810, 40):
        yield smooth_n_convex_hull(pts, n)


def _run_probes(vs):
    """_probes, plus points on the ray below every leaf and a third of
    the way down every edge, with a branch off each."""
    h = vs.tree()
    out = _probes(vs)
    for outer, inner in h.edges:
        third = TypeIIPoint(inner.center, (2 * outer.t + inner.t) / 3)
        out += [third, _branch(third, F(1, 5), coeff=-5)]
    out += [TypeIIPoint(u.center, u.t + 1) for u in h.nodes if not h.children_of[u]]
    return out


def _probe_directions(p):
    """The direction at infinity, the special directions and one generic
    direction at p."""
    generic = direction_to_class(p, p.center + PuiseuxPoly.monomial(7, p.t))
    return [direction_infinity(p), generic] + [v for v, _m in special_directions(p)]


class TestTreeDescent:
    def test_seat_matches_the_step_by_step_descent(self):
        probes = jumped = 0
        for case, vs in enumerate(_descent_sets()):
            tree = vs.tree()
            for p in _run_probes(vs):
                assert tree.seat(p) == _oracle_seat(tree, p), f"case {case}: {p}"
                probes += 1
            jumped += sum(len(run) > 1 for _ts, run in tree._runs.values())
        assert probes > 5000 and jumped > 50

    def test_meets_and_deepest_below_match_the_scans(self):
        rng = random.Random(64)
        sets = [_thm6_level24_hull()]
        sets += [make(rng) for make in (_smooth_set, _raw_set) for _ in range(25)]
        seen = set()
        for case, vs in enumerate(sets):
            for p in _run_probes(vs):
                deepest = max((g.t for g in vs if leq(g, p)), default=None)
                assert deepest_below(vs, p) == deepest, f"case {case}: {p}"
                assert deepest_below([], p) is None
                for v in _probe_directions(p):
                    want = any(point_in_direction(v, g) for g in vs)
                    assert meets(vs, v) == want, f"case {case}: {v}"
                    assert not meets([], v)
                    seen.add((v.at_infinity, want))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}


# -- a union grows the tree its set carries, against a rebuild -------------


def _slot_kind(tree, p):
    """Where p lands on the tree, by the slot ``seat`` gives it."""
    u, w = tree.seat(p)
    if w is None:
        return "a missing junction" if p == u else "a leaf off a node"
    if u is None:
        return "above the top" if leq(w, p) else "beside the top"
    return "on an edge" if leq(w, p) else "off an edge"


class TestUnionGrowsTheCarriedTree:
    def test_matches_a_rebuild(self):
        rng = random.Random(811)
        lone, shared, repeats = Counter(), 0, 0
        for case in range(480):
            base = (_smooth_set if case % 2 else _raw_set)(rng)
            tree = base.tree()
            # probes land in every kind of slot; a node that is not a
            # vertex is a missing junction
            pool = _probes(base) + list(tree.nodes) + [random_point(rng)]
            extra = rng.sample(pool, min(len(pool), rng.choice([1, 1, 1, 2, 3, 6])))
            # a branch below a point off the tree shares its slot
            extra += [_branch(p, F(1, 4), coeff=-3) for p in extra[: rng.randint(0, 2)]]
            extra += rng.choice([[], [], extra[:1], list(base)[:1]])
            new = set(extra).difference(base)
            repeats += len(new) < len(extra)
            slots = Counter(tree.seat(p) for p in new)
            shared += any(k > 1 for k in slots.values())
            lone.update(_slot_kind(tree, p) for p in new if slots[tree.seat(p)] == 1)
            got = base.union(extra)
            want = VertexSet(list(base) + extra)
            assert got.points == want.points, f"case {case}"
            assert got._members == want._members, f"case {case}"
            grown, fresh = got._tree, _build_tree(want)
            assert grown is not None, f"case {case}"
            for name in ("nodes", "edges", "top", "parent_of", "children_of", "vertices"):
                assert getattr(grown, name) == getattr(fresh, name), f"case {case}: {name}"
        assert set(lone) == {
            "a missing junction",
            "a leaf off a node",
            "above the top",
            "beside the top",
            "on an edge",
            "off an edge",
        }
        assert min(lone.values()) > 10 and shared > 200 and repeats > 200

    def test_a_set_without_a_tree_builds_none(self):
        vs = VertexSet([GAUSS, zeta(ZERO, 1)])
        got = vs.union([zeta(ONE, 1), GAUSS])
        assert got == VertexSet([GAUSS, zeta(ZERO, 1), zeta(ONE, 1)])
        assert vs._tree is None and got._tree is None

    def test_nothing_new_keeps_the_set(self):
        vs = VertexSet([GAUSS, zeta(ZERO, 1)])
        tree = vs.tree()
        assert vs.union([GAUSS, zeta(ZERO, 1)]) is vs and vs.tree() is tree
