import gc
import math
import random
import sys
import weakref
from collections import Counter
from dataclasses import fields
from fractions import Fraction as F
from importlib import resources

import pytest

from mapdefs import (
    ONE,
    X,
    ZERO,
    bundled_links,
    random_point,
    square_map,
    thm6_map,
    xy2_map,
)
from skewstab import skew, stability
from skewstab.berkovich import (
    TypeIIPoint,
    direction_infinity,
    direction_to_class,
    gauss_point,
    leq,
    point_in_direction,
)
from skewstab.errors import NotApplicable, RoundCapExceeded
from skewstab.parsing import parse_definition
from skewstab.puiseux import PuiseuxPoly, as_series
from skewstab.skew import BaseGerm, Chain, SkewLocal, has_good_reduction, pushforward
from skewstab.stability import (
    AttractingCycleCertificate,
    DESTABILISING,
    INCONCLUSIVE,
    JDomain,
    PersistentFDiskRegistry,
    RegistryDisk,
    STABLE,
    StabilisationStep,
    StabilizationConfig,
    _Analyzer,
    _residue_cycle,
    _resolve_vertex,
    classify_domain,
    is_analytically_stable,
    minimal_stabilisation,
    stabilize_smooth,
    wandering_julia_report,
)
from skewstab.skew import single_chain
from skewstab.vertexset import (
    GammaDomain,
    VertexSet,
    domain_contains,
    is_smooth,
    locate,
    smooth_n_convex_hull,
)


def zp(c, t):
    return TypeIIPoint(as_series(c), F(t))


def fixture(name):
    text = resources.files("skewstab.fixtures").joinpath(f"{name}.skew").read_text()
    return parse_definition(text)


def truncated_map():
    # the link of test_skew's truncated-coefficient case: pushforward
    # raises InsufficientPrecision at zeta(0, -1/2) and at zeta(-2*x, 2)
    def S(*terms):
        return PuiseuxPoly([(F(e), F(c)) for e, c in terms])

    num = [PuiseuxPoly.zero(F(5, 2)), S((1, 2)).truncate(3), S((2, -2)).truncate(6)]
    den = [S((2, -2), (3, -1)), S((0, 1), (2, -1)).truncate(3), S((0, -2), (2, 1))]
    return SkewLocal(BaseGerm(X), num, den)


def drift_square_map():
    # y^2 scaled by the unit 1 + x^(1/2); good reduction, reduced map y^2,
    # but exact orbits pick up ever-longer centre expansions
    half = PuiseuxPoly.monomial(1, F(1, 2))
    return SkewLocal(BaseGerm(PuiseuxPoly.monomial(1, 1)), [ZERO, ZERO, ONE + half], [ONE], "drift")


class TestConfig:
    def test_defaults(self):
        cfg = StabilizationConfig()
        assert cfg.horizon == 64 and cfg.max_rounds == 32
        assert [f.name for f in fields(cfg)] == ["horizon", "max_rounds", "probe_budget"]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            StabilizationConfig(horizon=0)


class TestDestabilising:
    def test_fold_map_names_the_deep_vertex(self):
        gam = [gauss_point(), zp(0, 1)]
        report = is_analytically_stable(gam, thm6_map())
        assert len(report.witnesses) == 1 and not report.unresolved
        w = report.witnesses[0]
        assert w.point == zp(0, 1)
        assert w.image == zp(0, F(1, 2))
        assert w.domain.kind == "annulus"
        assert isinstance(w.evidence, JDomain)

    def test_witness_replays_by_pushforward(self):
        gam = [gauss_point(), zp(0, 1)]
        ev = is_analytically_stable(gam, thm6_map()).witnesses[0].evidence
        assert ev.witness == zp(0, F(2, 3))
        assert ev.steps == 1
        assert ev.path[-1] == (0, zp(0, 1))
        # the claim is checkable with nothing but the pushforward
        assert pushforward(thm6_map(), ev.witness) == zp(0, 1)

    def test_gauss_alone_is_stable(self):
        report = is_analytically_stable([gauss_point()], thm6_map())
        assert report.verdict == STABLE
        assert report.stable

    def test_verdict_and_surface_text(self):
        gam = [gauss_point(), zp(0, 1)]
        report = is_analytically_stable(gam, thm6_map())
        assert report.verdict == DESTABILISING
        assert not report.stable
        out = report.structured()
        assert "verdict: DestabilisingFound" in out
        assert "witness[0].point: zeta(0, 1)" in out
        assert "witness[0].replay: start=zeta(0, 2/3)" in out
        assert "blowing up along this orbit" in report.witnesses[0].surface

    def test_superattracting_base_is_noted(self):
        report = is_analytically_stable([gauss_point()], thm6_map())
        assert any("hypothesis" in n for n in report.notes)


class TestClassify:
    def test_pole_ray_gives_exact_witness(self):
        b = zp(0, 1)
        dom = GammaDomain("disk", (b,), direction_to_class(b, as_series(0)))
        cls = classify_domain(dom, [gauss_point(), zp(0, 1)], thm6_map())
        assert cls.kind == "J"
        assert cls.witness == zp(0, F(4, 3))
        assert pushforward(thm6_map(), cls.witness) == gauss_point()

    def test_pole_ray_witness_is_solved_on_the_ray_and_replayed(self, monkeypatch):
        # x^3/y maps zeta(0, 0) to zeta(0, 3); the probes of that disk find
        # no return to the Gauss point, and the solve on the pole ray at
        # y = 0 finds the one-step witness
        d = parse_definition("period 1\n[fibre 0]\nphi1 = x\nphi2 = x^3 / y\n")
        report = is_analytically_stable(d.gammas, d.chain)
        assert report.verdict == DESTABILISING
        (w,) = report.witnesses
        assert (w.point, w.image) == (gauss_point(), zp(0, 3))
        ev = w.evidence
        assert isinstance(ev, JDomain)
        assert (ev.witness, ev.steps) == (zp(0, 3), 1)
        assert ev.path == ((0, zp(0, 3)), (0, gauss_point()))
        assert pushforward(d.chain.links[0], ev.witness) == gauss_point()

        monkeypatch.setattr(_Analyzer, "_pole_ray_witness", lambda self, j, dom: None)
        d = parse_definition("period 1\n[fibre 0]\nphi1 = x\nphi2 = x^3 / y\n")
        assert is_analytically_stable(d.gammas, d.chain).verdict == INCONCLUSIVE

    def test_probe_free_annulus_stays_unknown(self):
        gam = [gauss_point(), zp(0, F(7, 8)), zp(0, 1)]
        dom = locate(VertexSet(gam), zp(0, F(15, 16)))
        assert dom.kind == "annulus"
        cls = classify_domain(dom, gam, thm6_map())
        assert cls.kind == "unknown"

    def test_a_component_is_probed_at_the_joins_of_its_boundary(self):
        vs = VertexSet([zp(1, 1), zp(-1, 1), zp(2, 1)])
        dom = locate(vs, gauss_point())
        assert dom.kind == "component" and len(dom.boundary) == 3
        an = _Analyzer(single_chain(square_map()), vs, StabilizationConfig(), None)
        probes = an._domain_probes(0, dom)
        assert gauss_point() in probes
        assert all(domain_contains(dom, vs, p) for p in probes)
        # y^2 keeps every probe's orbit off the three vertices
        cls = classify_domain(dom, vs, square_map())
        assert cls.kind == "unknown"
        assert cls.note == "no disk-tracking F route for this shape"

    def test_invariant_gauss_disk_is_f_certified(self):
        gam = [gauss_point()]
        dom = locate(VertexSet(gam), zp(0, 1))
        cls = classify_domain(dom, gam, xy2_map())
        assert cls.kind == "F"
        assert isinstance(cls.reason, AttractingCycleCertificate)

    def test_j_classification_survives_enlargement(self):
        an = _Analyzer(
            single_chain(thm6_map()),
            [gauss_point(), zp(0, 1)],
            StabilizationConfig(),
            None,
        )
        dom = locate(an.gammas[0], zp(0, F(1, 2)))
        first = an.classify(0, dom)
        assert first.kind == "J"
        an.extend({0: {zp(0, F(1, 2))}})
        assert an.classify(0, dom) is first

    def test_good_reduction_residue_cycle(self):
        # 1 is fixed by the reduced map y^2, and y^2 maps the residue disk
        # towards 1 onto itself: the exact disk image closes a one-disk cycle
        an = _Analyzer(
            single_chain(square_map()),
            [gauss_point(), zp(0, 1)],
            StabilizationConfig(),
            None,
        )
        b = gauss_point()
        v = direction_to_class(b, as_series(1))
        cert = an.classify(0, GammaDomain("disk", (b,), v))
        assert cert.kind == "F"
        assert isinstance(cert.reason, AttractingCycleCertificate)
        assert cert.reason.disks == (RegistryDisk(0, v),)
        assert str(cert.reason).startswith("invariant disk cycle after 0 step(s)")

    def test_residue_cycle_into_a_blocked_class(self):
        # 1 is fixed by the reduced map y^2, but zeta(1, 1) sits in its class
        an = _Analyzer(
            single_chain(square_map()),
            [gauss_point(), zp(1, 1)],
            StabilizationConfig(),
            None,
        )
        assert _residue_cycle(an, 0, F(1)) == ([(0, F(1))], 0)
        assert _residue_cycle(an, 0, F(-1)) == ([(0, F(-1)), (0, F(1))], 1)
        b = gauss_point()
        for r in (1, -1):
            dom = GammaDomain("disk", (b,), direction_to_class(b, as_series(r)))
            assert an.classify(0, dom).kind == "J"

    def test_residue_cycle_height_bound(self):
        # 2 -> 4 -> 16 -> 256 -> 65536 -> 2^32 passes 10^9 before any cycle
        an = _Analyzer(
            single_chain(square_map()), [gauss_point()], StabilizationConfig(), None
        )
        assert _residue_cycle(an, 0, F(2)) is None
        assert _residue_cycle(an, 0, F(0)) == ([(0, F(0))], 0)
        assert _residue_cycle(an, 0, None) == ([(0, None)], 0)


class TestMinimalStabilisation:
    def test_fold_map_never_closes(self):
        gam = [gauss_point(), zp(0, 1)]
        with pytest.raises(RoundCapExceeded) as exc:
            minimal_stabilisation(gam, thm6_map())
        trace = exc.value.trace
        assert trace[0].point == zp(0, 1)
        assert [s.image.t for s in trace[:4]] == [F(1, 2), F(3, 4), F(7, 8), F(11, 16)]
        assert all(s.image_fibre == 0 for s in trace)

    def test_small_round_cap_respected(self):
        gam = [gauss_point(), zp(0, 1)]
        cfg = StabilizationConfig(max_rounds=2)
        with pytest.raises(RoundCapExceeded) as exc:
            minimal_stabilisation(gam, thm6_map(), cfg)
        assert max(s.round for s in exc.value.trace) == 2

    def test_good_reduction_family_closes_in_one_round(self):
        gam = [gauss_point(), zp(-1, 1), zp(1, 2)]
        res, report, trace = minimal_stabilisation(gam, square_map())
        assert report.verdict == STABLE
        assert [s.image for s in trace] == [zp(1, 1)]
        assert zp(1, 1) in res

    def test_already_closed_family_adds_nothing(self):
        gam = [gauss_point(), zp(-1, 1)]
        res, report, trace = minimal_stabilisation(gam, square_map())
        assert report.verdict == STABLE
        assert trace == []
        assert set(res) == set(gam)


def _stepping_every_vertex(gammas, chain, cfg):
    """minimal_stabilisation's trace from a loop that steps every vertex
    in every round, and the number of steps it takes."""
    an = _Analyzer(chain, gammas, cfg, None)
    trace, steps = [], 0
    for rnd in range(1, cfg.max_rounds + 1):
        additions = {}
        for j, p in an.vertices():
            j2, img = an.chain.step(j, p)
            steps += 1
            if img in an.gammas[j2] or img in additions.get(j2, set()):
                continue
            cls = an.classify(j2, locate(an.gammas[j2], img))
            if cls.kind != "F":
                additions.setdefault(j2, set()).add(img)
                trace.append(StabilisationStep(rnd, j, p, img, j2, cls.kind))
        if not additions:
            break
        an.extend(additions)
    return trace, steps


class TestMinimalStabilisationSteps:
    def test_a_vertex_imaged_onto_a_vertex_is_not_stepped_again(self, monkeypatch):
        # the sets only grow, so once a vertex's image is a vertex, or is
        # added as one, the loop never steps it again; the walks that
        # classify an image are not counted
        analyzers, last, onto, count = [], {}, Counter(), Counter()
        real_init, real_step, real_extend = _Analyzer.__init__, Chain.step, _Analyzer.extend

        def init(self, *args):
            real_init(self, *args)
            analyzers.append(self)

        def step(self, j, p):
            j2, img = real_step(self, j, p)
            if sys._getframe(1).f_code.co_name == "minimal_stabilisation":
                assert onto[(j, p)] == 0, f"{p} stepped after its image became a vertex"
                onto[(j, p)] += img in analyzers[-1].gammas[j2]
                last[(j, p)] = count["rounds"] + 1
                count["steps"] += 1
            return j2, img

        def extend(self, additions):
            count["rounds"] += 1
            return real_extend(self, additions)

        monkeypatch.setattr(_Analyzer, "__init__", init)
        monkeypatch.setattr(Chain, "step", step)
        monkeypatch.setattr(_Analyzer, "extend", extend)
        d = fixture("thm6")
        with pytest.raises(RoundCapExceeded) as exc:
            minimal_stabilisation(d.gammas, d.chain)
        monkeypatch.undo()
        # a vertex whose image was added is last stepped in that round
        assert all(last[(s.fibre, s.point)] == s.round for s in exc.value.trace)
        d = fixture("thm6")
        trace, every = _stepping_every_vertex(d.gammas, d.chain, StabilizationConfig())
        assert exc.value.trace == trace and len(trace) == 32
        # on thm6 every vertex is stepped once: each image is added or is
        # a vertex already
        assert count["steps"] == len(onto) == 33 and sum(onto.values()) == 1
        assert every > 10 * count["steps"]


class TestRegistry:
    def test_audit_flags_every_axiom_breach(self):
        reg = PersistentFDiskRegistry()
        bad = RegistryDisk(0, direction_to_class(zp(0, 1), as_series(0)))
        reg.add(bad)
        fails = reg.audit(
            {0: VertexSet([gauss_point(), zp(0, 2)])}, single_chain(square_map())
        )
        assert any("boundary not a vertex" in f for f in fails)
        assert any("lies inside" in f for f in fails)

    def test_insertion_only_and_dedup(self):
        reg = PersistentFDiskRegistry()
        d = RegistryDisk(0, direction_to_class(zp(0, 1), as_series(0)))
        reg.add(d)
        reg.add(d)
        assert len(reg) == 1
        assert reg.find(0, zp(0, 3)) is d
        assert reg.find(0, zp(1, 3)) is None


def points_of_disk(v, rng):
    """Points of D(v.at, v): two on v's ray at distances 2^-k from v.at,
    k in -3..6, and two off it, whose centres leave the ray's at an
    exponent past v.at inwards and short of it outwards."""
    b = v.at
    ray = b.center if v.at_infinity else v.rep
    side = -1 if v.at_infinity else 1
    out = []
    for _ in range(2):
        out.append(TypeIIPoint(ray, b.t + side * F(2) ** -rng.randint(-3, 6)))
        e = b.t + side * F(2) ** -rng.randint(0, 3)
        off = ray + PuiseuxPoly.monomial(rng.choice([-2, -1, 1, 2]), e)
        out.append(TypeIIPoint(off, max(e, b.t) + F(2) ** -rng.randint(-3, 3)))
    return out


class TestDiskImage:
    def test_every_point_of_an_imaged_disk_pushes_into_its_image(self):
        # the premise of every F certificate: an open disk with no pole,
        # or no zero, inside maps into the disk off the image of its
        # boundary in the direction skew.disk_image returns
        rng = random.Random(15)
        for name, link in bundled_links():
            imaged = 0
            for _ in range(60):
                b = random_point(rng)
                if rng.random() < 0.5:
                    v = direction_infinity(b)
                else:
                    c = rng.choice([0, 1, -1, 2])
                    v = direction_to_class(b, b.center + PuiseuxPoly.monomial(c, b.t))
                img = skew.disk_image(link, v)
                if img is None:
                    continue
                for p in points_of_disk(v, rng):
                    assert point_in_direction(v, p)
                    assert point_in_direction(img, pushforward(link, p)), (name, str(v), str(p))
                imaged += 1
                if imaged == 20:
                    break
            assert imaged == 20, name


class TestStabilizeSmooth:
    def test_xy2_reaches_a_certified_family(self):
        res, report, registry, trace = stabilize_smooth([gauss_point()], xy2_map())
        assert report.verdict == STABLE
        assert len(registry) == 2
        assert all(not t["registry_audit"] for t in trace)
        # independent checkers agree
        assert is_smooth(res).smooth
        fresh = is_analytically_stable(res, xy2_map(), registry=registry)
        assert fresh.verdict == STABLE

    def test_xy2_traps_both_ends_of_the_ray(self):
        _, _, registry, _ = stabilize_smooth([gauss_point()], xy2_map())
        kinds = {d.direction.at_infinity for d in registry}
        assert kinds == {True, False}

    def test_fold_map_stalls_honestly(self):
        cfg = StabilizationConfig(horizon=12, max_rounds=3)
        try:
            _, report, _, trace = stabilize_smooth([gauss_point()], thm6_map(), cfg)
        except RoundCapExceeded:
            return
        assert report.verdict in (DESTABILISING, INCONCLUSIVE)
        assert any("no resolution rule" in n for n in report.notes)

    def test_unresolved_note_names_eight_points_and_counts_the_rest(self):
        cfg = StabilizationConfig(horizon=12, max_rounds=3)
        _, report, _, trace = stabilize_smooth([gauss_point()], thm6_map(), cfg)
        unresolved = trace[-1]["unresolved"]
        assert len(unresolved) > 8
        (note,) = [n for n in report.notes if "no resolution rule" in n]
        assert note.count(" @ fibre ") == 8
        for j, p in unresolved[:8]:
            assert f"{p} @ fibre {j}" in note
        rest = len(unresolved) - 8
        assert note.endswith(f", ... and {rest} more ({len(unresolved)} in all)")
        assert len(note) < 1000

    def test_preperiodic_rule_fires(self):
        link = SkewLocal(BaseGerm(X), [X, ZERO, ONE], [ZERO, ONE])  # (x + y^2)/y
        cfg = StabilizationConfig(max_rounds=4)
        _, report, _, trace = stabilize_smooth([zp(0, 2)], link, cfg)
        assert report.verdict == STABLE
        rules = {r for t in trace for _, _, r in t["resolutions"]}
        assert rules == {"preperiodic", "vertex"}

    def test_residue_cycle_rule_fires(self):
        cfg = StabilizationConfig(horizon=16, max_rounds=4)
        res, report, registry, trace = stabilize_smooth(
            [gauss_point(), zp(-1, 1)], drift_square_map(), cfg
        )
        assert report.verdict == STABLE
        rules = {r for t in trace for _, _, r in t["resolutions"]}
        assert "residue-cycle" in rules
        assert any(
            d.boundary == gauss_point() and not d.direction.at_infinity
            for d in registry
        )

    def test_two_fibre_cycle_chain(self):
        chain = Chain([square_map(), xy2_map()], period=2, tail=0)
        g = gauss_point()
        res, report, registry, trace = stabilize_smooth(
            {0: [g, zp(0, 1)], 1: [g]}, chain
        )
        assert report.verdict == STABLE
        assert {d.fibre for d in registry} == {0, 1}
        assert all(not t["registry_audit"] for t in trace)
        assert isinstance(res, dict) and set(res) == {0, 1}

    def test_tail_chain_image_disk_is_trapped(self):
        chain = Chain([square_map(), square_map()], period=1, tail=1)
        gam = {0: [gauss_point(), zp(-1, 1)], 1: [gauss_point()]}
        res, report, trace = minimal_stabilisation(gam, chain)
        assert report.verdict == STABLE
        assert trace == []


class TestWanderingJulia:
    def test_fold_map_certificate(self):
        cert = wandering_julia_report(thm6_map(), zp(0, 1))
        assert cert is not None
        assert cert.interval == (F(0), F(1))
        assert cert.fixed_point.t == F(4, 5)
        assert abs(cert.fixed_point.slope) == F(3, 2)
        assert cert.fixed_point.repelling
        assert cert.orbit.kind == "infinite-by-denominator-growth"
        assert cert.orbit.start == 1
        assert "repelling fixed parameter" in str(cert)

    def test_escaping_orbits_give_no_certificate(self):
        assert wandering_julia_report(square_map(), zp(0, 1)) is None
        assert wandering_julia_report(xy2_map(), zp(0, 1)) is None

    def test_contracting_model_gives_no_certificate(self):
        # the ray exists but carries no repelling anchor
        assert wandering_julia_report(thm6_map(), TypeIIPoint(as_series(1), F(1))) is None

    def test_unmodelled_ray_raises(self):
        # images of the centre-1 ray leave the ray entirely
        with pytest.raises(NotApplicable):
            wandering_julia_report(xy2_map(), TypeIIPoint(as_series(1), F(1)))


class TestAnalyzerInternals:
    def test_probe_ordering_prefers_simple_denominators(self):
        an = _Analyzer(
            single_chain(square_map()), [gauss_point()], StabilizationConfig(), None
        )
        ts = an._probe_ts(F(0), F(1))
        assert ts[0] == F(1, 2)
        assert ts == sorted(ts, key=lambda t: (t.denominator, t))

    def test_probe_free_interval(self):
        an = _Analyzer(
            single_chain(square_map()), [gauss_point()], StabilizationConfig(), None
        )
        assert an._probe_ts(F(7, 8), F(1)) == []

    def test_probe_radii_match_the_sorted_set_oracle(self):
        def oracle(lo, hi, budget):
            out = set()
            for q in range(1, budget + 1):
                k = math.floor(lo * q) + 1
                while F(k, q) < hi:
                    out.add(F(k, q))
                    k += 1
            return sorted(out, key=lambda t: (t.denominator, t))[:8]

        rng = random.Random(17)
        chain = single_chain(square_map())
        cases = [(F(0), F(2), 8), (F(2), F(0), 8), (F(1), F(1), 3), (F(-3), F(-1), 4)]
        for _ in range(400):
            lo = F(rng.randint(-40, 40), rng.randint(1, 9))
            cases.append((lo, lo + F(rng.randint(-4, 30), rng.randint(1, 9)), rng.randint(1, 12)))
        for lo, hi, budget in cases:
            an = _Analyzer(chain, [gauss_point()], StabilizationConfig(probe_budget=budget), None)
            assert an._probe_ts(lo, hi) == oracle(lo, hi, budget), (lo, hi, budget)

    def test_vertex_sets_are_kept_with_their_trees(self):
        chain = single_chain(thm6_map())
        given = VertexSet([gauss_point(), zp(0, 1)])
        an = _Analyzer(chain, given, StabilizationConfig(), None)
        assert an.gammas[0] is given
        grown = smooth_n_convex_hull(given, 4)
        tree = grown._tree
        assert tree is not None
        an.set_gammas({0: grown})
        assert an.gammas[0] is grown and grown.tree() is tree
        listed = _Analyzer(chain, {0: [gauss_point()]}, StabilizationConfig(), None)
        assert listed.gammas[0] == VertexSet([gauss_point()])

    def test_missing_fibre_rejected(self):
        chain = Chain([square_map(), square_map()], period=2, tail=0)
        with pytest.raises(ValueError):
            _Analyzer(chain, {0: [gauss_point()]}, StabilizationConfig(), None)

    def test_fibre_zeros_are_cached_on_the_link_and_die_with_it(self):
        # xy2's stability check pushes points and bounds disk images, which
        # needs the fibre map's zeros; no memo may outlive the parsed
        # definition
        text = resources.files("skewstab.fixtures").joinpath("xy2.skew").read_text()
        d = parse_definition(text)
        assert is_analytically_stable(d.gammas, d.chain).verdict == STABLE
        link = d.chain.links[0]
        assert not has_good_reduction(link)  # x*y^2 reduces to 0
        assert link._zeros is not None and link._reduction is not None
        assert link._pushes and link._images and link._tables
        refs = [weakref.ref(lk) for lk in d.chain.links]
        del d, link
        gc.collect()
        assert all(r() is None for r in refs)


class TestOrbitGate:
    def test_walk_yields_the_escaping_point_then_stops(self, monkeypatch):
        monkeypatch.setattr(stability, "_T_BOUND", F(10))
        an = _Analyzer(
            single_chain(square_map()), [gauss_point()], StabilizationConfig(), None
        )
        walk = list(an.walk(0, zp(0, 1), 64))
        assert walk == [(0, zp(0, t)) for t in (2, 4, 8, 16)]
        assert not an.walk_failed
        assert [q.t for _, q in an.walk(0, zp(0, 1), 3)] == [2, 4, 8]

    def test_a_failed_push_ends_the_walk_and_leaves_the_vertex_unresolved(
        self, monkeypatch
    ):
        an = _Analyzer(
            single_chain(truncated_map()),
            [gauss_point()],
            StabilizationConfig(),
            PersistentFDiskRegistry(),
        )
        start = zp(1, 1)
        assert list(an.walk(0, start, 64)) == [
            (0, TypeIIPoint(as_series(-2) * X, F(2)))
        ]
        assert an.walk_failed

        def never(*args):
            raise AssertionError("trap rules tried after a failed push")

        monkeypatch.setattr(stability, "_attracting_disks", never)
        monkeypatch.setattr(stability, "_residue_disks", never)
        additions = {}
        assert _resolve_vertex(an, 0, start, additions) is None
        assert additions == {} and len(an.registry) == 0

    def test_a_failed_vertex_push_leaves_the_check_inconclusive(self):
        report = is_analytically_stable([zp(0, F(-1, 2))], truncated_map())
        assert report.verdict == INCONCLUSIVE
        (u,) = report.unresolved
        assert u.note.startswith("pushforward failed")
        assert (u.point, u.domain) == (zp(0, F(-1, 2)), None)

    @pytest.mark.parametrize(
        "name, cfg",
        [
            ("xy2", StabilizationConfig()),
            ("goodred", StabilizationConfig()),
            ("thm6", StabilizationConfig(max_rounds=2)),
        ],
    )
    def test_no_point_is_pushed_twice_in_one_stabilisation_run(
        self, monkeypatch, name, cfg
    ):
        # walks, disk images, folding probes and registry audits all read
        # the links' memos, so a whole run computes each push, and each
        # disk's tangent image, once
        pushes, images = Counter(), Counter()

        class PushMemo(dict):
            def get(self, p, default=None):
                if p not in self:
                    pushes[(id(self), p)] += 1
                return dict.get(self, p, default)

        real_direction = skew.pushforward_direction

        def direction(link, p, v):
            images[(id(link), v)] += 1
            return real_direction(link, p, v)

        monkeypatch.setattr(skew, "pushforward_direction", direction)
        d = fixture(name)
        for link in d.chain.links:
            object.__setattr__(link, "_pushes", PushMemo())
        try:
            stabilize_smooth(d.gammas, d.chain, cfg)
        except RoundCapExceeded:
            pass
        assert pushes and max(pushes.values()) == 1
        assert images and max(images.values()) == 1

    @pytest.mark.parametrize("name", ["xy2", "goodred", "thm6"])
    def test_the_closing_report_equals_a_fresh_check(self, name):
        d = fixture(name)
        res, report, registry, _ = stabilize_smooth(d.gammas, d.chain)
        fresh = is_analytically_stable(res, d.chain, StabilizationConfig(), registry)
        assert report.verdict == fresh.verdict
        assert report.witnesses == fresh.witnesses
        assert report.unresolved == fresh.unresolved
        assert report.classifications == fresh.classifications

    def test_each_link_shifts_to_a_centre_once(self, monkeypatch):
        # a link keeps one push table per centre, so the setup of the shift
        # of its fibre map to a centre happens on the first push there and
        # never again
        shifts = Counter()
        real_shift = skew.TaylorShift

        def shift(coeffs, a):
            shifts[(tuple(coeffs), a)] += 1
            return real_shift(coeffs, a)

        monkeypatch.setattr(skew, "TaylorShift", shift)
        d = fixture("thm6")
        try:
            stabilize_smooth(d.gammas, d.chain, StabilizationConfig(max_rounds=2))
        except RoundCapExceeded:
            pass
        assert shifts and max(shifts.values()) == 1
        tables = sum(len(link._tables) for link in d.chain.links)
        assert sum(shifts.values()) == 2 * tables

    def test_a_disk_image_pushes_its_boundary_once(self, monkeypatch):
        # the image direction is anchored at the boundary's image, so the
        # boundary needs no push of its own
        b = zp(1, 1)
        v = direction_to_class(b, as_series(1) + X)
        pushed = []
        real_push = skew.pushforward

        def push(link, p):
            pushed.append(p)
            return real_push(link, p)

        monkeypatch.setattr(skew, "pushforward", push)
        image = skew.disk_image(thm6_map(), v)
        assert pushed.count(b) == 1
        at = zp(1, F(1, 2))
        rep = as_series(1) + PuiseuxPoly.monomial(3, F(1, 2))
        assert image == direction_to_class(at, rep)
