"""Stability analysis and stabilisation over a chain of local models.

A family of vertex sets, one per fibre of a chain, is analytically
stable when the pushforward of every vertex lands back in the family or
in a region certified never to return to it.  Complement regions are
classified three ways: J-type regions contain an exact point whose
orbit reaches the vertex set (always replayable), F-type regions are
trapped away from it forever, everything else is Unknown within the
configured budgets.  Unknown never upgrades to a stable verdict.

Soundness split: J evidence is only ever produced from exact orbits of
exact points, while F evidence tracks whole disks.  A disk is one value,
``RegistryDisk(fibre, direction)``: the open disk D(v.at, v) off the
boundary v.at in the tangent direction v, so its boundary cannot
disagree with its direction.  An open disk with no pole, or no zero,
inside maps onto the disk off the image of its boundary in the tangent
image of its direction (``skew.pushforward_direction``, exact), so
``skew.disk_image`` returns that direction, or None when the disk holds
both and its image need not be a disk.  A disk that stays clear of the
vertex sets is genuinely trapped; it is never used to claim a hit.

Pushes, disk images and reductions are memoised on their link (see
``skew``), so walks, disk-cycle checks, registry audits, folding probes
and a closing report all share them.  ``_Analyzer`` holds the vertex
family, the registry and the memo of classifications, which depend on
the family; ``walk`` is the one orbit loop and owns its stops (a failed
push, |t| > _T_BOUND).  A stabilisation run's closing report shares the
loop's pushes but classifies afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .berkovich import (
    Direction,
    TypeIIPoint,
    direction_at,
    direction_infinity,
    direction_multiplicity,
    direction_to_class,
    g_point,
    gauss_point,
    join,
    leq,
    point_in_direction,
    special_directions,
)
from .errors import (
    InsufficientPrecision,
    NotApplicable,
    NotRayInvariant,
    NotRepresentable,
    RoundCapExceeded,
    SkewstabError,
)
from .intervalmap import (
    FixedPoint,
    InfiniteByDenominatorGrowth,
    PLMap,
    denominator_growth_certificate,
    fixed_points,
    induce_interval_map,
)
from .puiseux import INF, as_series
from .skew import (
    Chain,
    SkewLocal,
    disk_image,
    folding_tree,
    has_good_reduction,
    reduction_mod_x,
    single_chain,
)
from .vertexset import (
    GammaDomain,
    as_vertex_set,
    deepest_below,
    domain_contains,
    locate,
    meets,
    smooth_n_convex_hull,
    tree_lattice_points,
)

STABLE = "StableCertified"
DESTABILISING = "DestabilisingFound"
INCONCLUSIVE = "Inconclusive"

#: orbits whose radius exponent leaves this band are treated as escaped
_T_BOUND = 10**6

#: steps a J-search probe orbit may take to reach the vertex family
_PROBE_HORIZON = 16

#: the largest lattice level g of a point the resolution rules may add
_MAX_LEVEL = 16


@dataclass(frozen=True)
class StabilizationConfig:
    """Budgets for classification and stabilisation loops.

    horizon caps orbit length, max_rounds caps closure rounds,
    probe_budget caps probe denominators and retry counts.  The lattice
    level of points the resolution rules may add is capped at
    ``_MAX_LEVEL``; the working lattice level of smooth stabilisation is
    the largest g over the input vertices.
    """

    horizon: int = 64
    max_rounds: int = 32
    probe_budget: int = 8

    def __post_init__(self):
        for name in ("horizon", "max_rounds", "probe_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


# -- domain classes -------------------------------------------------------


@dataclass(frozen=True)
class MapsIntoPersistentFDisk:
    disk: "RegistryDisk"

    def __str__(self):
        return f"maps into persistent disk {self.disk}"


@dataclass(frozen=True)
class AttractingCycleCertificate:
    """A cycle of disks, each mapping inside the next.

    Orbits entering the first disk stay in the cycle forever; every disk
    was checked to be disjoint from its fibre's vertex set, so nothing
    trapped here can return to it.  Covers indifferent cycles too.
    """

    disks: tuple  # (RegistryDisk, ...)
    entry: int  # steps from the classified region to the cycle

    def __str__(self):
        inner = "; ".join(
            f"fibre {d.fibre}: disk(at {d.boundary}, {d.direction})" for d in self.disks
        )
        return f"invariant disk cycle after {self.entry} step(s): {inner}"


@dataclass(frozen=True)
class FCertified:
    reason: object  # MapsIntoPersistentFDisk or AttractingCycleCertificate

    kind: str = field(default="F", init=False)

    def __str__(self):
        return f"F-certified: {self.reason}"


@dataclass(frozen=True)
class JDomain:
    """A region with an exact witness orbit into the vertex set.

    ``path`` replays the claim: it starts at (fibre, witness) and its
    last entry is a vertex of the final fibre's set.  Enlarging the
    vertex sets can only keep the witness valid.
    """

    witness: TypeIIPoint
    fibre: int
    steps: int
    path: tuple  # ((fibre, point), ...)

    kind: str = field(default="J", init=False)

    def __str__(self):
        return (
            f"J-domain: {self.witness} (fibre {self.fibre}) reaches the "
            f"vertex set in {self.steps} step(s)"
        )


@dataclass(frozen=True)
class Unknown:
    horizon: int
    note: str = ""

    kind: str = field(default="unknown", init=False)

    def __str__(self):
        extra = f" ({self.note})" if self.note else ""
        return f"unclassified within horizon {self.horizon}{extra}"


# -- persistent disk registry ---------------------------------------------


@dataclass(frozen=True)
class RegistryDisk:
    """The open disk D(v.at, v) off its boundary v.at, over one fibre."""

    fibre: int
    direction: Direction

    @property
    def boundary(self) -> TypeIIPoint:
        return self.direction.at

    def contains(self, p: TypeIIPoint) -> bool:
        return point_in_direction(self.direction, p)

    def __str__(self):
        side = "infinity" if self.direction.at_infinity else str(self.direction.rep)
        return f"D(fibre {self.fibre}, at {self.boundary}, towards {side})"


class PersistentFDiskRegistry:
    """Disks certified to stay away from the vertex sets, forever.

    Insertion-only; the audit re-checks the five axioms (boundary is a
    vertex, generic direction, disjoint from the vertex set, forward
    invariant into the registry, never shrunk) against the current state.
    """

    def __init__(self):
        self._disks = []
        self._high_water = 0

    def add(self, disk: RegistryDisk):
        if disk not in self._disks:
            self._disks.append(disk)

    def __iter__(self):
        return iter(self._disks)

    def __len__(self):
        return len(self._disks)

    def find(self, j: int, p: TypeIIPoint) -> Optional[RegistryDisk]:
        return _disk_holding(self._disks, j, p)

    def covering(self, j: int, v: Direction) -> Optional[RegistryDisk]:
        """The first disk of fibre j that contains the open disk D(v.at, v)."""
        for d in self._disks:
            if d.fibre == j and _disk_contained(v, d.direction):
                return d
        return None

    def audit(self, gammas: dict, chain: Chain):
        """Failure strings for every axiom violation; empty means pass."""
        failures = []
        for d in self._disks:
            tag = str(d)
            if d.boundary not in gammas[d.fibre]:
                failures.append(f"{tag}: boundary not a vertex of fibre {d.fibre}")
            if any(v == d.direction for v, _ in special_directions(d.boundary)):
                failures.append(f"{tag}: direction is special at the boundary")
            elif direction_multiplicity(d.boundary, d.direction) != g_point(d.boundary):
                failures.append(f"{tag}: direction multiplicity below g")
            if meets(gammas[d.fibre], d.direction):
                g = next(g for g in gammas[d.fibre] if d.contains(g))
                failures.append(f"{tag}: vertex {g} lies inside")
            img = disk_image(chain.links[d.fibre], d.direction)
            nxt = chain.next_fibre(d.fibre)
            if img is None:
                failures.append(f"{tag}: image disk not computable")
            elif self.covering(nxt, img) is None:
                failures.append(f"{tag}: image not inside any registry disk")
        if len(self._disks) < self._high_water:
            failures.append("registry shrank")
        self._high_water = max(self._high_water, len(self._disks))
        return failures


# -- disk containment ---------------------------------------------------


def _disk_contained(v1: Direction, v2: Direction) -> bool:
    """D(v1.at, v1) inside D(v2.at, v2); both open disks off their boundary."""
    b1, b2 = v1.at, v2.at
    if b1 == b2:
        return v1 == v2
    if not point_in_direction(v2, b1):
        return False
    return v1 != direction_at(b1, b2)


def _disk_disjoint(v, gammas, extra=()) -> bool:
    """Whether D(v.at, v) holds no vertex of gammas and no point of extra."""
    return not meets(gammas, v) and not any(point_in_direction(v, g) for g in extra)


def _disk_holding(disks, j: int, p: TypeIIPoint) -> Optional[RegistryDisk]:
    """The first of ``disks`` over fibre j that holds p, or None."""
    for d in disks:
        if d.fibre == j and d.contains(p):
            return d
    return None


# -- analyzer: shared orbit machinery --------------------------------------


class _Analyzer:
    """The current vertex family, the registry and the classifications."""

    def __init__(self, chain, gammas, cfg, registry):
        self.chain = chain
        self.cfg = cfg
        self.registry = registry
        self.single = not isinstance(gammas, dict)
        self.gammas = self._normalise(gammas)
        self._cls_cache = {}
        self.walk_failed = False

    def _normalise(self, gammas) -> dict:
        if isinstance(gammas, dict):
            out = {}
            for j in range(self.chain.size):
                if j not in gammas:
                    raise ValueError(f"no vertex set given for fibre {j}")
                out[j] = as_vertex_set(gammas[j])
            return out
        vs = as_vertex_set(gammas)
        return {j: vs for j in range(self.chain.size)}

    def result(self):
        if self.single and self.chain.size == 1:
            return self.gammas[0]
        return dict(self.gammas)

    def vertices(self):
        for j in range(self.chain.size):
            for p in self.gammas[j]:
                yield j, p

    def walk(self, j: int, p: TypeIIPoint, steps: int):
        """Yield (fibre, point) after each of up to ``steps`` pushes.

        A failed push ends the walk and sets ``walk_failed``; a point
        whose |t| passes _T_BOUND is yielded, then ends it.
        """
        self.walk_failed = False
        for _ in range(steps):
            try:
                j, p = self.chain.step(j, p)
            except SkewstabError:
                self.walk_failed = True
                return
            yield j, p
            if abs(p.tn) > _T_BOUND * p.td:
                return

    def extend(self, additions: dict) -> bool:
        changed = False
        for j, pts in additions.items():
            merged = self.gammas[j].union(pts)
            if len(merged) != len(self.gammas[j]):
                self.gammas[j] = merged
                changed = True
        if changed:
            self._flush_classifications()
        return changed

    def set_gammas(self, gammas: dict):
        self.gammas = {j: as_vertex_set(v) for j, v in gammas.items()}
        self._flush_classifications()

    def _flush_classifications(self):
        # J-certificates persist under enlargement; F and Unknown do not
        self._cls_cache = {k: c for k, c in self._cls_cache.items() if c.kind == "J"}

    # -- J search -----------------------------------------------------------

    def _probe_ts(self, lo: Fraction, hi: Fraction):
        """The first 8 radii k/q strictly between lo and hi with
        q <= the probe budget, by denominator and then value."""
        out = []
        for q in range(1, self.cfg.probe_budget + 1):
            # lo < k/q < hi on integers: k from floor(lo*q) + 1 below ceil(hi*q)
            first = lo.numerator * q // lo.denominator + 1
            stop = -(-hi.numerator * q // hi.denominator)
            for k in range(first, stop):
                if math.gcd(k, q) == 1:
                    out.append(Fraction(k, q))
                    if len(out) == 8:
                        return out
        return out

    def _domain_probes(self, j: int, dom: GammaDomain):
        if dom.kind == "annulus":
            outer, inner = dom.boundary
            return [
                TypeIIPoint(inner.center, t) for t in self._probe_ts(outer.t, inner.t)
            ]
        if dom.kind == "disk" and dom.direction is not None:
            b, v = dom.boundary[0], dom.direction
            if v.at_infinity:
                return [
                    TypeIIPoint(b.center, b.t - t)
                    for t in self._probe_ts(Fraction(0), Fraction(2))
                ]
            return [
                TypeIIPoint(v.rep, b.t + t)
                for t in self._probe_ts(Fraction(0), Fraction(2))
            ]
        if dom.kind == "component":
            out = []
            bdry = list(dom.boundary)
            for i, a in enumerate(bdry):
                for b in bdry[i + 1 :]:
                    w = join(a, b)
                    for cand in (w, TypeIIPoint(b.center, (w.t + b.t) / 2)):
                        if domain_contains(dom, self.gammas[j], cand):
                            out.append(cand)
                            if len(out) == 8:
                                return out
            return out
        return []

    def _probe_orbit(self, j: int, p: TypeIIPoint):
        """(steps, path) when the exact orbit reaches the vertex family."""
        path = [(j, p)]
        for jj, pp in self.walk(j, p, _PROBE_HORIZON):
            path.append((jj, pp))
            if pp in self.gammas[jj]:
                return len(path) - 1, tuple(path)
            if self.registry is not None and self.registry.find(jj, pp) is not None:
                return None
        return None

    def _classical_in_domain(self, j: int, dom: GammaDomain, series) -> bool:
        depth = max(b.t for b in dom.boundary) + 2
        if series.precision is not INF and series.precision < depth:
            return False
        try:
            proxy = TypeIIPoint(series, depth)
        except SkewstabError:
            return False
        return domain_contains(dom, self.gammas[j], proxy)

    def _pole_ray_witness(self, j: int, dom: GammaDomain):
        """Exact J-witness on a ray through a pole inside the domain.

        Along such a ray the image level sweeps down without bound, so
        solving the induced interval map for the exact level of a target
        vertex, then replaying the pushforward, gives a one-step witness
        whenever the centres match too.
        """
        link = self.chain.links[j]
        nxt = self.chain.next_fibre(j)
        roots, _descs, _at_inf = link.poles()
        lo = max(b.t for b in dom.boundary)
        for root in roots:
            if not self._classical_in_domain(j, dom, root.series):
                continue
            try:
                pl = induce_interval_map(
                    link, root.series, (lo + Fraction(1, 16), lo + 4)
                )
            except SkewstabError:
                continue
            for target in self.gammas[nxt]:
                cand = _solve_level(pl, target.t, root.series)
                if cand is None or not domain_contains(dom, self.gammas[j], cand):
                    continue
                try:
                    if self.chain.step(j, cand) == (nxt, target):
                        return JDomain(
                            witness=cand,
                            fibre=j,
                            steps=1,
                            path=((j, cand), (nxt, target)),
                        )
                except SkewstabError:
                    continue
        return None

    # -- F search -----------------------------------------------------------

    def _registry_f(self, j: int, v: Direction):
        if self.registry is None:
            return None
        d = self.registry.covering(j, v)
        if d is None:
            img = disk_image(self.chain.links[j], v)
            if img is None:
                return None
            d = self.registry.covering(self.chain.next_fibre(j), img)
        return None if d is None else FCertified(MapsIntoPersistentFDisk(d))

    def _disk_cycle_f(self, j: int, v: Direction):
        disks = [RegistryDisk(j, v)]
        for _ in range(min(self.cfg.horizon, 16)):
            img = disk_image(self.chain.links[j], v)
            if img is None:
                return None
            j, v = self.chain.next_fibre(j), img
            for i, d in enumerate(disks):
                if d.fibre == j and _disk_contained(v, d.direction):
                    ok = all(
                        _disk_disjoint(dk.direction, self.gammas[dk.fibre])
                        for dk in disks
                    )
                    if not ok:
                        return None
                    return FCertified(
                        AttractingCycleCertificate(tuple(disks[i:]), entry=i)
                    )
            disks.append(RegistryDisk(j, v))
        return None

    # -- classification -------------------------------------------------------

    def classify(self, j: int, dom: GammaDomain):
        key = (j, dom)
        hit = self._cls_cache.get(key)
        if hit is not None:
            return hit
        out = self._classify(j, dom)
        self._cls_cache[key] = out
        return out

    def _classify(self, j: int, dom: GammaDomain):
        for probe in self._domain_probes(j, dom):
            res = self._probe_orbit(j, probe)
            if res is not None:
                steps, path = res
                return JDomain(witness=probe, fibre=j, steps=steps, path=path)
        w = self._pole_ray_witness(j, dom)
        if w is not None:
            return w
        if dom.kind == "disk" and dom.direction is not None:
            f = self._registry_f(j, dom.direction)
            if f is not None:
                return f
            f = self._disk_cycle_f(j, dom.direction)
            if f is not None:
                return f
        note = "" if dom.kind == "disk" else "no disk-tracking F route for this shape"
        return Unknown(self.cfg.horizon, note=note)


def _residue_cycle(an: _Analyzer, j: int, residue):
    """Walk a residue class at the Gauss point under the reduced maps.

    Returns (walk, start): the (fibre, residue) pairs visited from
    (j, residue), None standing for infinity, of which walk[start:] is
    the cycle the walk closed.  None when some link lacks good reduction,
    a reduced map meets 0/0, a residue's height passes 10^9, or no cycle
    closes within the horizon.
    """
    links = an.chain.links
    if not all(l.base.is_simple and has_good_reduction(l) for l in links):
        return None
    seen = {}
    walk = []
    cur = residue
    for k in range(an.cfg.horizon):
        if (j, cur) in seen:
            return walk, seen[(j, cur)]
        seen[(j, cur)] = k
        walk.append((j, cur))
        try:
            cur = reduction_mod_x(links[j]).apply(cur)
        except ArithmeticError:
            return None
        j = an.chain.next_fibre(j)
        if cur is not None and (abs(cur.numerator) > 10**9 or cur.denominator > 10**9):
            return None
    return None


def _solve_level(pl: PLMap, level: Fraction, center) -> Optional[TypeIIPoint]:
    """A parameter t with pl(t) == level, as a point on the centre ray."""
    cuts = pl.cuts()
    for i, (s, c) in enumerate(pl.pieces):
        if s == 0:
            continue
        t = (level - c) / s
        if cuts[i] <= t <= cuts[i + 1]:
            return TypeIIPoint(center, t)
    return None


# -- classification entry points -------------------------------------------


def _chain_and_config(chain, cfg):
    """A bare link as a one-link chain, and the default budgets if none."""
    if isinstance(chain, SkewLocal):
        chain = single_chain(chain)
    return chain, cfg if cfg is not None else StabilizationConfig()


def classify_domain(dom, gammas, chain, cfg=None, fibre: int = 0, registry=None):
    """Classify one complement region of the vertex family."""
    chain, cfg = _chain_and_config(chain, cfg)
    return _Analyzer(chain, gammas, cfg, registry).classify(fibre, dom)


@dataclass(frozen=True)
class DestabilisingWitness:
    point: TypeIIPoint
    fibre: int
    image: TypeIIPoint
    image_fibre: int
    domain: GammaDomain
    evidence: JDomain

    @property
    def surface(self) -> str:
        return (
            f"the vertex divisor at {self.point} over fibre {self.fibre} pushes "
            f"into a region from which an exact orbit returns to the vertex "
            f"locus in {self.evidence.steps} step(s); stabilising requires "
            f"blowing up along this orbit"
        )


@dataclass(frozen=True)
class UnresolvedImage:
    point: TypeIIPoint
    fibre: int
    image: TypeIIPoint
    image_fibre: int
    domain: Optional[GammaDomain]
    note: str


@dataclass(frozen=True)
class StabilityReport:
    verdict: str
    witnesses: tuple
    unresolved: tuple
    classifications: tuple  # ((fibre, domain, class), ...)
    notes: tuple = ()

    @property
    def stable(self) -> bool:
        return self.verdict == STABLE

    def structured(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        for note in self.notes:
            lines.append(f"note: {note}")
        for i, w in enumerate(self.witnesses):
            lines.append(f"witness[{i}].point: {w.point} @ fibre {w.fibre}")
            lines.append(f"witness[{i}].image: {w.image} @ fibre {w.image_fibre}")
            lines.append(f"witness[{i}].domain: {w.domain}")
            ev = w.evidence
            lines.append(
                f"witness[{i}].replay: start={ev.witness} fibre={ev.fibre} "
                f"steps={ev.steps} end={ev.path[-1][1]}"
            )
            lines.append(f"witness[{i}].surface: {w.surface}")
        for i, u in enumerate(self.unresolved):
            lines.append(
                f"unresolved[{i}]: {u.point} @ fibre {u.fibre} -> {u.image} "
                f"in {u.domain} ({u.note})"
            )
        for i, (j, dom, cls) in enumerate(self.classifications):
            lines.append(f"domain[{i}]: fibre {j}, {dom}: {cls}")
        return "\n".join(lines)

    def __str__(self):
        return self.structured()


def _hypothesis_notes(chain: Chain):
    if any(l.base.n >= 2 for l in chain.links):
        return (
            "superattracting invariant fibre accepted by hypothesis "
            "(contracting base germ)",
        )
    return ()


def _scan(an: _Analyzer):
    witnesses = []
    unresolved = []
    classifications = []
    seen_domains = set()
    for j, p in an.vertices():
        try:
            j2, img = an.chain.step(j, p)
        except SkewstabError as e:
            unresolved.append(
                UnresolvedImage(p, j, p, j, None, f"pushforward failed: {e}")
            )
            continue
        if img in an.gammas[j2]:
            continue
        dom = locate(an.gammas[j2], img)
        cls = an.classify(j2, dom)
        if (j2, dom) not in seen_domains:
            seen_domains.add((j2, dom))
            classifications.append((j2, dom, cls))
        if cls.kind == "J":
            witnesses.append(DestabilisingWitness(p, j, img, j2, dom, cls))
        elif cls.kind == "unknown":
            unresolved.append(UnresolvedImage(p, j, img, j2, dom, cls.note))
    return tuple(witnesses), tuple(unresolved), tuple(classifications)


def _report(an: _Analyzer) -> StabilityReport:
    witnesses, unresolved, classifications = _scan(an)
    if witnesses:
        verdict = DESTABILISING
    elif unresolved:
        verdict = INCONCLUSIVE
    else:
        verdict = STABLE
    return StabilityReport(
        verdict=verdict,
        witnesses=witnesses,
        unresolved=unresolved,
        classifications=classifications,
        notes=_hypothesis_notes(an.chain),
    )


def is_analytically_stable(gammas, chain, cfg=None, registry=None) -> StabilityReport:
    """Three-valued stability verdict with replayable evidence.

    StableCertified only when every vertex image is a vertex again or
    sits in an F-certified region; any Unknown region downgrades the
    verdict to Inconclusive rather than guessing.
    """
    chain, cfg = _chain_and_config(chain, cfg)
    return _report(_Analyzer(chain, gammas, cfg, registry))


# -- minimal stabilisation --------------------------------------------------


@dataclass(frozen=True)
class StabilisationStep:
    round: int
    fibre: int
    point: TypeIIPoint
    image: TypeIIPoint
    image_fibre: int
    classification: str


def minimal_stabilisation(gammas, chain, cfg=None):
    """Blow up images of destabilising vertices until the family closes.

    Each round adds the pushforward image of every vertex whose image
    escaped into a J region; images in Unknown regions are added too
    (conservative: the loop never claims stability for them, and leaving
    them out could stall the closure short of an honest verdict).  F
    images are left alone.  Returns (vertex family, report, trace);
    raises RoundCapExceeded with the trace attached when the loop does
    not close.
    """
    chain, cfg = _chain_and_config(chain, cfg)
    an = _Analyzer(chain, gammas, cfg, None)
    trace = []
    closed = set()  # images are vertices or additions; the sets only grow
    for rnd in range(1, cfg.max_rounds + 1):
        additions = {}
        for j, p in an.vertices():
            if (j, p) in closed:
                continue
            j2, img = an.chain.step(j, p)
            if img not in an.gammas[j2] and img not in additions.get(j2, ()):
                dom = locate(an.gammas[j2], img)
                cls = an.classify(j2, dom)
                if cls.kind == "F":  # F regions may change as the sets grow
                    continue
                additions.setdefault(j2, set()).add(img)
                trace.append(StabilisationStep(rnd, j, p, img, j2, cls.kind))
            closed.add((j, p))
        if not additions:
            return an.result(), _report(an), trace
        an.extend(additions)
    raise RoundCapExceeded(f"no stabilisation within {cfg.max_rounds} rounds", trace)


# -- smooth stabilisation ----------------------------------------------------


def stabilize_smooth(gammas, chain, cfg=None):
    """Alternate smooth lattice closure with orbit resolution rules.

    Every vertex must resolve through one of, in order: (i) its orbit
    enters a persistent registry disk, (ii) its orbit reaches a vertex,
    (iii) its orbit is exactly preperiodic, (iv) it escapes into a
    verified attracting disk cycle, (v) it falls into a good-reduction
    residue cycle; both disk rules convert the trap into registry disks
    and add the finite orbit segment leading into it.  The loop stops
    when a round adds nothing.  Returns (vertex family, report,
    registry, trace) where the report comes from the independent
    stability checker, never from the loop's own bookkeeping: it shares
    the loop's pushes and disk images, not its classifications.
    """
    chain, cfg = _chain_and_config(chain, cfg)
    registry = PersistentFDiskRegistry()
    an = _Analyzer(chain, gammas, cfg, registry)
    m0 = max((g_point(p) for _, p in an.vertices()), default=1)

    # seed with the folding locus, cut at the working level
    for j, link in enumerate(chain.links):
        try:
            ends = folding_tree(link)
        except SkewstabError:
            ends = []  # the seed is heuristic; skipping it only risks Inconclusive
        if ends:
            seed = tree_lattice_points(
                list(an.gammas[j]) + list(ends) + [gauss_point()], m0
            )
            an.extend({j: set(seed)})

    trace = []
    for rnd in range(1, cfg.max_rounds + 1):
        hulls = {}
        for j in range(chain.size):
            level = max([m0] + [g_point(p) for p in an.gammas[j]])
            hulls[j] = smooth_n_convex_hull(an.gammas[j], level)
        an.set_gammas(hulls)
        audit = registry.audit(an.gammas, chain)

        additions = {}
        unresolved = []
        resolutions = []
        for j, p in an.vertices():
            rule = _resolve_vertex(an, j, p, additions)
            if rule is None:
                unresolved.append((j, p))
            else:
                resolutions.append((j, str(p), rule))
        trace.append(
            {
                "round": rnd,
                "added": sorted(
                    (j, str(p)) for j, pts in additions.items() for p in pts
                ),
                "registry_audit": audit,
                "unresolved": [(j, str(p)) for j, p in unresolved],
                "resolutions": resolutions,
            }
        )
        if an.extend(additions):
            continue
        report = _report(an)
        if unresolved:
            report = replace(
                report,
                verdict=INCONCLUSIVE if report.verdict == STABLE else report.verdict,
                notes=report.notes + (_unresolved_note(cfg.horizon, unresolved),),
            )
        return an.result(), report, registry, trace
    raise RoundCapExceeded(
        f"smooth stabilisation open after {cfg.max_rounds} rounds", trace
    )


#: Unresolved points named in a stabilisation note; the rest are counted.
NOTE_POINTS = 8


def _unresolved_note(horizon: int, unresolved) -> str:
    names = ", ".join(f"{p} @ fibre {j}" for j, p in unresolved[:NOTE_POINTS])
    if len(unresolved) > NOTE_POINTS:
        names += f", ... and {len(unresolved) - NOTE_POINTS} more ({len(unresolved)} in all)"
    return f"no resolution rule applied within horizon {horizon} for: {names}"


def _resolve_vertex(an: _Analyzer, j: int, p: TypeIIPoint, additions):
    """Apply the resolution rules to one vertex; returns the rule name.

    The walk runs to the full horizon before any trap construction, so
    orbits prefer falling into existing registry disks over spawning
    fresh ones.
    """
    path = []
    seen = {(j, p)}
    for jj, pp in an.walk(j, p, an.cfg.horizon):
        if an.registry.find(jj, pp) is not None:
            rule = "registry-disk"
        elif pp in an.gammas[jj] or pp in additions.get(jj, set()):
            rule = "vertex"
        elif (jj, pp) in seen:
            rule = "preperiodic"
        else:
            rule = None
        if rule is not None:
            if not _level_ok(an, path):
                return None
            _add_points(additions, path)
            return rule
        seen.add((jj, pp))
        path.append((jj, pp))
    if an.walk_failed:
        return None
    rule = _attracting_disks(an, path, additions)
    if rule is not None:
        return rule
    return _residue_disks(an, path, additions)


def _add_points(additions, pairs):
    for j, p in pairs:
        additions.setdefault(j, set()).add(p)


def _level_ok(an: _Analyzer, pairs) -> bool:
    """Refuse additions whose lattice level would blow up the hull."""
    return all(g_point(p) <= _MAX_LEVEL for _, p in pairs)


def _escape_index(path):
    """(i, k, inward) for the earliest nested same-fibre pair, else None.

    Earliest means smallest k then smallest i, so a monotone ray yields
    the one-step pair and a single self-mapping trap disk rather than a
    long chain of them.
    """
    for k in range(1, len(path)):
        jk, pk = path[k]
        for i in range(k):
            ji, pi = path[i]
            if ji != jk or pi == pk:
                continue
            d = pk.tn * pi.td - pi.tn * pk.td  # the sign of pk.t - pi.t
            if d > 0 and leq(pk, pi):
                return i, k, True
            if d < 0 and leq(pi, pk):
                return i, k, False
    return None


def _commit_trap(an: _Analyzer, path, additions, disks, rule: str):
    """Register a verified trap once the orbit provably enters it.

    The walk is extended past the recorded (non-empty) path if needed;
    without an entry point the construction is abandoned and nothing is
    committed.
    """
    pre = []
    for jj, q in path:
        if _disk_holding(disks, jj, q) is not None:
            break
        pre.append((jj, q))
    else:
        for jj, q in an.walk(*path[-1], an.cfg.horizon):
            if _disk_holding(disks, jj, q) is not None:
                break
            pre.append((jj, q))
        else:
            return None
    boundaries = [(d.fibre, d.boundary) for d in disks]
    if not _level_ok(an, pre) or not _level_ok(an, boundaries):
        return None
    for d in disks:
        an.registry.add(d)
        additions.setdefault(d.fibre, set()).add(d.boundary)
    _add_points(additions, pre)
    return rule


def _attracting_disks(an: _Analyzer, path, additions):
    """Rule (iv): convert a nested orbit escape into registry disks.

    Boundaries sit on integer levels past every current vertex in the
    class; ``_trap_cycle`` verifies and deepens them.
    """
    hit = _escape_index(path)
    if hit is None:
        return None
    i, k, inward = hit
    period = k - i
    slots = []
    for idx in range(i, k):
        jj, first = path[idx]
        # the deepest centre seen in this slot best approximates the limit:
        # the first of largest t inward, of least t outward
        q = first
        for _, pt in path[idx + period :: period]:
            d = pt.tn * q.td - q.tn * pt.td
            if d > 0 if inward else d < 0:
                q = pt
        if inward:
            deepest = deepest_below(an.gammas[jj], TypeIIPoint(q.center, first.t))
            depth = first.t if deepest is None else deepest
            bound = Fraction(math.floor(depth) + 1)
        else:
            # floor(min t) - 1, read on the integer radii
            floors = [first.tn // first.td] + [g.tn // g.td for g in an.gammas[jj]]
            bound = Fraction(min(floors) - 1)
        slots.append((jj, q.center, bound))
    return _trap_cycle(an, path, additions, slots, inward, "attracting-disk")


def _verify_disk_cycle(an: _Analyzer, disks, additions) -> bool:
    n = len(disks)
    for idx, d in enumerate(disks):
        j, v = d.fibre, d.direction
        if not _disk_disjoint(v, an.gammas[j], additions.get(j, ())):
            return False
        img = disk_image(an.chain.links[j], v)
        if img is None:
            return False
        nxt = disks[(idx + 1) % n]
        if an.chain.next_fibre(j) != nxt.fibre or not _disk_contained(img, nxt.direction):
            return False
    return True


def _residue_disks(an: _Analyzer, path, additions):
    """Rule (v): trap a residue-class orbit under good reduction.

    Only attempted when every link has good reduction and the orbit sits
    in residue classes at the Gauss point whose reduced orbit cycles;
    the cycle becomes registry disks off the Gauss point, deepened on
    conflict by ``_trap_cycle``.
    """
    if not path:
        return None
    j0, q0 = path[0]
    if q0.t <= 0:
        return None
    found = _residue_cycle(an, j0, q0.center.residue())
    if found is None:
        return None
    walk, start = found
    # a disk at the Gauss point needs a finite residue
    if any(r is None for _, r in walk):
        return None
    # level 0 anchors the disks at the Gauss point: the full residue class
    slots = [(jj, as_series(r), Fraction(0)) for jj, r in walk[start:]]
    return _trap_cycle(an, path, additions, slots, True, "residue-cycle")


def _trap_cycle(an: _Analyzer, path, additions, slots, inward: bool, rule: str):
    """Commit the first verified disk cycle built on ``slots``.

    Each (fibre, centre, level) slot gives the disk off zeta(centre,
    level) towards the centre when ``inward``, else towards infinity.
    The cycle is verified by exact disk image containment; on failure
    every boundary moves one level further the same way, up to the probe
    budget.
    """
    step = 1 if inward else -1
    for k in range(an.cfg.probe_budget):
        disks = []
        for jj, c, level in slots:
            b = TypeIIPoint(c, level + k * step)
            v = direction_to_class(b, c) if inward else direction_infinity(b)
            d = RegistryDisk(jj, v)
            if d not in disks:
                disks.append(d)
        if _verify_disk_cycle(an, disks, additions):
            return _commit_trap(an, path, additions, disks, rule)
    return None


# -- wandering Julia evidence -------------------------------------------------


@dataclass(frozen=True)
class WanderingJuliaCertificate:
    """Non-stabilisability evidence from an induced interval model.

    The named vertex generates an infinite orbit (certified by a p-adic
    valuation that strictly decreases along it, ``detect_preperiodic``)
    on an invariant interval that also carries a repelling fixed
    parameter; no finite vertex family closed under the pushforward can
    absorb such an orbit.
    """

    point: TypeIIPoint
    fibre: int
    interval: tuple
    fixed_point: FixedPoint
    orbit: InfiniteByDenominatorGrowth

    def __str__(self):
        lo, hi = self.interval
        return (
            f"wandering Julia certificate at {self.point} (fibre {self.fibre}): "
            f"invariant interval [{lo}, {hi}], repelling fixed parameter "
            f"t = {self.fixed_point.t} (slope {self.fixed_point.slope}), "
            f"infinite orbit from t = {self.orbit.start}"
        )


def _restrict(pl: PLMap, lo: Fraction, hi: Fraction) -> PLMap:
    pieces = []
    breaks = []
    cuts = pl.cuts()
    for i, piece in enumerate(pl.pieces):
        a, b = cuts[i], cuts[i + 1]
        if b <= lo or a >= hi:
            continue
        if pieces:
            breaks.append(max(a, lo))
        pieces.append(piece)
    return PLMap(lo, hi, tuple(breaks), tuple(pieces))


def _invariant_restriction(pl: PLMap, t0: Fraction) -> Optional[PLMap]:
    """The smallest restriction [lo, h] mapped into itself containing t0."""
    cuts = list(pl.cuts())
    candidates = sorted(
        {c for c in cuts + [pl(c) for c in cuts] + [t0, 2 * t0] if t0 <= c <= pl.hi}
    )
    for h in candidates:
        if h <= pl.lo:
            continue
        sub = _restrict(pl, pl.lo, h)
        if all(sub.lo <= sub(c) <= sub.hi for c in sub.cuts()):
            return sub
    return None


def wandering_julia_report(chain, point: TypeIIPoint, cfg=None, fibre: int = 0):
    """Interval-model evidence that the orbit of ``point`` never closes.

    Returns a WanderingJuliaCertificate, or None when the induced model
    shows a finite (preperiodic) orbit or stays inconclusive.  Raises
    NotApplicable when no interval model exists on the point's ray.
    """
    chain, cfg = _chain_and_config(chain, cfg)
    j, p = chain.orbit(fibre, point, max(0, chain.tail - fibre))[-1]
    links = chain.links[j:] + chain.links[chain.tail : j]
    first_return = Chain(links, period=chain.period, tail=0)
    hi = max(Fraction(2), 2 * abs(p.t) + 2)
    try:
        pl = induce_interval_map(first_return, p.center, (Fraction(0), hi))
    except (NotRayInvariant, InsufficientPrecision, NotRepresentable) as e:
        raise NotApplicable(f"no interval model on the ray through {point}: {e}")
    # the model is only iterable when the first return preserves the ray
    probe = TypeIIPoint(p.center, max(abs(p.t), Fraction(1)))
    _, qp = first_return.orbit(0, probe, len(links))[-1]
    if qp.center != p.center.drop_from(qp.t):
        raise NotApplicable(
            f"the first return maps the ray through {point} onto a different ray"
        )
    sub = _invariant_restriction(pl, p.t)
    if sub is None or not (sub.lo <= p.t <= sub.hi):
        return None
    cert = denominator_growth_certificate(sub, p.t, horizon=cfg.horizon)
    if cert is None:
        return None
    repelling = [
        f for f in fixed_points(sub) if isinstance(f, FixedPoint) and f.repelling
    ]
    if not repelling:
        return None
    return WanderingJuliaCertificate(
        point=point,
        fibre=fibre,
        interval=(sub.lo, sub.hi),
        fixed_point=repelling[-1],
        orbit=cert,
    )
