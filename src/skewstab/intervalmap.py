"""Piecewise-linear radius dynamics along a centre-ray.

The direct image of zeta(a, t) under a skew map, for t sweeping a ray,
has radius exponent T(t) for a continuous piecewise-affine T with
rational slopes and breakpoints.  The push table of the fibre map
shifted to the centre (``SkewLocal.push_table``) owns T: it keeps it
stretch by stretch between the crossings of its integer lines, each
stretch with its winning candidate centre, and every push on the ray
reads the same stretches (``PushTable.stretch``).  A link's map is the
table's T restricted to the range (``PushTable.ray_map``), so an
interval map is a statement about the map the pushes compute.  Each
winning candidate's centre is transported once, at the deepest stretch
end it wins, and gives its image ray; the rays must agree, or the map
is not ray-invariant.  Orbit analysis of T is exact rational arithmetic
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotRayInvariant
from .puiseux import PuiseuxPoly, Rat, rat
from .skew import Chain, SkewLocal, image_point


@dataclass(frozen=True)
class PLMap:
    """Continuous piecewise-affine map on a closed interval.

    pieces[i] = (slope, intercept) applies on [cuts[i], cuts[i+1]] where
    cuts = (lo, *breakpoints, hi); adjacent pieces agree at breakpoints.
    """

    lo: Rat
    hi: Rat
    breakpoints: tuple
    pieces: tuple

    def __post_init__(self):
        if self.hi <= self.lo:
            raise ValueError("empty interval")
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise ValueError("piece count must be breakpoint count + 1")
        cuts = (self.lo, *self.breakpoints, self.hi)
        for i in range(len(cuts) - 1):
            if cuts[i + 1] <= cuts[i]:
                raise ValueError("breakpoints must be strictly increasing inside the domain")
        for i, b in enumerate(self.breakpoints):
            s0, c0 = self.pieces[i]
            s1, c1 = self.pieces[i + 1]
            if s0 * b + c0 != s1 * b + c1:
                raise ValueError(f"discontinuous at breakpoint {b}")

    def __call__(self, t) -> Fraction:
        t = rat(t)
        if t < self.lo or t > self.hi:
            raise ValueError(f"{t} outside domain [{self.lo}, {self.hi}]")
        s, c = _piece_at(self, t)
        return s * t + c

    def cuts(self):
        return (self.lo, *self.breakpoints, self.hi)

    def table(self) -> str:
        cuts = self.cuts()
        lines = []
        for i, (s, c) in enumerate(self.pieces):
            rhs = _affine_str(s, c)
            lines.append(f"[{cuts[i]}, {cuts[i + 1]}]: T(t) = {rhs}")
        return "\n".join(lines)

    def __str__(self):
        return self.table().replace("\n", "; ")


def _affine_str(s, c) -> str:
    if s == 0:
        return str(c)
    st = "t" if s == 1 else ("-t" if s == -1 else f"{s}*t")
    if c == 0:
        return st
    return f"{st} + {c}" if c > 0 else f"{st} - {-c}"


# -- induction from the Gauss valuations ---------------------------------------


def induce_interval_map(source, center: PuiseuxPoly, t_range) -> PLMap:
    """The exact radius-exponent action T on the ray through ``center``.

    ``source`` is a single skew map or a chain (composed over one
    period).  Raises NotRayInvariant when the images leave a single
    output ray, InsufficientPrecision when truncated coefficients leave
    T undecidable somewhere on ``t_range``.
    """
    lo, hi = rat(t_range[0]), rat(t_range[1])
    if hi <= lo:
        raise ValueError("empty range")
    if not isinstance(source, Chain):
        return _induce_link(source, center, lo, hi)[0]
    composed = None
    j = source.tail
    for _ in range(source.period):
        piece, center = _induce_link(source.links[j], center, lo, hi)
        composed = piece if composed is None else pl_compose(piece, composed)
        values = [piece(x) for x in piece.cuts()]
        lo, hi = min(values), max(values)
        if lo == hi:
            hi = lo + 1
        j = source.next_fibre(j)
    return composed


def _induce_link(smap: SkewLocal, center, lo, hi):
    """The map of one link on [lo, hi], and the centre of its image ray.

    The link's push table at the centre (``SkewLocal.push_table``) hands
    out T on [lo, hi] stretch by stretch, each with its winning candidate
    (``PushTable.ray_map``); adjacent equal pieces merge.  A candidate's
    centre is one series, so one transport at the deepest stretch end it
    wins reads its image ray; the rays of all winners must agree.
    """
    table = smap.push_table(center)
    breakpoints, pieces, deepest = [], [], {}
    for t0, t1, j, piece in table.ray_map(lo, hi):
        if not pieces or piece != pieces[-1]:
            if pieces:
                breakpoints.append(t0)
            pieces.append(piece)
        s, c = piece
        T = max(s * t0, s * t1) + c
        deepest[j] = max(T, deepest.get(j, T))
    images = [
        image_point(smap.base, *table.ratio(j), T.numerator, T.denominator) for j, T in deepest.items()
    ]
    ray = max(images, key=lambda img: img.t)
    for img in images:
        if img.center != ray.center.drop_from(img.t):
            raise NotRayInvariant(
                f"image centres leave the ray: {img.center} vs {ray.center} at t = {img.t}"
            )
    return PLMap(lo, hi, tuple(breakpoints), tuple(pieces)), ray.center


def pl_compose(outer: PLMap, inner: PLMap) -> PLMap:
    """outer after inner; inner's range must land inside outer's domain."""
    cuts = list(inner.cuts())
    pieces = list(inner.pieces)
    new_cuts = set(cuts)
    for i, (s, c) in enumerate(pieces):
        a, b = cuts[i], cuts[i + 1]
        va, vb = s * a + c, s * b + c
        if min(va, vb) < outer.lo or max(va, vb) > outer.hi:
            raise ValueError("inner range escapes outer domain")
        if s != 0:
            for beta in outer.breakpoints:
                t = (beta - c) / s
                if a < t < b:
                    new_cuts.add(t)
    ordered = sorted(new_cuts)
    out_pieces = []
    for i in range(len(ordered) - 1):
        mid = (ordered[i] + ordered[i + 1]) / 2
        v = inner(mid)
        s_in, c_in = _piece_at(inner, mid)
        s_out, c_out = _piece_at(outer, v)
        out_pieces.append((s_out * s_in, s_out * c_in + c_out))
    merged_cuts = [ordered[0]]
    merged_pieces = [out_pieces[0]]
    for i in range(1, len(out_pieces)):
        if out_pieces[i] == merged_pieces[-1]:
            continue
        merged_cuts.append(ordered[i])
        merged_pieces.append(out_pieces[i])
    merged_cuts.append(ordered[-1])
    return PLMap(
        merged_cuts[0],
        merged_cuts[-1],
        tuple(merged_cuts[1:-1]),
        tuple(merged_pieces),
    )


def _piece_at(pl: PLMap, t):
    idx = 0
    for b in pl.breakpoints:
        if t < b:
            break
        idx += 1
    return pl.pieces[idx]


# -- orbits -------------------------------------------------------------------


class Orbit(list):
    """Orbit prefix [t0, ..., tn]; ``escaped`` marks early truncation."""

    def __init__(self, items, escaped=False):
        super().__init__(items)
        self.escaped = escaped


def iterate(pl: PLMap, t, n: int) -> Orbit:
    t = rat(t)
    orbit = [t]
    for _ in range(n):
        if t < pl.lo or t > pl.hi:
            return Orbit(orbit, escaped=True)
        t = pl(t)
        orbit.append(t)
    return Orbit(orbit)


@dataclass(frozen=True)
class FixedPoint:
    t: Rat
    slope: Rat

    @property
    def repelling(self) -> bool:
        return abs(self.slope) > 1


@dataclass(frozen=True)
class FixedInterval:
    lo: Rat
    hi: Rat
    slope: Rat = Fraction(1)

    @property
    def repelling(self) -> bool:
        return False


def fixed_points(pl: PLMap):
    """All solutions of T(t) = t, per piece; identity pieces come back
    as whole fixed intervals."""
    out = []
    cuts = pl.cuts()
    for i, (s, c) in enumerate(pl.pieces):
        a, b = cuts[i], cuts[i + 1]
        if s == 1:
            if c == 0:
                out.append(FixedInterval(a, b))
            continue
        t = c / (1 - s)
        if a <= t <= b:
            out.append(FixedPoint(t, s))
    intervals = [fp for fp in out if isinstance(fp, FixedInterval)]
    dedup = []
    for fp in out:
        if isinstance(fp, FixedPoint):
            if any(iv.lo <= fp.t <= iv.hi for iv in intervals):
                continue
            if any(isinstance(q, FixedPoint) and q.t == fp.t for q in dedup):
                continue
        dedup.append(fp)
    return dedup


# -- orbit certificates --------------------------------------------------------


@dataclass(frozen=True)
class Preperiodic:
    tail: tuple
    cycle: tuple

    kind: str = field(default="preperiodic", init=False)


@dataclass(frozen=True)
class InfiniteByDenominatorGrowth:
    start: Rat
    window: tuple
    invariant: str
    prime: int

    kind: str = field(default="infinite-by-denominator-growth", init=False)


@dataclass(frozen=True)
class HorizonExceeded:
    horizon: int
    last: Rat

    kind: str = field(default="horizon-exceeded", init=False)


def _is_pow2(n: int) -> bool:
    return n & (n - 1) == 0


def _prime_factors(g: int) -> list:
    """The primes dividing g >= 1, in increasing order."""
    out, q = [], 2
    while q * q <= g:
        if g % q == 0:
            out.append(q)
            while g % q == 0:
                g //= q
        q += 1
    return out + [g] if g > 1 else out


def _forward_invariant(pl: PLMap) -> bool:
    vals = [pl(x) for x in pl.cuts()]
    return pl.lo <= min(vals) and max(vals) <= pl.hi


def detect_preperiodic(pl: PLMap, t, horizon: int = 64):
    """Classify the orbit of t: exact cycle, certified infinite, or open.

    Cycle detection is exact set membership on rationals.  Each orbit
    point t_k is first tested at every prime p dividing every slope's
    denominator (v_p(s_i) = -a_i < 0), in increasing order: if
    v_p(s_i*t_k) < v_p(c_i) on every piece, then v_p(T(t_k)) = v_p(t_k) - a_i
    and the test holds again, so on a forward-invariant domain v_p falls
    strictly from t_k on and no point up to t_k is periodic.  The first
    prime that holds is the certificate's.  A start outside [lo, hi]
    raises as T does.
    """
    t = rat(t)
    if t < pl.lo or t > pl.hi:
        raise ValueError(f"{t} outside domain [{pl.lo}, {pl.hi}]")
    primes = []
    if _forward_invariant(pl):
        primes = _prime_factors(math.gcd(*(s.denominator for s, _ in pl.pieces)))
    orbit = [t]
    seen = {t: 0}
    cur = t
    for k in range(horizon):
        holds = (q for q in primes if all((s * cur / c).denominator % q == 0 for s, c in pl.pieces if c))
        p = next(holds, None) if cur else None
        if p:
            dyadic = cur.numerator % 2 and _is_pow2(cur.denominator) and all(
                s.denominator == 2 and _is_pow2(c.denominator) for s, c in pl.pieces)
            why = "odd/2^n with strictly growing n" if dyadic else (
                f"{p}-adic valuation strictly decreasing from step {k}")
            return InfiniteByDenominatorGrowth(cur, tuple(orbit), why, p)
        if cur < pl.lo or cur > pl.hi:
            break
        cur = pl(cur)
        if cur in seen:
            i = seen[cur]
            tail = tuple(orbit[:i])
            cycle = tuple(orbit[i:])
            replay = cycle[0]
            for _ in cycle:
                replay = pl(replay)
            assert replay == cycle[0], "cycle failed exact re-iteration"
            return Preperiodic(tail, cycle)
        seen[cur] = len(orbit)
        orbit.append(cur)
    return HorizonExceeded(horizon, orbit[-1])


def denominator_growth_certificate(pl: PLMap, t, horizon: int = 64):
    """The infinite-orbit certificate of t: the InfiniteByDenominatorGrowth
    that ``detect_preperiodic`` finds within ``horizon`` steps, or None."""
    cert = detect_preperiodic(pl, t, horizon)
    return cert if isinstance(cert, InfiniteByDenominatorGrowth) else None
