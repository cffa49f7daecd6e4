"""Piecewise-linear radius dynamics along a centre-ray.

The direct image of zeta(a, t) under a skew map, for t sweeping a ray,
has radius exponent T(t) for a continuous piecewise-affine T with
rational slopes and breakpoints.  T is reconstructed by sampling the
exact pushforward at rational parameters, fitting affine pieces, and
re-verifying the fit at fresh parameters; nothing is interpolated
without an exact confirmation.  Orbit analysis of T is exact rational
arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .berkovich import TypeIIPoint
from .errors import FitFailure, NotRayInvariant
from .puiseux import PuiseuxPoly, Rat, rat
from .skew import Chain, SkewLocal, pushforward


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


# -- induction from the pushforward ------------------------------------------


def _radius_image(smap: SkewLocal, center: PuiseuxPoly, t: Fraction) -> TypeIIPoint:
    return pushforward(smap, TypeIIPoint(center, t))


#: How many times induce_interval_map doubles its sampling density.
_REFINEMENTS = 4


def induce_interval_map(source, center: PuiseuxPoly, t_range, samples: int = 8) -> PLMap:
    """Reconstruct the radius-exponent action T on a centre-ray.

    ``source`` is a single skew map or a chain (composed over one
    period).  Samples the pushforward on a rational grid over
    ``t_range``, fits affine pieces with exact breakpoints, then
    verifies at piece midpoints, breakpoints, and endpoints with fresh
    pushforward calls; sampling density doubles on mismatch, up to
    ``_REFINEMENTS`` times.  Images must all lie on a single output ray.
    """
    if isinstance(source, Chain):
        return _induce_chain(source, center, t_range, samples)
    lo, hi = rat(t_range[0]), rat(t_range[1])
    if hi <= lo:
        raise ValueError("empty range")
    for _ in range(_REFINEMENTS):
        grid = [lo + (hi - lo) * Fraction(k, samples) for k in range(samples + 1)]
        images = [_radius_image(source, center, t) for t in grid]
        _check_single_ray(center, images)
        values = [img.t for img in images]
        fit = _fit_pl(lo, hi, grid, values)
        if fit is not None and _verify_fit(source, center, fit):
            return fit
        samples *= 2
    raise FitFailure(
        "piecewise-linear fit did not verify at the density cap", grid[len(grid) // 2]
    )


def _check_single_ray(center, images):
    deepest = max(images, key=lambda img: img.t)
    ref = deepest.center
    for img in images:
        if img.center != ref.drop_from(img.t):
            raise NotRayInvariant(
                f"image centres leave the ray: {img.center} vs {ref} at t = {img.t}"
            )


def _fit_pl(lo, hi, grid, values) -> Optional[PLMap]:
    # affine map through each consecutive sample pair
    affines = []
    for i in range(len(grid) - 1):
        dt = grid[i + 1] - grid[i]
        s = (values[i + 1] - values[i]) / dt
        c = values[i] - s * grid[i]
        affines.append((s, c))
    pieces = [affines[0]]
    breakpoints = []
    for a in affines[1:]:
        if a == pieces[-1]:
            continue
        s0, c0 = pieces[-1]
        s1, c1 = a
        if s0 == s1:
            return None  # parallel mismatch: a breakpoint hides between samples
        b = (c1 - c0) / (s0 - s1)
        if breakpoints and b <= breakpoints[-1]:
            return None
        if not (lo < b < hi):
            return None
        breakpoints.append(b)
        pieces.append(a)
    try:
        return PLMap(lo, hi, tuple(breakpoints), tuple(pieces))
    except ValueError:
        return None


def _verify_fit(smap, center, fit: PLMap) -> bool:
    cuts = fit.cuts()
    probes = set(cuts)
    for i in range(len(cuts) - 1):
        probes.add((cuts[i] + cuts[i + 1]) / 2)
    for t in sorted(probes):
        img = _radius_image(smap, center, t)
        if img.t != fit(t):
            return False
    return True


def _induce_chain(chain: Chain, center, t_range, samples):
    start = chain.tail
    composed = None
    j = start
    c = center
    for _ in range(chain.period):
        link = chain.links[j]
        piece = induce_interval_map(link, c, t_range, samples)
        img = pushforward(link, TypeIIPoint(c, piece.lo))
        composed = piece if composed is None else pl_compose(piece, composed)
        c = img.center
        t_range = (min(piece(x) for x in piece.cuts()), max(piece(x) for x in piece.cuts()))
        if t_range[0] == t_range[1]:
            t_range = (t_range[0], t_range[0] + 1)
        j = chain.next_fibre(j)
    return composed


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
    deferred_from: Optional[Rat]
    window: tuple
    invariant: str

    kind: str = field(default="infinite-by-denominator-growth", init=False)


@dataclass(frozen=True)
class HorizonExceeded:
    horizon: int
    last: Rat

    kind: str = field(default="horizon-exceeded", init=False)


@dataclass(frozen=True)
class GrowthCertificate:
    start: Rat
    window: tuple
    invariant: str


@dataclass(frozen=True)
class GrowthFailure:
    reason: str
    step: Optional[int] = None


def _is_pow2(n: int) -> bool:
    return n & (n - 1) == 0


def denominator_growth_certificate(pl: PLMap, t, window: int = 50):
    """Infinite-orbit certificate for the dyadic-odd invariant family.

    Applies only when every piece has slope (odd)/2 and a dyadic
    intercept, the domain is forward-invariant, and t is a reduced
    odd/2^n fraction.  Verifies the window step by step (odd numerator,
    strictly growing power-of-two denominator) and checks the window
    outruns every intercept scale, after which the growth is automatic:
    (odd/2)*(a/2^n) + p/2^j has reduced denominator exactly 2^(n+1)
    once n + 1 > j.  Returns GrowthCertificate or GrowthFailure.
    """
    t = rat(t)
    j_max = 0
    for s, c in pl.pieces:
        if s.denominator != 2 or s.numerator % 2 == 0:
            return GrowthFailure(f"slope {s} is not an odd multiple of 1/2")
        if not _is_pow2(c.denominator):
            return GrowthFailure(f"intercept {c} is not dyadic")
        j_max = max(j_max, c.denominator.bit_length() - 1)
    vals = [pl(x) for x in pl.cuts()]
    if min(vals) < pl.lo or max(vals) > pl.hi:
        return GrowthFailure("domain is not forward-invariant")
    if not _is_pow2(t.denominator) or t.numerator % 2 == 0:
        return GrowthFailure(f"start {t} is not a reduced odd/2^n fraction")
    orbit = [t]
    cur = t
    for k in range(window):
        nxt = pl(cur)
        if nxt.numerator % 2 == 0 or not _is_pow2(nxt.denominator):
            return GrowthFailure("image left the dyadic-odd family", step=k + 1)
        # growth is only guaranteed once 1/2^(n+1) is finer than every
        # intercept; before that only family membership is required
        if cur.denominator >= 2**j_max and nxt.denominator <= cur.denominator:
            return GrowthFailure("denominator failed to grow", step=k + 1)
        orbit.append(nxt)
        cur = nxt
    if cur.denominator <= 2 ** (j_max + 1):
        return GrowthFailure("window too short to outrun the intercept scales")
    return GrowthCertificate(t, tuple(orbit), "odd/2^n with strictly growing n")


def detect_preperiodic(pl: PLMap, t, horizon: int = 64):
    """Classify the orbit of t: exact cycle, certified infinite, or open.

    Cycle detection is exact set membership on rationals.  If no repeat
    occurs within the horizon, the denominator-growth certificate is
    attempted at each early orbit point (the start may need a few steps
    to enter the dyadic family).
    """
    t = rat(t)
    orbit = [t]
    seen = {t: 0}
    cur = t
    for _ in range(horizon):
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
    for k in range(min(len(orbit), 16)):
        cert = denominator_growth_certificate(pl, orbit[k], window=50)
        if isinstance(cert, GrowthCertificate):
            return InfiniteByDenominatorGrowth(
                orbit[k],
                t if k else None,
                cert.window,
                cert.invariant,
            )
    return HorizonExceeded(horizon, orbit[-1])
