"""Local models of rational skew products and their action on disk points.

A local model is a pair ``(phi1, phi2)``: a base germ ``phi1`` fixing
x = 0 with ``phi1(x) = lam*x^n*(1 + h.o.t.)``, and a fibre map ``phi2``
given as a ratio of two polynomials in y with Puiseux-series
coefficients.  The model acts on disk points of the fibre: the image
seminorm of ``zeta(a, t)`` evaluates ``f`` at ``|phi2-pullback of f|^(1/n)``.

The pushforward below computes that image point exactly.  Writing
``P(tau) = num(a + tau)`` and ``Q(tau) = den(a + tau)``, the image radius
exponent is ``(1/n) * max_k [vG(P - w_k*Q) - vG(Q)]`` where ``vG`` is the
Gauss valuation at level t and the maximum runs over the coefficient
ratios ``w_k = P_k/Q_k``: an ultrametric argument shows some such ratio
attains the global maximum, and the maximiser is the new centre (up to
the usual truncation) after transport through the inverse of the base
germ.

One reader of the radius serves ``pushforward`` and the interval map:
``candidate_lines`` reads each candidate's vG(P - w_k*Q) off
D_k = Q_k*P - P_k*Q, since P - w_k*Q = D_k/Q_k, so the maximum is
decided with no series inverted.  None of this depends on t, so a link
keeps it per centre as integer lines, in a ``PushTable`` built on the
first push there (``SkewLocal.push_table``, by ``build_push_table``).
The build runs on integer slots and reads each shifted coefficient only
as far as it needs: ``TaylorShift`` sets up the shift of num and den to
the centre over one lattice and one denominator, and the table is built
from the lowest slot of every P_i and Q_i (``TaylorShift.leads``), the
Taylor shift's integer convolution stopped at the first nonzero slot
below the precision.  Each entry D_ki of a D_k is read only down to its
lowest nonzero slot, which its two products' leading slots decide
unless they cancel; only then are the four coefficients read in full.
The lines leave as integers on the table's lattice, with no Fraction
built per line; the Fraction lines of ``gauss_lines`` serve
``gauss_val`` alone.  A candidate's ratio (P_k, Q_k) is built in full
on its first read (``PushTable.ratio``), by the push it wins or by the
interval map.  At the centre 0 the coefficients are the fibre map's own,
and nothing is shifted.  The table owns its ray's map T(t) = r(t)/n,
kept stretch by stretch between crossings of the lines: a push reads T
there as the integers (tn, td), and the interval map reads the same
stretches.  Only the winning ratio is inverted, once, and a winning P_k
of zero needs no transport:

* It is read to ``O(x^(T*n + 1))``, as an image point keeps only the
  centre terms below its radius T; over an exact monomial Q_k it is a
  respread and a scale of P_k's slots (``puiseux._over_monomial``).
* The inverse g of the base germ must be known to
  ``O(x^(T + 1 + (1 - val(w))/n))``, what composing the winning ratio w
  with it to ``O(x^(T + 1))`` consumes; that bound and T + 1 are
  compared and passed as integer pairs.  The germ keeps one reversion,
  Lagrange inversion on the germ's integer slots (``puiseux.reversion``),
  grows it geometrically and hands it over whole (``BaseGerm.inverse_to``).
* w(g) is ``puiseux._compose`` on integer slots, and the centre is cut
  at T by lattice index.  The inverse of a monomial germ lam*x^n is the
  one slot lam^(-1/n)*x^(1/n), so the transport respreads w's slots
  with their root powers: no series product and no Miller run.  A push
  builds no ``Fraction`` when the germ's roots are integers and Q_k is
  an exact monomial.

The image of a tangent direction is read off the same tables, exactly
(``pushforward_direction``): between two crossings of a table's lines
(``PushTable.cuts``) the radius is affine and one candidate wins,
so one push on the ray into the direction, short of its first crossing,
gives the direction at the image.  An open disk with no pole, or no
zero, inside maps onto the disk off the image of its boundary in that
direction (Baker-Rumely; Benedetto), which ``disk_image`` returns.

A link keeps what it computes, each a pure function of the link and its
input: a push table per centre, an image per pushed point
(``pushforward``), a disk image per direction (``disk_image``, None
included), its poles, zeros, critical points and reduction mod x, and
its base germ's inverse.  A push or a reduction that raises keeps
nothing.  Every caller shares these memos, and they die with the link.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .berkovich import Direction, TypeIIPoint, _point, classical_in_direction, direction_at
from .errors import DegenerateImage, InsufficientPrecision, SkewstabError, ValidationFailure
from .puiseux import (
    INF,
    PuiseuxPoly,
    _canon,
    _ceil,
    _compose,
    _over_monomial,
    as_series,
    rat,
    reversion,
)
from .roots import (
    TaylorShift,
    frac_divmod,
    frac_trim,
    newton_puiseux,
    poly_add,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_trim,
    ratio_str,
    shift_poly,
)

ZERO = PuiseuxPoly.zero()


class BaseGerm:
    """Germ ``phi1`` at x = 0 with positive integer valuation n."""

    __slots__ = ("series", "n", "_inverse")

    def __init__(self, series):
        series = as_series(series)
        v = series.val()
        if v is INF or v <= 0 or v.denominator != 1:
            raise ValueError("base germ needs phi1(0) = 0 with integer valuation >= 1")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "n", int(v))
        object.__setattr__(self, "_inverse", None)

    def __setattr__(self, name, value):
        raise AttributeError("BaseGerm is immutable")

    @property
    def is_simple(self) -> bool:
        return self.n == 1

    def inverse_to(self, num: int, den: int) -> PuiseuxPoly:
        """The compositional inverse of the germ, known at least to
        O(x^(num/den)), den > 0.

        The germ keeps one reversion, the most precise computed so far,
        and returns it whole for any lower request: its reader cuts it.
        A higher request recomputes it at no less than twice the kept
        precision, so a run of rising requests costs about as much as its
        last one, and a request it meets builds no ``Fraction``.
        """
        g = self._inverse
        if g is None or g.precision.numerator * den < num * g.precision.denominator:
            need = Fraction(num, den)
            g = reversion(self.series, need if g is None else max(need, 2 * g.precision))
            object.__setattr__(self, "_inverse", g)
        return g

    def __str__(self):
        return str(self.series)


def _visible_degree(coeffs) -> int:
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c:
            return i
        if c.precision is not INF:
            raise InsufficientPrecision(f"degree undecidable: coefficient {i} truncated")
    return 0


class SkewLocal:
    """One local model: base germ plus fibre map num/den in y."""

    __slots__ = (
        "base", "num", "den", "label", "_poles", "_crit", "_zeros", "_reduction",
        "_tables", "_pushes", "_images", "__weakref__",
    )

    def __init__(self, base: BaseGerm, num, den, label: str = ""):
        num = poly_trim([as_series(c) for c in num])
        den = poly_trim([as_series(c) for c in den])
        if all(not c for c in den):
            raise ValueError("fibre map denominator is zero")
        if all(not c for c in num):
            raise ValueError("fibre map numerator is zero")
        if _proportional(num, den):
            raise ValueError("fibre map is constant in y (degenerate skew product)")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_poles", None)
        object.__setattr__(self, "_crit", None)
        object.__setattr__(self, "_zeros", None)
        object.__setattr__(self, "_reduction", None)
        object.__setattr__(self, "_tables", {})
        object.__setattr__(self, "_pushes", {})
        object.__setattr__(self, "_images", {})

    def __setattr__(self, name, value):
        raise AttributeError("SkewLocal is immutable")

    @property
    def rdeg(self) -> int:
        return max(_visible_degree(self.num), _visible_degree(self.den))

    def phi2_eval(self, b, precision=None) -> PuiseuxPoly:
        b = as_series(b)
        top = poly_eval(self.num, b)
        bot = poly_eval(self.den, b)
        return top * bot.inv(precision=precision)

    def poles(self):
        """Fibre poles: roots of the denominator, plus a flag for infinity."""
        if self._poles is None:
            roots, descs = newton_puiseux(list(self.den))
            at_inf = _visible_degree(self.num) > _visible_degree(self.den)
            object.__setattr__(self, "_poles", (roots, descs, at_inf))
        return self._poles

    def zeros(self):
        """Fibre zeros: roots of the numerator."""
        if self._zeros is None:
            object.__setattr__(self, "_zeros", newton_puiseux(list(self.num)))
        return self._zeros

    def push_table(self, center) -> "PushTable":
        """The push table of the fibre map shifted to ``center``, built on
        the first request and kept; a build that raises keeps nothing."""
        table = self._tables.get(center)
        if table is None:
            table = self._tables[center] = build_push_table(self, center)
        return table

    def __str__(self):
        lbl = f"[{self.label}] " if self.label else ""
        return f"{lbl}phi1 = {self.base}, phi2 = {ratio_str(self.num, self.den)}"


def _proportional(num, den) -> bool:
    """Exact cross-ratio test: num_i*den_j == num_j*den_i for all i, j.

    Exact series have no zero divisors, so it suffices to test every i
    against the first k with den_k != 0: (num_i*den_j - num_j*den_i)*den_k
    is num_i*den_k*den_j - num_j*den_k*den_i = 0 when both hold against k.
    A truncated coefficient leaves it undecided, read as False.
    """
    if any(c.precision is not INF for c in list(num) + list(den)):
        return False
    n = max(len(num), len(den))
    num, den = [*num, *[ZERO] * (n - len(num))], [*den, *[ZERO] * (n - len(den))]
    k = next((k for k, c in enumerate(den) if c), None)
    return k is None or all(a * den[k] == num[k] * b for a, b in zip(num, den))


# -- Gauss valuations ----------------------------------------------------------


def gauss_lines(coeffs):
    """``(i, val c_i)`` for the nonzero coefficients and ``(i, precision)``
    for the truncated zero ones: what ``gauss_val`` reads at a level t."""
    lines, bounds = [], []
    for i, c in enumerate(coeffs):
        if c:
            lines.append((i, c.val()))
        elif c.precision is not INF:
            bounds.append((i, c.precision))
    return lines, bounds


def gauss_val(coeffs, t):
    """min_i (val(c_i) + t*i) with honest handling of truncated zeros.

    Returns INF when the polynomial is exactly zero; raises when a
    truncated coefficient could undercut the visible minimum.
    """
    t = rat(t)
    lines, bounds = gauss_lines(coeffs)
    if not lines:
        if bounds:
            raise InsufficientPrecision("Gauss valuation of an all-truncated polynomial")
        return INF
    best = min(v + t * i for i, v in lines)
    for i, p in bounds:
        if p + t * i < best:
            raise InsufficientPrecision(
                f"truncated coefficient (bound {p + t * i}) could undercut Gauss valuation {best}"
            )
    return best


# -- pushforward ----------------------------------------------------------------


def _product_precision(pa, fa, pb, fb):
    """The precision of a*b, as ``PuiseuxPoly.__mul__`` gives it, from
    each factor's precision p and ``val_floor`` f."""
    prec = INF if pa is INF else pa + fb
    if pb is not INF:
        prec = min(prec, pb + fa)
    return prec


def candidate_lines(P, Q):
    """The Gauss lines of Q and of each candidate centre, read without
    inverting, as ``(L, den, cands)``.

    P and Q are the fibre map's num and den shifted to a centre, as
    ``TaylorShift``s.  For each k with Q_k != 0, ``cands`` holds
    ``(k, lines, bounds)``, those of D_k = Q_k*P - P_k*Q lowered by
    val Q_k: read as ``gauss_val`` reads them, they give vG(P - w_k*Q)
    for w_k = P_k/Q_k.  ``den`` holds Q's lines.  A line ``(i, u)`` of
    ``gauss_lines`` leaves as the integers ``(u*L, i*L)``, L the lcm of
    the shifts' lattices 1/N and of the denominators of the bounds.

    Every P_i and Q_i is read only down to its lowest slot below its
    precision (``TaylorShift.leads``), which gives its lines, whether it
    is an exact zero, and its precision and ``val_floor``.  Each
    D_ki = P_i*Q_k - P_k*Q_i is read on integer slots of 1/N only down
    to its lowest nonzero slot below its precision: the two products'
    leading slots decide it unless they cancel, and only then are the
    four coefficients read in full and the convolution run.  D_kk is
    zero, known to the precision of P_k*Q_k, with no arithmetic, and
    D_ik = -D_ki is read once.  A product is skipped only when a factor
    is an exact zero, so a truncated zero P_k keeps the bounds of its
    products P_k*Q_i; that of D_kk says how far w_k is known.
    """
    n = max(len(P), len(Q))
    N = math.lcm(P.N, Q.N)
    dp, dq = P.den, Q.den
    lp, lq = _leads_on(P, N, n), _leads_on(Q, N, n)
    pp, pq = P.precisions + [INF] * (n - len(P)), Q.precisions + [INF] * (n - len(Q))
    truncated = pp.count(INF) + pq.count(INF) < 2 * n
    iN = range(0, n * N, N)  # a line's i, times N

    def slots(c, d):
        # c*d as (index, numerator) pairs on 1/N, lowest first
        s, f = N // c.N, d // c.den
        return [((c.lo + x) * s, u * f) for x, u in enumerate(c.nums) if u]

    def floor(lead, prec):
        return prec if lead is None else Fraction(lead[0], N)

    def bounded(k, i, low):
        """The least slot ``low`` of D_ki if it lies below D_ki's
        precision, else that precision, or None for an exact zero."""
        a, b, c, d = lp[i], lq[k], lp[k], lq[i]
        prec = INF
        if a or pp[i] is not INF:
            prec = _product_precision(pp[i], floor(a, pp[i]), pq[k], floor(b, pq[k]))
        if d or pq[i] is not INF:
            prec = min(prec, _product_precision(pp[k], floor(c, pp[k]), pq[i], floor(d, pq[i])))
        if low is not None and (prec is INF or low < _ceil(prec, N)):
            return low
        return None if prec is INF else prec

    raw, read = [], [None] * n
    for k in range(n):
        b, c = lq[k], lp[k]
        if b is None:
            if pq[k] is not INF:
                raise InsufficientPrecision(
                    f"candidate ratio at y-degree {k} blocked by truncated coefficient"
                )
            continue
        vq = b[0]
        if c is None and pp[k] is INF:  # w_k = 0, so D_k lowered by val Q_k is P
            lines = [(a[0], iN[i]) for i, a in enumerate(lp) if a]
            bounds = [(p, i) for i, (a, p) in enumerate(zip(lp, pp)) if a is None and p is not INF]
            raw.append((k, lines, bounds))
            continue
        # D_ki as its least slot (an int), its precision (a Fraction) or None
        lines, bounds, got = [], [], [None] * n
        for i in range(n):
            if read[i]:  # D_ki = -D_ik, read already as i is a candidate before k
                u = read[i][k]
            else:
                a, d, u = lp[i], lq[i], None
                if i == k:
                    pass
                elif a and c and d:
                    if a[0] + b[0] != c[0] + d[0]:
                        u = min(a[0] + b[0], c[0] + d[0])
                    elif a[1] * b[1] != c[1] * d[1]:
                        u = a[0] + b[0]
                    else:  # the leading slots cancel
                        acc = {}
                        for f, g, sign in ((P[i], Q[k], 1), (P[k], Q[i], -1)):
                            g = slots(g, dq)
                            for x, v in slots(f, dp):
                                for y, w in g:
                                    acc[x + y] = acc.get(x + y, 0) + sign * v * w
                        u = min((x for x, v in acc.items() if v), default=None)
                elif a:
                    u = a[0] + b[0]
                elif c and d:
                    u = c[0] + d[0]
                if truncated:
                    u = bounded(k, i, u)
            got[i] = u
            if u is None:
                continue
            if type(u) is int:
                lines.append((u - vq, iN[i]))
            else:
                bounds.append((u - Fraction(vq, N), i))
        read[k] = got
        raw.append((k, lines, bounds))
    L = math.lcm(N, *(u.denominator for *_, bounds in raw for u, _ in bounds)) if truncated else N
    s = L // N

    def scaled(k, lines, bounds):
        if s != 1:
            lines = [(u * s, x * s) for u, x in lines]
        if bounds:
            bounds = [(u.numerator * (L // u.denominator), i * L) for u, i in bounds]
        return k, tuple(lines), tuple(bounds)

    den = tuple([(a[0] * s, iN[i] * s) for i, a in enumerate(lq) if a])
    return L, den, tuple(scaled(*c) for c in raw)


def _leads_on(R, N, n):
    """``R.leads()`` on the lattice 1/N, padded with None to n."""
    s = N // R.N
    out = R.leads() if s == 1 else [x and (x[0] * s, x[1]) for x in R.leads()]
    return out + [None] * (n - len(out))


def build_push_table(s: SkewLocal, center) -> "PushTable":
    """The push table of the link's fibre map shifted to ``center``: set
    up the shifts of P and Q there, read the candidates' lines off their
    lowest slots, and keep them."""
    P, Q = TaylorShift(s.num, center), TaylorShift(s.den, center)
    return PushTable(P, Q, *candidate_lines(P, Q), s.base.n)


class PushTable:
    """What a push at one centre reads, on one lattice 1/L, and its ray's
    map T(t) = r(t)/n.

    ``den`` is Q's lines and ``cands`` each candidate's
    ``(k, lines, bounds)``, as ``candidate_lines`` gives them: each line
    or bound ``(i, u)`` is stored as the integer pair ``(u*L, i*L)``.
    At t = a/b the value u + t*i is ``(u*L*b + i*L*a)/(L*b)``.  Every
    line at one t shares that denominator, so a push compares the
    numerators, the lines' scores.  The table keeps the shifts of P and
    Q, and a candidate's ratio ``(P_k, Q_k)`` is read through ``ratio``,
    built in full on its first read.

    T is kept stretch by stretch (``stretch``): between two sorted
    crossings (``cuts``) no two distinct lines cross, so the first point
    read fixes the winner j and T = (du*b + di*a)/(L*n*b) as ``(du, di)``.
    Pushes (``radius``) and the interval map (``ray_map``) read these
    stretches.  A first push, a push on a crossing, and a table with a
    bound or a candidate with no line read the same fill unstored, so a
    table serving one push sorts nothing.
    """

    __slots__ = (
        "L", "_Ln", "den", "cands", "_P", "_Q", "_ratios", "_plain", "_served", "_cuts", "_grid",
        "_stretches",
    )

    def __init__(self, P, Q, L, den, cands, n):
        self.L, self._Ln, self.den, self.cands = L, L * n, den, cands
        self._P, self._Q, self._ratios = P, Q, [None] * len(cands)
        # Q has lines and no bound, as a truncated zero Q_k blocks the build
        self._plain = all(lines and not bounds for _, lines, bounds in cands)
        self._served = False
        self._cuts = self._grid = self._stretches = None

    def cuts(self):
        """The levels t where two of Q's and the candidates' lines cross,
        in increasing order, sorted on the first request and kept.

        Each term of the radius is a least line, so between two adjacent
        crossings one candidate wins and the radius is affine in t.  On
        the lattice u + i*t = v + k*t, so a crossing is (v - u)/(i - k).
        """
        if self._cuts is None:
            every = list({*self.den, *(line for _, lines, _ in self.cands for line in lines)})
            pairs = [(v - u, i - k) for a, (u, i) in enumerate(every) for v, k in every[a + 1 :] if i != k]
            # sorted on a common grid 1/M as ints, which hash and compare fast
            M = math.lcm(*(d for _, d in pairs))
            grid = sorted({n * (M // d) for n, d in pairs})
            self._grid = M, grid
            self._cuts = [Fraction(c, M) for c in grid]
            self._stretches = [None] * (len(grid) + 1)
        return self._cuts

    def winner(self, t):
        """``(j, v)``: v the score of max_k vG(P - w_k*Q) at level t, and j
        the index in ``cands`` of the first candidate that reaches v with
        no bound scoring below it.  A candidate's least visible line
        bounds its valuation from above, so that one decides the maximum;
        raises InsufficientPrecision when none does, DegenerateImage when
        some P - w_k*Q is exactly zero."""
        a, b = t.numerator, t.denominator
        tops = []
        for _, lines, bounds in self.cands:
            if not lines and not bounds:
                raise DegenerateImage("fibre map is constant on the disk")
            tops.append(min([u * b + i * a for u, i in lines]) if lines else None)
        if None not in tops:
            v = max(tops)
            for j, (_, _, bounds) in enumerate(self.cands):
                if tops[j] == v and all(u * b + i * a >= v for u, i in bounds):
                    return j, v
        raise InsufficientPrecision(
            f"truncated coefficients leave the image radius undecided at t = {t}"
        )

    def stretch(self, a, b):
        """``(j, du, di)`` read at level t = a/b, b > 0: the winner j and
        the winner's least line less Q's, so T = (du*b + di*a)/(L*n*b).
        Off a crossing, once the table has served a push or sorted its
        crossings, the first read in a stretch fills its slot and later
        reads return it; only a fill builds t as a ``Fraction``."""
        slot = None
        if self._plain and (self._served or self._cuts is not None):
            self.cuts()
            M, grid = self._grid
            q, off = divmod(a * M, b)  # t*M = q + off/b
            k = bisect_right(grid, q)
            if off or not k or grid[k - 1] != q:  # t is no crossing
                if self._stretches[k] is not None:
                    return self._stretches[k]
                slot = k
        self._served = True
        j, _ = self.winner(Fraction(a, b))
        uq, iq = min(self.den, key=lambda line: line[0] * b + line[1] * a)
        uj, ij = min(self.cands[j][1], key=lambda line: line[0] * b + line[1] * a)
        kept = j, uj - uq, ij - iq
        if slot is not None:
            self._stretches[slot] = kept
        return kept

    def radius(self, a, b):
        """``(j, Tn, Td)``: the winning candidate at level t = a/b, b > 0,
        and the image radius T = (max_k vG(P - w_k*Q) - vG(Q))/n as
        Tn/Td in lowest terms, Td > 0, read off ``stretch``."""
        j, du, di = self.stretch(a, b)
        tn, td = du * b + di * a, self._Ln * b
        g = math.gcd(tn, td)
        return j, tn // g, td // g

    def ratio(self, j):
        """``(P_k, Q_k)`` of candidate j, the ratio its centre is read
        from, built in full on its first read and kept."""
        r = self._ratios[j]
        if r is None:
            k = self.cands[j][0]
            r = self._ratios[j] = self._P[k], self._Q[k]
        return r

    def ray_map(self, lo, hi):
        """T on [lo, hi]: ``(t0, t1, j, (slope, intercept))`` per stretch
        clipped to it, j its winner, read at its midpoint.  A bound of the
        winner scoring below its least line at either end raises as
        ``gauss_val`` does; their difference is affine, so that suffices."""
        ends = [lo, *(x for x in self.cuts() if lo < x < hi), hi]
        out = []
        for t0, t1 in zip(ends, ends[1:]):
            mid = (t0 + t1) / 2
            j, du, di = self.stretch(mid.numerator, mid.denominator)
            _, lines, bounds = self.cands[j]
            for a, b in ((x.numerator, x.denominator) for x in (t0, t1) if bounds):
                best = min(u * b + i * a for u, i in lines)
                for u, i in bounds:
                    if u * b + i * a < best:
                        raise InsufficientPrecision(
                            f"truncated coefficient (bound {Fraction(u * b + i * a, self.L * b)}) "
                            f"could undercut Gauss valuation {Fraction(best, self.L * b)}"
                        )
            out.append((t0, t1, j, (Fraction(di, self._Ln), Fraction(du, self._Ln))))
        return out


def image_point(base: BaseGerm, pk, qk, tn: int, td: int) -> TypeIIPoint:
    """The image point of radius T = tn/td, in lowest terms with td > 0,
    centred at the ratio pk/qk carried through the inverse of the base
    germ; T = (max_k vG(P - w_k*Q) - vG(Q))/n.

    The centre keeps its terms below T only, so the ratio is read to
    O(x^(T*n + 1)), exactly when qk is an exact monomial; a truncated zero
    pk that won has bounds no lower than T*n, so its ratio is 0 below it,
    and the image is zeta(0, T) with no transport, and no ``Fraction``.
    """
    if not pk:
        return _point(ZERO, tn, td)
    if qk.precision is INF and len(qk.nums) == 1:
        w = _over_monomial(pk, qk)
    else:
        w = pk * qk.inv(precision=max(Fraction(tn * base.n, td) - pk.val(), -qk.val()) + 1)
    return _point(_transport_center(base, w, tn, td), tn, td)


def pushforward(s: SkewLocal, p: TypeIIPoint) -> TypeIIPoint:
    """Exact image of a disk point under the local model.

    Raises DegenerateImage when the fibre map is constant on the disk,
    InsufficientPrecision when coefficient truncation blocks a decision,
    NotRepresentable when the centre transport needs an irrational root.
    The link keeps each image; a push that raises keeps nothing.
    """
    image = s._pushes.get(p)
    if image is None:
        try:
            table = s.push_table(p.center)
        except InsufficientPrecision:
            # a blocked candidate ratio; vG(Q) at p.t is still checked first
            gauss_val(shift_poly(list(s.den), p.center), p.t)
            raise
        j, tn, td = table.radius(p.tn, p.td)
        image = s._pushes[p] = image_point(s.base, *table.ratio(j), tn, td)
    return image


def _transport_center(base: BaseGerm, w: PuiseuxPoly, tn: int, td: int) -> PuiseuxPoly:
    """The centre w != 0 in the image coordinate, w(g) for g the inverse
    germ, cut at T = tn/td by lattice index."""
    n, N = base.n, w.N
    # w(g) to O(x^(T + 1)) reads g to O(x^(T + 1 + (1 - val(w))/n)); g needs
    # at least its leading term x^(1/n)
    d = td * N * n
    g = base.inverse_to(max((tn + td) * N * n + td * (N - w.lo), 2 * d), d)
    M, lo, nums, den, prec = _compose(w, g, (tn + td, td))
    if prec is not None and prec[0] * td < tn * prec[1]:
        raise InsufficientPrecision("transported centre lost too much precision")
    del nums[max(-(-tn * M // td) - lo, 0):]
    return _canon(M, lo, nums, den, INF)


def pushforward_direction(s: SkewLocal, p: TypeIIPoint, v: Direction) -> Direction:
    """Exact image of a tangent direction: the direction at the image of
    p that holds the images of the points in direction v near p.

    The ray into v runs through ``v.rep`` inwards and through
    ``p.center`` outwards.  Between two crossings of the push table's
    lines at that centre (``PushTable.cuts``) one candidate wins,
    its centre is one series and the radius is affine, so the ray up to
    the nearest crossing past p.t images onto one ray from the image of
    p.  One point half-way to that crossing, or at distance 1/2 when
    there is none, reads the direction; the centre a table is read at
    does not change an image, so no other cut is needed.  Raises
    DegenerateImage when that point images onto the image of p.
    """
    if v.at != p:
        raise ValueError("direction is not anchored at the given point")
    image = pushforward(s, p)
    if v.at_infinity:
        cuts = s.push_table(p.center).cuts()
        k = bisect_left(cuts, p.t)
        end = cuts[k - 1] if k else p.t - 1
        probe = TypeIIPoint(p.center, (p.t + end) / 2)
    else:
        cuts = s.push_table(v.rep).cuts()
        k = bisect_right(cuts, p.t)
        end = cuts[k] if k < len(cuts) else p.t + 1
        probe = TypeIIPoint(v.rep, (p.t + end) / 2)
    probe_image = pushforward(s, probe)
    if probe_image == image:
        raise DegenerateImage(f"the fibre map is constant along {v}")
    return direction_at(image, probe_image)


def _packet_inside(v: Direction, desc) -> bool:
    """Whether a non-rational root packet can lie in direction v.

    The packet gives val(root - prefix) exactly, so membership is often
    decidable from valuations alone; when the leading terms could cancel
    we answer True, which is the conservative side for callers trying to
    rule regions out.
    """
    b = v.at
    base = b.center if v.at_infinity else v.rep
    d = desc.prefix - base
    lead = d.val() if d.terms else None
    if lead == desc.valuation:
        return True
    w = desc.valuation if lead is None else min(lead, desc.valuation)
    return (w < b.t) if v.at_infinity else (w > b.t)


def _roots_inside(v: Direction, roots, descs, at_inf: bool) -> bool:
    """Whether some root, packet or the root at infinity can lie in D(v.at, v)."""
    if at_inf and v.at_infinity:
        return True
    try:
        if any(classical_in_direction(v, r.series) for r in roots):
            return True
    except SkewstabError:
        return True
    return any(_packet_inside(v, d) for d in descs)


def disk_image(s: SkewLocal, v: Direction) -> Optional[Direction]:
    """The image of the open disk D(v.at, v), as the direction off the
    image of v.at that holds it, or None when it need not be a disk.

    With no pole inside, the image is the disk off the image of v.at in
    the tangent image of v (maximum principle).  With poles but no zeros
    inside, the map omits 0, so the image is again that disk.  With
    both, the image can be everything.  The link keeps each answer,
    None included.
    """
    if v in s._images:
        return s._images[v]
    pole_roots, pole_descs, _ = s.poles()
    num_deg, den_deg = len(s.num) - 1, len(s.den) - 1
    image = None
    try:
        zero_roots, zero_descs = s.zeros()
        if not (
            _roots_inside(v, pole_roots, pole_descs, num_deg > den_deg)
            and _roots_inside(v, zero_roots, zero_descs, den_deg > num_deg)
        ):
            image = pushforward_direction(s, v.at, v)
    except SkewstabError:
        pass
    s._images[v] = image
    return image


# -- reduction ------------------------------------------------------------------


#: Residue classes at the Gauss point are Q union {infinity}; None is infinity.
ResidueValue = Optional[Fraction]


@dataclass(frozen=True)
class ReducedMap:
    """The fibre map modulo x, as a rational self-map of the residue line."""

    num: tuple
    den: tuple

    @property
    def degree(self) -> int:
        return max(len(self.num) - 1, len(self.den) - 1)

    def apply(self, value: ResidueValue) -> ResidueValue:
        if value is None:
            dn, dd = len(self.num) - 1, len(self.den) - 1
            if dn > dd:
                return None
            if dn < dd:
                return Fraction(0)
            return self.num[-1] / self.den[-1]
        top = poly_eval(self.num, value)
        bot = poly_eval(self.den, value)
        if bot == 0:
            if top == 0:
                raise ArithmeticError("0/0 in reduced map; gcd not cleared")
            return None
        return top / bot

    def __str__(self):
        return ratio_str(self.num, self.den)


def _frac_poly_gcd(a, b):
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while any(c != 0 for c in b):
        a, b = b, frac_divmod(a, b)[1]
    a = frac_trim(a)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def reduction_mod_x(s: SkewLocal) -> ReducedMap:
    """Reduce the fibre map modulo x after clearing the common Gauss norm.

    Only meaningful over a simple base germ (the base coordinate reduces
    to itself); callers check ``s.base.is_simple``.  The link keeps the
    result.
    """
    if s._reduction is None:
        if not s.base.is_simple:
            raise ValueError("reduction requires a simple base germ")
        c0 = None
        for c in list(s.num) + list(s.den):
            if c:
                v = c.val()
                c0 = v if c0 is None else min(c0, v)
            elif c.precision is not INF:
                raise InsufficientPrecision("truncated coefficient blocks reduction")
        num_bar = frac_trim(c.coeff_at(c0) for c in s.num)
        den_bar = frac_trim(c.coeff_at(c0) for c in s.den)
        if num_bar and den_bar:
            g = _frac_poly_gcd(num_bar, den_bar)
            if len(g) > 1:
                num_bar = frac_divmod(num_bar, g)[0]
                den_bar = frac_divmod(den_bar, g)[0]
        red = ReducedMap(tuple(num_bar or [Fraction(0)]), tuple(den_bar or [Fraction(0)]))
        object.__setattr__(s, "_reduction", red)
    return s._reduction


def has_good_reduction(s: SkewLocal) -> bool:
    """Degree of the reduced map equals the fibre degree."""
    red = reduction_mod_x(s)
    if all(c == 0 for c in red.num) or all(c == 0 for c in red.den):
        return False
    return red.degree == s.rdeg


# -- critical points --------------------------------------------------------------


@dataclass(frozen=True)
class CriticalLocus:
    """Critical points of the fibre map: expanded roots, unexpanded
    packets, and the multiplicity at infinity."""

    roots: tuple
    descriptors: tuple
    infinity_multiplicity: int

    def total(self) -> int:
        return (
            sum(r.multiplicity for r in self.roots)
            + sum(d.degree for d in self.descriptors)
            + self.infinity_multiplicity
        )


def critical_points_rational(num, den) -> CriticalLocus:
    num = poly_trim([as_series(c) for c in num])
    den = poly_trim([as_series(c) for c in den])
    d = max(_visible_degree(num), _visible_degree(den))
    if d < 2:
        raise ValueError("critical points only meaningful for fibre degree >= 2")
    dnum = poly_derivative(num)
    dden = poly_derivative(den)
    wronskian = poly_add(poly_mul(dnum, den), poly_mul([-c for c in num], dden))
    roots, descs = newton_puiseux(wronskian)
    finite = sum(r.multiplicity for r in roots) + sum(d_.degree for d_ in descs)
    inf_mult = (2 * d - 2) - finite
    return CriticalLocus(tuple(roots), tuple(descs), inf_mult)


def critical_points(s: SkewLocal) -> CriticalLocus:
    if s._crit is None:
        object.__setattr__(s, "_crit", critical_points_rational(s.num, s.den))
    return s._crit


# -- folding tree (heuristic, probe-validated) -------------------------------------


#: Depth of the folding-tree endpoints below the critical points, and how
#: many times a failed endpoint is pushed 2 deeper.
_FOLD_DEPTH = 8
_FOLD_RETRIES = 4


def folding_tree(s: SkewLocal):
    """Endpoints of a finite tree meant to contain all folding of the map.

    HEURISTIC: endpoints are placed at depth ``_FOLD_DEPTH`` below each
    critical point (and above, for a critical point at infinity) and
    validated by probing that rays leaving each endpoint map without
    folding; on failure the endpoint is pushed deeper, up to
    ``_FOLD_RETRIES`` retries.
    Degree-1 fibre maps fold nothing and give the empty tree.
    """
    if s.rdeg < 2:
        return []
    crit = critical_points(s)
    rays = []
    for r in crit.roots:
        rays.append(("finite", r.series))
    for d_ in crit.descriptors:
        rays.append(("packet", d_))
    if crit.infinity_multiplicity > 0:
        rays.append(("infinity", None))
    endpoints = []
    for kind, data in rays:
        e = Fraction(_FOLD_DEPTH)
        for _ in range(_FOLD_RETRIES + 1):
            pt = _folding_endpoint(kind, data, e)
            if pt is None:
                break
            if _ray_leaves_cleanly(s, pt):
                endpoints.append(pt)
                break
            e += 2
        else:
            raise ValidationFailure(
                f"folding ray for {kind} critical point failed validation at depth {e}"
            )
    return endpoints


def _folding_endpoint(kind, data, e):
    if kind == "finite":
        series = data
        cap = series.precision
        t = e if cap is INF else min(e, cap)
        return TypeIIPoint(series, t)
    if kind == "packet":
        # only the valuation is known; stop the ray where knowledge stops
        return TypeIIPoint(data.prefix, data.valuation)
    return TypeIIPoint(ZERO, -e)


def _ray_leaves_cleanly(s, pt) -> bool:
    # beyond-the-endpoint probes: image parameters must move strictly
    # monotonically, i.e. no fold is visible past the endpoint
    try:
        ts = []
        for d in (Fraction(0), Fraction(1, 2), Fraction(1)):
            probe = TypeIIPoint(pt.center, pt.t + 1 + d)
            ts.append(pushforward(s, probe).t)
        return (ts[0] < ts[1] < ts[2]) or (ts[0] > ts[1] > ts[2])
    except (InsufficientPrecision, DegenerateImage):
        return False


# -- chains -------------------------------------------------------------------------


class Chain:
    """A finite chain of local models over a preperiodic base orbit.

    Fibres are indexed 0 .. N-1 with N = tail + period; link j maps fibre
    j to fibre j+1, except the last link which returns to fibre ``tail``
    (the start of the cycle).
    """

    __slots__ = ("links", "period", "tail")

    def __init__(self, links, period: int, tail: int = 0):
        links = list(links)
        if period < 1 or tail < 0 or len(links) != period + tail:
            raise ValueError("chain needs len(links) == period + tail, period >= 1")
        object.__setattr__(self, "links", tuple(links))
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "tail", tail)

    def __setattr__(self, name, value):
        raise AttributeError("Chain is immutable")

    @property
    def size(self) -> int:
        return len(self.links)

    def next_fibre(self, j: int) -> int:
        if j + 1 < self.size:
            return j + 1
        return self.tail

    def step(self, j: int, p: TypeIIPoint):
        return self.next_fibre(j), pushforward(self.links[j], p)

    def orbit(self, j: int, p: TypeIIPoint, steps: int):
        """[(fibre, point)] starting at (j, p), of length steps + 1."""
        out = [(j, p)]
        for _ in range(steps):
            j, p = self.step(j, p)
            out.append((j, p))
        return out


def single_chain(s: SkewLocal) -> Chain:
    return Chain([s], period=1, tail=0)
