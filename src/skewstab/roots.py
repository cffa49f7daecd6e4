"""Root expansion for polynomials in y with Puiseux-series coefficients.

The base field for coefficients is Q, so only branches whose expansions
stay rational are returned as explicit series.  Branches that would need
an algebraic extension (an irreducible residual factor with no rational
root) are reported as descriptors carrying the branch valuation and the
number of conjugate roots they stand for.  Together the two lists always
account for every root of the polynomial, which callers can and do check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientPrecision
from .puiseux import (
    DEFAULT_PRECISION,
    INF,
    PuiseuxPoly,
    _canon,
    _ceil,
    as_series,
    nth_root_fraction,
    rat,
)

_MAX_DEPTH = 400
_FACTOR_LIMIT = 10**12

_ZERO = PuiseuxPoly.zero()
_ONE = PuiseuxPoly.const(1)


@dataclass(frozen=True)
class PuiseuxRoot:
    series: PuiseuxPoly
    multiplicity: int


@dataclass(frozen=True)
class BranchDescriptor:
    """A packet of conjugate roots not representable over Q.

    ``prefix`` is the rational initial segment shared by the packet,
    ``valuation`` the exact valuation of (root - prefix), ``degree`` how
    many roots (with multiplicity) the packet contains.
    """

    prefix: PuiseuxPoly
    valuation: Fraction
    degree: int
    reason: str


def poly_eval(coeffs, value):
    """Evaluate sum coeffs[i] * value^i (Horner); the coefficients and
    value may be series or rationals."""
    acc = 0
    for c in reversed(list(coeffs)):
        acc = acc * value + c
    return acc


def poly_trim(coeffs) -> list:
    """The coefficients (ascending) as a list without exactly-zero top
    coefficients; a truncated zero stays, as it bounds the degree."""
    out = list(coeffs)
    while out and out[-1].is_exact_zero:
        out.pop()
    return out


def poly_add(a, b) -> list:
    """The trimmed sum of two polynomials in y."""
    n = max(len(a), len(b))
    return poly_trim(
        (a[i] if i < len(a) else _ZERO) + (b[i] if i < len(b) else _ZERO) for i in range(n)
    )


def _times(a: PuiseuxPoly, b: PuiseuxPoly) -> PuiseuxPoly:
    """a*b, with no product when a factor is ``_ONE`` itself."""
    return b if a is _ONE else a if b is _ONE else a * b


def poly_mul(a, b) -> list:
    """The trimmed product of two polynomials in y; products with an
    exactly-zero factor are skipped."""
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_exact_zero:
            continue
        for j, cb in enumerate(b):
            if not cb.is_exact_zero:
                p = _times(ca, cb)
                out[i + j] = p if out[i + j] is _ZERO else out[i + j] + p
    return poly_trim(out)


def poly_str(coeffs) -> str:
    """``(c0) + (c1)*y + y^2 + ...``, skipping zero coefficients and
    writing a coefficient of 1 as the bare power; "0" for none."""
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(f"({c})")
            continue
        base = "y" if i == 1 else f"y^{i}"
        parts.append(base if as_series(c) == _ONE else f"({c})*{base}")
    return " + ".join(parts) if parts else "0"


def ratio_str(num, den) -> str:
    """``num / den`` with a side in parentheses only where the parser
    needs them: a numerator of more than one term, a denominator of more
    than one term or with a product.  A lone constant, already ``(c)``,
    is not wrapped again."""
    num_s, den_s = poly_str(num), poly_str(den)
    if " + " in num_s:
        num_s = f"({num_s})"
    if " + " in den_s or "*" in den_s:
        den_s = f"({den_s})"
    return f"{num_s} / {den_s}"


class TaylorShift:
    """The coefficients of a polynomial in tau = y - a, for an exact a,
    each read only as far as a reader needs it.

    The coefficient of tau^i is sum_j C(j, i)*c_j*a^(j - i).  The setup
    reads every c_j and every power of a as slots on one lattice 1/N,
    over one common denominator ``den``, and finds where each
    coefficient's slots start: row j puts its slots of tau^i from index
    lo c_j + (j - i)*lo a on, and the least of these over j >= i is the
    coefficient's first index.  A read is then one integer convolution
    of the rows c_j with the powers of a, run for each coefficient only
    over the window of slots from its first index that it asks for
    (``_read``).  ``leads`` asks every coefficient for one slot, and asks
    again, in windows of 2, 4, ... slots, only those whose first slot
    cancels, so a zero is proved by reading every slot below the
    precision; ``self[i]`` reads in full, canonicalises once and keeps
    the series.  Powers of a are built to their lowest slot in the
    setup, in full on the first wider read.  A truncated c_j leaves the
    coefficient of tau^i known to O(x^(prec c_j + (j - i)*val a)), the
    least such bound over j >= i (``precisions``).  At a = 0 the
    coefficients are handed out as they are, and ``leads`` reads their
    own lowest slots.  Past the degree every coefficient is an exact
    zero.
    """

    __slots__ = (
        "N", "den", "precisions", "_coeffs", "_a", "_rows", "_powers", "_lo_a", "_starts", "_full",
    )

    def __init__(self, coeffs, a: PuiseuxPoly):
        coeffs = self._coeffs = tuple(coeffs)
        precisions = [c.precision for c in coeffs]
        if a.is_exact_zero:
            self.N = math.lcm(*[c.N for c in coeffs])
            self.den = math.lcm(*[c.den for c in coeffs])
            self.precisions, self._rows = precisions, None
            return
        if a.precision is not INF:
            raise ValueError("a polynomial is shifted only to an exact centre")
        n = len(coeffs)
        live = [(j, c) for j, c in enumerate(coeffs) if c.nums]
        N = math.lcm(a.N, *(c.N for _, c in live))
        den = math.lcm(*(c.den for _, c in live))
        m = live[-1][0] if live else 0
        lo_a = a.lo * (N // a.N)
        # a^k as (index, slot) pairs on 1/N from k*lo, times a.den^(m - k),
        # so that every power is over a.den^m
        a0, ad = a.nums[0], a.den
        self._powers = [[(0, a0**k * ad ** (m - k))] for k in range(m + 1)]
        # each c_j as (j, base, slots from its lowest) over den, den times
        # a.den^m being the denominator of every output; row j puts its
        # slots of tau^i from base - i*lo_a on
        rows = []
        for j, c in live:
            s, f = N // c.N, den // c.den
            rows.append((j, c.lo * s + j * lo_a, [(x * s, u * f) for x, u in enumerate(c.nums) if u]))
        if precisions.count(INF) < n:
            cut, val_a = [(j, p) for j, p in enumerate(precisions) if p is not INF], Fraction(a.lo, a.N)
            precisions = [
                min((p + (j - i) * val_a for j, p in cut if j >= i), default=INF) for i in range(n)
            ]
        # the least base over j >= i: the coefficient of tau^i starts
        # there, less i*lo_a; None past the last row
        starts, lo, r = [None] * n, None, len(rows)
        for i in range(n - 1, -1, -1):
            while r and rows[r - 1][0] >= i:
                r -= 1
                lo = rows[r][1] if lo is None else min(lo, rows[r][1])
            starts[i] = lo
        self.N, self.den, self.precisions, self._a, self._rows = N, den * ad**m, precisions, a, rows
        self._lo_a, self._starts, self._full = lo_a, starts, [None] * n

    def __len__(self):
        return len(self._coeffs)

    def leads(self) -> list:
        """For each coefficient, ``(x, u)``: its lowest nonzero slot below
        its precision, x its index on 1/N and u its numerator over
        ``den``; None for a zero, exact or truncated."""
        if self._rows is None:
            N, den = self.N, self.den
            return [
                (c.lo * (N // c.N), c.nums[0] * (den // c.den)) if c.nums else None for c in self._coeffs
            ]
        starts, lo_a, out = self._starts, self._lo_a, [None] * len(self._coeffs)
        if self.precisions.count(INF) == len(out):
            asked = [(i, 1) for i, x in enumerate(starts) if x is not None]
        else:
            asked = [(i, 1) for i in range(len(out)) if self._size(i, 1)]
        for (i, _), (u,) in zip(asked, self._read(asked)):
            # a first slot that cancels is read on in wider windows
            out[i] = (starts[i] - i * lo_a, u) if u else self._lead(i)
        return out

    def _lead(self, i):
        """The lowest nonzero slot of the coefficient of tau^i, read in
        windows of 2, 4, ... slots, or None once every slot reads 0."""
        size, w = self._size(i), 1
        while w < size:
            w = min(2 * w, size)
            for x, u in enumerate(self._read([(i, w)])[0]):
                if u:
                    return self._starts[i] - i * self._lo_a + x, u
        if self._full[i] is None:
            self._full[i] = PuiseuxPoly.zero(self.precisions[i])
        return None

    def __getitem__(self, i) -> PuiseuxPoly:
        """The coefficient of tau^i, built in full on its first read and kept."""
        if i >= len(self._coeffs):
            return _ZERO
        if self._rows is None:
            return self._coeffs[i]
        if self._full[i] is None:
            w = self._size(i)  # 0: no slot below the precision
            lo, acc = (self._starts[i] - i * self._lo_a, self._read([(i, w)])[0]) if w else (0, [])
            self._full[i] = _canon(self.N, lo, acc, self.den, self.precisions[i])
        return self._full[i]

    def _size(self, i, most=None) -> int:
        """How many slots of the coefficient of tau^i, from its first
        index, lie below its precision, counting no further than ``most``:
        up to the greatest index a row j >= i reaches."""
        start, prec = self._starts[i], self.precisions[i]
        if start is None:
            return 0
        if most is None:
            a = self._a
            span = (len(a.nums) - 1) * (self.N // a.N)
            ends = (base + slots[-1][0] + (j - i) * span for j, base, slots in self._rows if j >= i)
            most = max(ends) - start + 1
        if prec is not INF:
            most = max(min(most, _ceil(prec, self.N) - start + i * self._lo_a), 0)
        return most

    def _powers_in_full(self):
        """Every slot of each power of a, built on the first read of more
        than the lowest slot and kept."""
        a, powers = self._a, self._powers
        if len(powers) > 1 and len(powers[1]) == 1:
            m, sa, dense = len(powers) - 1, self.N // a.N, [1]
            for k in range(1, m + 1):
                nxt = [0] * (len(dense) + len(a.nums) - 1)
                for x, u in enumerate(dense):
                    if u:
                        for y, v in enumerate(a.nums):
                            nxt[x + y] += u * v
                dense, scale = nxt, a.den ** (m - k)
                powers[k] = [(x * sa, u * scale) for x, u in enumerate(dense) if u]

    def _read(self, asked):
        """For each ``(i, w)`` in ``asked``, ascending in i and w >= 1, the
        first w slots of the coefficient of tau^i: the one integer
        convolution of the rows with the powers of a, cut for each
        coefficient at its window."""
        accs = [[0] * w for _, w in asked]
        powers = self._powers
        if len(self._a.nums) > 1 and any(w > 1 for _, w in asked):
            self._powers_in_full()
        comb, starts = math.comb, self._starts
        for j, base, slots in self._rows:
            for (i, size), acc in zip(asked, accs):
                if i > j:
                    break
                off = base - starts[i]
                if off >= size:
                    continue
                f, pw = comb(j, i), powers[j - i]
                for x, u in slots:
                    x += off
                    if x >= size:
                        break
                    u *= f
                    for y, v in pw:
                        if x + y >= size:
                            break
                        acc[x + y] += u * v
        return accs


def shift_poly(coeffs, a: PuiseuxPoly):
    """Coefficients of the same polynomial in tau = y - a, for an exact a:
    every coefficient of its ``TaylorShift`` read in full, for readers of
    whole series such as ``newton_puiseux``.  A push table reads the same
    shift through ``TaylorShift.leads``, each coefficient only down to its
    lowest slot, and builds in full only the coefficients a push reads."""
    shifted = TaylorShift(coeffs, a)
    return [shifted[i] for i in range(len(shifted))]


def frac_trim(coeffs) -> list:
    """The rational coefficients (ascending) as a list without zero top
    coefficients; the zero polynomial gives []."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def frac_divmod(a, b):
    """(quotient, remainder) of a by b, rational coefficient lists from
    degree 0 up; b's top coefficient is nonzero and the remainder is
    trimmed."""
    rem = frac_trim(a)
    quo = [Fraction(0)] * (len(rem) - len(b) + 1)
    while len(rem) >= len(b) and rem:
        factor = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[i + shift] -= factor * c
        rem = frac_trim(rem)
    return quo, rem


def poly_derivative(coeffs):
    return [c.scale(i) for i, c in enumerate(coeffs)][1:]


def newton_puiseux(coeffs, target_precision=None):
    """All roots of sum coeffs[i]*y^i over Q-Puiseux series.

    Returns (roots, descriptors).  Roots carry the requested precision
    unless the expansion terminates exactly first.  Raises
    InsufficientPrecision when a coefficient's unknown tail could move
    the Newton polygon.
    """
    target = DEFAULT_PRECISION if target_precision is None else rat(target_precision)
    coeffs = poly_trim(coeffs)
    if len(coeffs) <= 1 or all(not c for c in coeffs):
        # trimmed, so a zero left here is a truncated one
        if any(not c for c in coeffs):
            raise InsufficientPrecision("polynomial not visibly nonzero")
        return [], []
    return _expand(coeffs, target, 0)


def _expand(coeffs, target, depth):
    if depth > _MAX_DEPTH:
        raise InsufficientPrecision("root expansion exceeded depth budget")
    roots: list = []
    descs: list = []
    # order of vanishing at y = 0
    k = 0
    while k < len(coeffs):
        c = coeffs[k]
        if c:
            break
        if c.precision is not INF:
            raise InsufficientPrecision(
                f"coefficient of y^{k} is O(x^{c.precision}): root order at 0 undecidable"
            )
        k += 1
    if k == len(coeffs):
        raise ValueError("zero polynomial")
    if k > 0:
        roots.append(PuiseuxRoot(PuiseuxPoly.zero(), k))
        coeffs = coeffs[k:]
    if len(coeffs) == 1:
        return roots, descs

    pts = []
    uncertain = []
    for i, c in enumerate(coeffs):
        if c:
            pts.append((i, c.val()))
        elif c.precision is not INF:
            uncertain.append((i, c.precision))
    hull = _lower_hull(pts)
    _check_polygon_safe(hull, uncertain, depth)

    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        mu = (v1 - v2) / (i2 - i1)
        if depth > 0 and mu <= 0:
            continue
        online = {
            i: c.leading_coeff()
            for i, c in enumerate(coeffs)
            if c and i1 <= i <= i2 and c.val() == v1 - mu * (i - i1)
        }
        residual = [online.get(i, Fraction(0)) for i in range(i1, i2 + 1)]
        found, leftover = rational_roots(residual)
        if leftover:
            descs.append(
                BranchDescriptor(
                    prefix=PuiseuxPoly.zero(),
                    valuation=mu,
                    degree=leftover,
                    reason="residual factor has no rational root",
                )
            )
        for u0, mult in found:
            rem = target - mu
            if rem <= 0:
                roots.append(
                    PuiseuxRoot(PuiseuxPoly.zero(min(target, mu)), mult)
                )
                continue
            # F(x, x^mu * (u0 + z)) as a polynomial in z
            shifted = [c.shift(mu * i) for i, c in enumerate(coeffs)]
            sub = shift_poly(shifted, PuiseuxPoly.const(u0))
            sub_roots, sub_descs = _expand(sub, rem, depth + 1)
            for r in sub_roots:
                lifted = (PuiseuxPoly.const(u0) + r.series).shift(mu)
                roots.append(PuiseuxRoot(lifted, r.multiplicity))
            for d in sub_descs:
                lifted_prefix = (PuiseuxPoly.const(u0) + d.prefix).shift(mu)
                descs.append(
                    BranchDescriptor(lifted_prefix, mu + d.valuation, d.degree, d.reason)
                )
    return roots, descs


def _lower_hull(pts):
    pts = sorted(pts)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) <= (p[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _check_polygon_safe(hull, uncertain, depth):
    if not uncertain:
        return
    lo = hull[0][0]
    hi = hull[-1][0]
    for i, bound in uncertain:
        if i < lo:
            # handled by the order-at-zero scan; unreachable here
            raise InsufficientPrecision("unknown low-order coefficient")
        if i > hi:
            # a hidden high coefficient only adds slopes <= (v(hi)-bound)/(i-hi);
            # harmless at depth>0 when those are all nonpositive
            if depth > 0 and bound >= hull[-1][1]:
                continue
            raise InsufficientPrecision(
                f"coefficient of y^{i} is undetermined and could extend the polygon"
            )
        hv = _hull_value(hull, i)
        if bound <= hv:
            raise InsufficientPrecision(
                f"coefficient of y^{i} is O(x^{bound}) but the polygon needs it below x^{hv}"
            )


def _hull_value(hull, i):
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= i <= x2:
            return y1 + (y2 - y1) * Fraction(i - x1, x2 - x1)
    return hull[-1][1]


def rational_roots(poly):
    """Rational roots with multiplicity of a Q-coefficient polynomial.

    Returns (roots, leftover_degree).  leftover_degree counts roots of
    the remaining factor that has no rational root (or whose integer
    coefficients are too large to factor here).
    """
    coeffs = frac_trim(rat(c) for c in poly)
    if not coeffs:
        raise ValueError("zero polynomial")
    zero_mult = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    roots = []
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    while len(coeffs) > 1:
        r = _one_rational_root(coeffs)
        if r is None:
            break
        mult = 0
        while True:
            quot, rem = frac_divmod(coeffs, [-r, 1])
            if rem:
                break
            coeffs = quot
            mult += 1
        roots.append((r, mult))
    return roots, len(coeffs) - 1


def _one_rational_root(coeffs):
    n = len(coeffs) - 1
    if n == 1:
        return -coeffs[0] / coeffs[1]
    if n == 2:
        a, b, c = coeffs[2], coeffs[1], coeffs[0]
        disc = b * b - 4 * a * c
        if disc < 0:
            return None
        num = nth_root_fraction(disc, 2)
        if num is None:
            return None
        return (-b + num) / (2 * a)
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    lead, const = ints[-1], ints[0]
    if abs(lead) > _FACTOR_LIMIT or abs(const) > _FACTOR_LIMIT:
        return None
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if poly_eval(coeffs, cand) == 0:
                    return cand
    return None


def _divisors(n: int):
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)
