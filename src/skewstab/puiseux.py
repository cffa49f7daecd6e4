"""Exact truncated Puiseux series with rational coefficients and exponents.

An element is a finite sum ``c_1*x^(e_1) + ... + c_k*x^(e_k)`` with
``c_i`` in Q, ``e_i`` in Q strictly increasing, known modulo
``O(x^precision)``.  ``precision`` is either a rational or the sentinel
``INF`` for exactly known elements.  The ambient absolute value is
``|a| = |x|^val(a)`` with ``|x| < 1``: larger valuation means smaller
element.

Stored form: ``(N, lo, nums, den, precision)``, integers N >= 1 and
den >= 1 and a tuple ``nums`` of integers; slot k is the term
``(nums[k]/den) * x^((lo+k)/N)``.  It is canonical: N is least (the
ramification index), gcd(den, nums) = 1, the end slots are nonzero, and
no slot reaches the precision; zero is ``(1, 0, (), 1, precision)``, and
with finite precision stands for "some element of O(x^precision)".  So
two series are equal exactly when their forms are.  ``terms``, the
(Fraction exponent, Fraction coefficient) pairs, is a view cached on
first read.  Costs for s and r slots: ``*`` is an O(s*r) convolution of
the nonzero slots on the lcm lattice, cut at the precision; ``+``, ``-``
and ``scale`` are O(s + r) after aligning indices and denominators;
``shift``, the truncations and ``coeff_at`` are index arithmetic;
``ramification_index`` reads N.  A negative or fractional power to K
slots (``inv``, ``rational_power``) is one run of Miller's recurrence on
the integer slots, O(K*s) int operations and no series product; ``compose`` takes an incremental integer convolution
per integer exponent and one such power per other exponent, with the
precision bookkeeping on integer pairs, and adds them all on one lattice
over one denominator, and into a one-slot series it only respreads the
slots with their root powers.  ``reversion`` is Lagrange inversion: one
Miller run per term of the inverse that can be nonzero, none for a
monomial germ, and no Newton iteration.

Precision is explicit rather than ambient: every arithmetic operation
propagates the tightest bound that is actually justified, and operations
whose result is undecidable at the available precision raise
InsufficientPrecision instead of guessing.  There is no floating point
anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InsufficientPrecision, NotRepresentable, TooManyDigits

Rat = Fraction

#: Default exponent up to which unbounded expansions (inverses, fractional
#: powers, reversions) are carried when the caller does not say otherwise.
DEFAULT_PRECISION = Fraction(64)


class _Infinity:
    """Positive infinity, comparable with and absorbing under rationals."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("skewstab-infinity")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise ArithmeticError("INF - INF")
        return self

    def __mul__(self, other):
        if other == 0:
            raise ArithmeticError("INF * 0")
        return self

    __rmul__ = __mul__

    def __neg__(self):
        raise ArithmeticError("-INF is not representable")

    def __repr__(self):
        return "INF"


INF = _Infinity()


def rat(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _text(q) -> str:
    """str(q), or TooManyDigits past Python's int-to-str digit limit."""
    try:
        return str(q)
    except ValueError:
        raise TooManyDigits("a number to be printed has too many decimal digits") from None


def _is_prec(p) -> bool:
    return p is INF or isinstance(p, Fraction)


def _ceil(q: Fraction, n: int) -> int:
    """ceil(q*n): the first lattice index at or past the exponent q."""
    return -(-q.numerator * n // q.denominator)


class PuiseuxPoly:
    """Truncated Puiseux series in the stored form above; immutable by
    convention (the hot constructor skips a ``__setattr__`` guard)."""

    __slots__ = ("N", "lo", "nums", "den", "precision", "_terms", "_hash")

    def __init__(self, terms=(), precision=INF):
        if not _is_prec(precision):
            precision = rat(precision)
        merged: dict = {}
        for e, c in terms:
            e, c = rat(e), rat(c)
            if e < precision:
                merged[e] = merged.get(e, 0) + c
        terms = tuple(sorted((e, c) for e, c in merged.items() if c))
        N = math.lcm(*(e.denominator for e, _ in terms))
        den = math.lcm(*(c.denominator for _, c in terms))
        at = [e.numerator * (N // e.denominator) for e, _ in terms] or [0]
        nums = [0] * (at[-1] - at[0] + 1 if terms else 0)
        for k, (_, c) in zip(at, terms):
            nums[k - at[0]] = c.numerator * (den // c.denominator)
        _new(N, at[0], tuple(nums), den, precision, terms, into=self)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, precision=INF) -> "PuiseuxPoly":
        return _new(1, 0, (), 1, precision if _is_prec(precision) else rat(precision))

    @classmethod
    def const(cls, c) -> "PuiseuxPoly":
        c = rat(c)
        return _new(1, 0, (c.numerator,), c.denominator, INF) if c else _new(1, 0, (), 1, INF)

    @classmethod
    def monomial(cls, coeff, exponent, precision=INF) -> "PuiseuxPoly":
        c, e = rat(coeff), rat(exponent)
        if not _is_prec(precision):
            precision = rat(precision)
        if not c or e >= precision:
            return _new(1, 0, (), 1, precision)
        return _new(e.denominator, e.numerator, (c.numerator,), c.denominator, precision)

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> tuple:
        """The (exponent, coefficient) pairs as Fractions, built on first read."""
        t = self._terms
        if t is None:
            N, lo, den = self.N, self.lo, self.den
            t = tuple(
                (Fraction(lo + k, N), Fraction(c, den)) for k, c in enumerate(self.nums) if c
            )
            self._terms = t
        return t

    @property
    def is_exact_zero(self) -> bool:
        return not self.nums and self.precision is INF

    def val(self):
        """Valuation: exponent of the leading term; INF for exact zero.
        InsufficientPrecision when O(x^precision) could hide the term."""
        if self.nums:
            return Fraction(self.lo, self.N)
        if self.precision is INF:
            return INF
        raise InsufficientPrecision(f"valuation undecidable: element is O(x^{self.precision})")

    def val_floor(self):
        """A safe lower bound for the valuation; never raises."""
        return Fraction(self.lo, self.N) if self.nums else self.precision

    def leading_coeff(self) -> Fraction:
        if not self.nums:
            raise InsufficientPrecision("no visible leading term")
        return Fraction(self.nums[0], self.den)

    def coeff_at(self, exponent) -> Fraction:
        e = rat(exponent)
        k = e.numerator * self.N
        if k % e.denominator == 0 and 0 <= k // e.denominator - self.lo < len(self.nums):
            return Fraction(self.nums[k // e.denominator - self.lo], self.den)
        return Fraction(0)

    def residue(self) -> Fraction:
        """Coefficient at exponent 0 (the mod-x value of a val >= 0 element)."""
        return self.coeff_at(0)

    def ramification_index(self) -> int:
        """Least n with all exponents in (1/n)Z; 1 for the zero element."""
        return self.N

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if not isinstance(other, PuiseuxPoly):
            return NotImplemented
        return (self.nums == other.nums and self.lo == other.lo and self.N == other.N
                and self.den == other.den and self.precision == other.precision)

    def __hash__(self):
        """The hash of the stored form, the fields ``==`` compares, so no
        ``Fraction`` is built."""
        h = self._hash
        if h is None:
            h = hash((self.N, self.lo, self.nums, self.den, self.precision))
            self._hash = h
        return h

    def agrees_with(self, other: "PuiseuxPoly") -> bool:
        """Equality modulo the coarser of the two precisions."""
        p = min(self.precision, other.precision)
        return self.truncate_soft(p) == other.truncate_soft(p)

    # -- truncation --------------------------------------------------------

    def _cut(self, bound, precision) -> "PuiseuxPoly":
        """The slots below lattice index ``bound`` (all for None), known
        to O(x^precision); the slots at or past a finite precision go too."""
        if bound is None and precision is not INF:
            bound = _ceil(precision, self.N)
        k = len(self.nums) if bound is None else bound - self.lo
        if k >= len(self.nums):
            if precision is self.precision or precision == self.precision:
                return self
            return _new(self.N, self.lo, self.nums, self.den, precision, self._terms)
        return _canon(self.N, self.lo, list(self.nums[: max(k, 0)]), self.den, precision)

    def truncate(self, t) -> "PuiseuxPoly":
        """Drop terms with exponent >= t; the result has precision exactly t.
        ValueError when t exceeds the known precision."""
        t = rat(t)
        if self.precision is not INF and t > self.precision:
            raise ValueError(f"cannot truncate at {t}: only known to O(x^{self.precision})")
        return self._cut(None, t)

    def truncate_soft(self, t) -> "PuiseuxPoly":
        """Like truncate but clamps t to the available precision."""
        return self._cut(None, min(self.precision, t if _is_prec(t) else rat(t)))

    def drop_from(self, t) -> "PuiseuxPoly":
        """Discard terms with exponent >= t but keep the precision INF: for
        canonical representatives, whose tail is irrelevant, not unknown."""
        return self._cut(_ceil(rat(t), self.N), INF)

    def keep_through(self, t) -> "PuiseuxPoly":
        """Discard terms with exponent > t; exact result (class representative)."""
        t = rat(t)
        return self._cut(t.numerator * self.N // t.denominator + 1, INF)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PuiseuxPoly):
            return other
        return PuiseuxPoly.const(other) if isinstance(other, (int, Fraction)) else None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else _add(self, o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.N, self.lo, tuple(-c for c in self.nums), self.den, self.precision)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else _add(self, o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else _add(o, self, -1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # precision: unknown tail of one factor times the other factor
        prec = INF if self.precision is INF else self.precision + o.val_floor()
        if o.precision is not INF:
            prec = min(prec, o.precision + self.val_floor())
        a, b = self.nums, o.nums
        if not a or not b:
            return _new(1, 0, (), 1, prec)
        N = math.lcm(self.N, o.N)
        sa, sb = N // self.N, N // o.N
        lo = self.lo * sa + o.lo * sb
        size = (len(a) - 1) * sa + (len(b) - 1) * sb + 1
        if prec is not INF:
            size = min(size, _ceil(prec, N) - lo)
        return _canon(N, lo, _convolve(a, sa, b, sb, size), self.den * o.den, prec)

    __rmul__ = __mul__

    def shift(self, delta) -> "PuiseuxPoly":
        """Multiply by x^delta."""
        d = rat(delta)
        N = math.lcm(self.N, d.denominator)
        lo = self.lo * (N // self.N) + d.numerator * (N // d.denominator)
        return _canon(N, lo, _spread(self.nums, N // self.N), self.den, self.precision + d)

    def scale(self, c) -> "PuiseuxPoly":
        c = rat(c)
        nums = [k * c.numerator for k in self.nums]
        return _canon(self.N, self.lo, nums, self.den * c.denominator, self.precision)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return PuiseuxPoly.const(1) if result is None else result

    # -- inversion and powers ----------------------------------------------

    def inv(self, precision=None) -> "PuiseuxPoly":
        """Multiplicative inverse: ``rational_power(-1)``, a geometric series.

        The natural output precision is ``self.precision - 2*val(self)``;
        pass ``precision`` to ask for another, which a truncated input
        caps at the natural one.  Exact inputs default to DEFAULT_PRECISION
        worth of output unless they invert exactly.
        """
        return self.rational_power(-1, precision)

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inv()

    def rational_power(self, e, precision=None) -> "PuiseuxPoly":
        """self ** e for rational e, when representable over Q.

        Needs a rational e.denominator-th root of the leading coefficient;
        raises NotRepresentable otherwise.  Fractional powers of
        multi-term series are infinite expansions and are truncated at
        ``precision`` (DEFAULT_PRECISION-based fallback), and never past
        what a truncated input supports.  A negative or fractional power
        to K slots is one run of Miller's recurrence on the integer slots
        (``_power``): O(K*s) int operations for s nonzero slots, no series
        product.
        """
        e = rat(e)
        if e.denominator == 1 and e >= 0:
            res = self ** int(e)
            return res if precision is None else res.truncate_soft(rat(precision))
        v = self.val()
        if v is INF:
            if e > 0:
                return PuiseuxPoly.zero()
            raise ZeroDivisionError("negative power of exact zero")
        if len(self.nums) == 1 and self.precision is INF:
            out_prec, rel = INF if precision is None else rat(precision), INF
        else:
            # a truncated unit bounds what the expansion can know
            out_prec = self.precision + v * (e - 1)
            if precision is not None:
                out_prec = min(rat(precision), out_prec)
            elif out_prec is INF:
                out_prec = v * e + DEFAULT_PRECISION
            rel = out_prec - v * e
        form = _power(self, e.numerator, e.denominator, 1 if rel is INF else _ceil(rel, self.N))
        if rel <= 0:
            raise InsufficientPrecision(f"power would be O(x^{out_prec}) with no visible term")
        return _canon(*form, out_prec)

    # -- composition and reversion -------------------------------------------

    def compose(self, inner: "PuiseuxPoly", precision=None) -> "PuiseuxPoly":
        """Substitute ``inner`` (valuation > 0) for x in self, known as far
        as ``_compose`` says."""
        p = None if precision is None else rat(precision)
        N, lo, nums, den, prec = _compose(self, inner, None if p is None else (p.numerator, p.denominator))
        return _canon(N, lo, nums, den, INF if prec is None else Fraction(*prec))

    # -- presentation ---------------------------------------------------------

    def __str__(self):
        parts = []
        for e, c in self.terms:
            xp = "x" if e == 1 else f"x^{e}" if e.denominator == 1 and e > 0 else f"x^({e})"
            piece = _text(abs(c)) if e == 0 else xp if abs(c) == 1 else f"{_text(abs(c))}*{xp}"
            parts.append(f"{'-' if c < 0 else '+'} {piece}")
        body = " ".join(parts)
        body = "0" if not body else body[2:] if body[0] == "+" else "-" + body[2:]
        p = self.precision
        if p is INF:
            return body
        ptxt = f"x^{p}" if p.denominator == 1 else f"x^({p})"
        return f"O({ptxt})" if body == "0" else f"{body} + O({ptxt})"

    def __repr__(self):
        return f"PuiseuxPoly({self})"


# -- the integer kernel -----------------------------------------------------------


def _new(N, lo, nums, den, precision, terms=None, into=None) -> PuiseuxPoly:
    """The series of an already canonical form, set up in ``into`` if given."""
    s = object.__new__(PuiseuxPoly) if into is None else into
    s.N, s.lo, s.nums, s.den = N, lo, nums, den
    s.precision, s._terms, s._hash = precision, terms, None
    return s


def _canon(N, lo, nums: list, den, precision) -> PuiseuxPoly:
    """The series of the form (N, lo, nums, den, precision), made
    canonical: slots at or past the precision cut, zero ends stripped,
    the common factor of den and nums divided out, N made least."""
    if precision is not INF:
        del nums[max(_ceil(precision, N) - lo, 0):]
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _new(1, 0, (), 1, precision)
    i = 0
    while not nums[i]:
        i += 1
    if i:
        nums, lo = nums[i:], lo + i
    if den > 1:
        g = math.gcd(den, *nums)
        if g > 1:
            den, nums = den // g, [c // g for c in nums]
    if N > 1:
        g = math.gcd(N, lo)
        k = 1
        while g > 1 and k < len(nums):
            if nums[k]:
                g = math.gcd(g, k)
            k += 1
        if g > 1:
            N, lo, nums = N // g, lo // g, nums[::g]
    return _new(N, lo, tuple(nums), den, precision)


def _spread(nums, s: int) -> list:
    """The slots moved from the lattice x^(1/N) to x^(1/(s*N))."""
    if s == 1 or not nums:
        return list(nums)
    out = [0] * ((len(nums) - 1) * s + 1)
    out[::s] = nums
    return out


def _add(a: PuiseuxPoly, b: PuiseuxPoly, sign: int) -> PuiseuxPoly:
    """a + sign*b on the lcm lattice over the lcm denominator."""
    prec = min(a.precision, b.precision)
    if not b.nums:
        return a._cut(None, prec)
    if not a.nums:
        return (b if sign > 0 else -b)._cut(None, prec)
    N, den = math.lcm(a.N, b.N), math.lcm(a.den, b.den)
    sa, sb = N // a.N, N // b.N
    ma, mb = den // a.den, sign * (den // b.den)
    la, lb = a.lo * sa, b.lo * sb
    lo = min(la, lb)
    acc = [0] * (max(la + (len(a.nums) - 1) * sa, lb + (len(b.nums) - 1) * sb) - lo + 1)
    start = la - lo
    acc[start : start + (len(a.nums) - 1) * sa + 1 : sa] = [c * ma for c in a.nums]
    start = lb - lo
    for k, c in enumerate(b.nums):
        if c:
            acc[start + k * sb] += c * mb
    return _canon(N, lo, acc, den, prec)


def _over_monomial(s: PuiseuxPoly, m: PuiseuxPoly) -> PuiseuxPoly:
    """s divided by an exact one-slot m: a respread and a scale."""
    N = math.lcm(s.N, m.N)
    c, d = m.nums[0], m.den
    if c < 0:
        c, d = -c, -d
    prec = s.precision if s.precision is INF else s.precision - Fraction(m.lo, m.N)
    nums = [x * d for x in _spread(s.nums, N // s.N)]
    return _canon(N, s.lo * (N // s.N) - m.lo * (N // m.N), nums, s.den * c, prec)


def _sum(pieces) -> tuple:
    """The sum of the forms (N, lo, nums, den) as one form on their lcm
    lattice over their lcm denominator, not yet canonical."""
    if not pieces:
        return 1, 0, [], 1
    N = math.lcm(*(f[0] for f in pieces))
    common = math.lcm(*(f[3] for f in pieces))
    lo = min(f[1] * (N // f[0]) for f in pieces)
    acc = [0] * (max((f[1] + len(f[2])) * (N // f[0]) for f in pieces) - lo)
    for n, at, nums, d in pieces:
        s, m = N // n, common // d
        at = at * s - lo
        for k, c in enumerate(nums):
            if c:
                acc[at + k * s] += c * m
    return N, lo, acc, common


def _convolve(a, sa: int, b, sb: int, size: int) -> list:
    """Slots 0..size-1 of the product of the slot lists a and b, spread
    by sa and sb onto one lattice."""
    acc = [0] * max(size, 0)
    bs = [(j * sb, d) for j, d in enumerate(b) if d]
    for i, c in enumerate(a):
        i *= sa
        if i >= size:
            break
        if c:
            for j, d in bs:
                if i + j >= size:
                    break
                acc[i + j] += c * d
    return acc


def _lesser(p, q):
    """The smaller of two precisions given as pairs (a, b) for a/b, b > 0,
    or None for INF."""
    if p is None or q is None:
        return q if p is None else p
    return p if p[0] * q[1] <= q[0] * p[1] else q


def _compose(f: PuiseuxPoly, g: PuiseuxPoly, bound) -> tuple:
    """f(g) as a form (N, lo, nums, den, prec), not yet canonical, known to
    O(x^prec), prec a pair (a, b) for a/b, b > 0, or None when exact; the
    caller's ``bound``, a pair or None, caps prec.

    With val(g) = m/n, prec is the least of prec(f)*m/n, (val(f) - 1)*m/n
    + prec(g) for a truncated g (val(f) read as 1 for a truncated zero f),
    the bound, and for an exact f(g) with infinitely many terms (g with
    more than one slot and f with a fractional or negative exponent)
    DEFAULT_PRECISION*max(m/n, 1).  The term x^(k/N) of f is live when
    K = ceil((prec - m*k/(n*N))*n) > 0, K its power's slots on g's
    lattice; every piece is known that far.  A term with an integer
    exponent j >= 0 takes the next power g^j, an integer convolution cut
    at prec, any other one ``_power`` with its coefficient folded in, and
    the pieces are summed on one lattice over one denominator.  The root
    of g's leading coefficient is taken once per exponent denominator.
    When g is one slot c0*x^(m/n), every piece is the slot c*c0^(k/N) at
    index k*m of the lattice 1/(N*n), so f's slots are respread with
    their root powers and nothing else is computed.
    """
    if g.nums:
        if g.lo <= 0:
            raise ValueError("compose requires val(inner) > 0")
    elif g.precision is INF:
        # inner is exactly 0: only nonnegative-exponent terms survive
        if f.nums and f.lo < 0:
            raise ZeroDivisionError("negative exponent at inner = 0")
        if f.precision <= 0:
            raise InsufficientPrecision(f"constant term undecidable: element is O(x^{f.precision})")
        return 1, 0, [f.nums[-f.lo] if 0 <= -f.lo < len(f.nums) else 0], f.den, None
    elif g.precision <= 0:
        raise ValueError("compose requires val(inner) > 0")
    else:
        g.val()  # raises: a truncated zero has no visible valuation
    N, m, n = f.N, g.lo, g.N
    fp, gp = f.precision, g.precision
    prec = None if fp is INF else (fp.numerator * m, fp.denominator * n)
    if gp is not INF:
        w = f.lo - N if f.nums else 0  # (val(f) - 1)*N
        prec = _lesser(prec, (w * m * gp.denominator + gp.numerator * N * n, N * n * gp.denominator))
    prec = _lesser(prec, bound)
    # a fractional or negative exponent expands to an infinite series
    if prec is None and (N > 1 or f.lo < 0) and len(g.nums) > 1:
        prec = (DEFAULT_PRECISION.numerator * max(m, n), n)
    a, b = (None, None) if prec is None else prec
    roots = {}

    def root(q):
        r = roots.get(q)
        if r is None:
            r = roots[q] = _root(g.nums[0], g.den, q)
        return r

    if len(g.nums) == 1:
        vals, dens = [], []
        for k, c in enumerate(f.nums, f.lo):
            if a is not None and m * k * b >= a * n * N:
                break  # this term and every later one live beyond prec
            d = 1
            if c:
                e = math.gcd(k, N)
                rn, rd = root(N // e)
                p = k // e
                if p < 0:
                    rn, rd, p = rd, rn, -p
                c, d = c * rn**p, rd**p
            vals.append(c)
            dens.append(d)
        common = math.lcm(*dens)
        vals = [c * (common // d) for c, d in zip(vals, dens)]
        return N * n, f.lo * m, _spread(vals, m), common * f.den, prec
    pieces = []
    pw, cur = [1], 0  # g**cur on g's lattice, over g.den**cur
    top = None if a is None else -(-a * n // b)  # g's first lattice index at or past prec
    for k, c in enumerate(f.nums, f.lo):
        if not c:
            continue
        if a is None:
            K = 1
        else:
            K = -((m * k * b - a * n * N) // (b * N))
            if K <= 0:
                break  # this term and every later one live beyond prec
        if k >= 0 and k % N == 0:
            while cur < k // N:
                cur += 1
                pw = _convolve(pw, 1, g.nums, 1, len(pw) + len(g.nums) - 1 if top is None else top - cur * m)
            pieces.append((n, cur * m, [c * x for x in pw], g.den**cur))
        else:
            e = math.gcd(k, N)
            pieces.append(_power(g, k // e, N // e, K, c, root(N // e)))
    M, lo, acc, common = _sum(pieces)
    return M, lo, acc, common * f.den, prec


def _root(num: int, den: int, q: int) -> tuple:
    """The rational q-th root of num/den, den > 0, as (rn, rd) in lowest
    terms with rd > 0; NotRepresentable when there is none."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if q > 1:
        rn = None if num < 0 and q % 2 == 0 else _int_nth_root(abs(num), q)
        rd = _int_nth_root(den, q)
        if rn is None or rd is None:
            raise NotRepresentable(f"{Fraction(num, den)} has no rational {q}-th root")
        num, den = (rn if num >= 0 else -rn), rd
    return num, den


def _power(s: PuiseuxPoly, p: int, q: int, K: int, coeff: int = 1, root=None) -> tuple:
    """The form (N, lo, nums, den) of the first K slots (none for K <= 0)
    of ``coeff * s**(p/q)``, p/q in lowest terms and s with a visible
    leading term; ``root`` is the q-th root of that term's coefficient as
    ``_root`` gives it, taken here when not given (NotRepresentable
    without one).

    With s = c0*x^v*u, u = 1 + ... a unit and r the root, the power is
    coeff * r**p * x^(v*p/q) * u^(p/q), and ``_unit_power`` reads u^(p/q)
    on the lattice of s.  A unit with no slot past its 1 needs one slot:
    its truncation, if any, is the caller's precision.  A/D is brought to
    lowest terms and the lead's numerator cross-reduced against D before
    the slots are multiplied, so no slot grows by a factor it sheds again.
    """
    rn, rd = _root(s.nums[0], s.den, q) if root is None else root
    if p < 0:
        rn, rd = rd, rn
    lead, rd = coeff * rn ** abs(p), rd ** abs(p)
    A, D = _unit_power(s.nums, p, q, K if len(s.nums) > 1 else min(K, 1))
    g = math.gcd(D, *A)
    h = math.gcd(lead, D // g)
    lead, D = lead // h, D // g // h
    if rd < 0:
        lead, rd = -lead, -rd
    return s.N * q, s.lo * p, _spread([x // g * lead for x in A], q), D * rd


def _unit_power(c: tuple, p: int, q: int, K: int):
    """Slots 0..K-1 of u^(p/q), u the unit with slots f_k = c[k]/c[0], as
    integers A over one D > 0.

    J.C.P. Miller's recurrence for W = V^alpha (Knuth, TAOCP vol. 2,
    4.7): a_0 = 1 and a_n = (1/n) * sum_{k=1..n} ((alpha + 1)*k - n) * f_k * a_(n-k).
    With f_k = c_k/d in lowest common terms, take lam with the denominator
    of every f_k dividing lam^k (lam divides d; for f_k over 4^k it is 4,
    not d).  Then a_n * n! * (q*lam)^n is an integer, as the binomial
    series of u(x/lam) shows, so with D = (K-1)! * (q*lam)^(K-1) every
    A_n = a_n * D is one: the exact quotient
    sum_k ((p + q)*k - q*n) * c_k * A_(n-k) / (n*q*d).
    O(K*s) int operations for s nonzero slots.
    """
    if K <= 0:
        return [], 1
    live = [(k, ck) for k, ck in enumerate(c[1:K], 1) if ck]
    g = math.gcd(c[0], *(ck for _, ck in live))
    d, live = c[0] // g, [(k, ck // g) for k, ck in live]
    lam = 1
    for k, ck in live:
        den = abs(d) // math.gcd(d, ck)
        lam *= den // math.gcd(den, pow(lam, k, den))
    D = math.factorial(K - 1) * (q * lam) ** (K - 1)
    live = [(k, (p + q) * k * ck, q * ck) for k, ck in live]
    qd = q * d
    A = [D]
    for n in range(1, K):
        t = 0
        for k, a, b in live:
            if k > n:
                break
            t += (a - n * b) * A[n - k]
        A.append(t // (n * qd))
    return A, D


#: The series x, exactly.
X = PuiseuxPoly.monomial(1, 1)


def as_series(value) -> PuiseuxPoly:
    if isinstance(value, PuiseuxPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return PuiseuxPoly.const(value)
    raise TypeError(f"cannot interpret {value!r} as a Puiseux series")


def nth_root_fraction(q: Fraction, n: int):
    """Exact rational n-th root of q, or None.

    For even n only nonnegative q can have one; for odd n the sign is
    carried along.
    """
    q = rat(q)
    if n <= 0:
        raise ValueError("root index must be positive")
    try:
        return Fraction(*_root(q.numerator, q.denominator, n))
    except NotRepresentable:
        return None


def _int_nth_root(m: int, n: int):
    """The integer n-th root of m >= 0 when m is an n-th power, else None."""
    if m < 2:
        return m
    # Newton's iteration from above descends to floor(m^(1/n))
    r = 1 << -(-m.bit_length() // n)
    while True:
        s = ((n - 1) * r + m // r ** (n - 1)) // n
        if s >= r:
            return r if r**n == m else None
        r = s


def reversion(phi1: PuiseuxPoly, target_precision=None) -> PuiseuxPoly:
    """Compositional inverse of a germ ``lam*x^n*(1 + h.o.t.)``.

    Returns g with ``g(phi1(x)) = x`` to the target precision, or to what
    a truncated germ determines if that is less; g has exponents in
    (1/n)Z.  It needs a rational n-th root rho of lam (NotRepresentable
    otherwise), and a rational root of rho for every fractional exponent
    that a nonzero term of g reads (NotRepresentable naming 1/rho, the
    leading coefficient of g, otherwise).

    Lagrange inversion (Knuth, TAOCP vol. 2, 4.7), term by term: with
    phi1 = lam*x^n*U, U = 1 + ... on the lattice 1/N, the term of g at
    x^((N + k)/(n*N)) is N/(N + k) * rho^(-(N + k)/N) * [x^(k/N)] U^a_k,
    a_k = -(N + k)/(n*N), read by one ``_unit_power`` run on U's slots.
    Only a k that is a sum of U's exponents past its 1 can be nonzero, so
    a monomial germ runs none.
    """
    target = DEFAULT_PRECISION if target_precision is None else rat(target_precision)
    v = phi1.val()
    if v is INF or v <= 0 or v.denominator != 1:
        raise ValueError("germ must have integer valuation n >= 1")
    n, N, c = int(v), phi1.N, phi1.nums
    lam = phi1.leading_coeff()
    rho = nth_root_fraction(lam, n)
    if rho is None:
        raise NotRepresentable(f"reversion needs a rational {n}-th root of {lam}")
    prec = target
    if phi1.precision is not INF:
        # the term at k reads U's slots to k: U is known to O(x^(prec(phi1) - n))
        prec = min(target, (phi1.precision - n + 1) / n)
    K = _ceil(prec, n * N) - N
    live = [j for j in range(1, min(K, len(c))) if c[j]]
    reach = [True] + [False] * max(K - 1, 0)
    inv, roots = 1 / rho, {}
    terms = [0] * max(K, 0)
    for k in range(1, K):
        reach[k] = any(reach[k - j] for j in live if j <= k)
    for k in range(K):
        if not reach[k]:
            continue
        e = math.gcd(N + k, n * N)
        A, D = _unit_power(c, -(N + k) // e, n * N // e, k + 1) if k else ([1], 1)
        if A[k]:
            e = math.gcd(k, N)
            q = N // e
            if q not in roots:
                roots[q] = _root(inv.numerator, inv.denominator, q)
            rn, rd = roots[q]  # (1/rho)^(1/q)
            p = (N + k) // e
            terms[k] = Fraction(N * A[k] * rn**p, (N + k) * D * rd**p)
    den = math.lcm(*(t.denominator for t in terms if t))
    g = _canon(n * N, N, [t and t.numerator * (den // t.denominator) for t in terms], den, prec)
    check = g.compose(phi1, precision=target)
    if not check.agrees_with(X.truncate_soft(target)):
        raise InsufficientPrecision("reversion failed its self-check")
    return g
