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
``shift``, ``stretch``, ``derivative``, the truncations and ``coeff_at``
are index arithmetic; ``ramification_index`` reads N.  A negative or
fractional power to K slots (``inv``, ``rational_power``) is one run of
Miller's recurrence on the integer slots, O(K*s) int operations and no
series product; ``compose`` takes an incremental product per integer
exponent and one such power per other exponent, and adds them all on one
lattice over one denominator.  ``reversion`` is built on these.

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
        return _canon(N, lo, acc, self.den * o.den, prec)

    __rmul__ = __mul__

    def shift(self, delta) -> "PuiseuxPoly":
        """Multiply by x^delta."""
        d = rat(delta)
        N = math.lcm(self.N, d.denominator)
        lo = self.lo * (N // self.N) + d.numerator * (N // d.denominator)
        return _canon(N, lo, _spread(self.nums, N // self.N), self.den, self.precision + d)

    def stretch(self, factor) -> "PuiseuxPoly":
        """Substitute x -> x^factor (factor a positive rational)."""
        f = rat(factor)
        if f <= 0:
            raise ValueError("stretch factor must be positive")
        N, lo = self.N * f.denominator, self.lo * f.numerator
        return _canon(N, lo, _spread(self.nums, f.numerator), self.den, self.precision * f)

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

    def derivative(self) -> "PuiseuxPoly":
        N, lo = self.N, self.lo
        nums = [c * (lo + k) for k, c in enumerate(self.nums)]
        return _canon(N, lo - N, nums, self.den * N, self.precision - 1)

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
        """Substitute ``inner`` (valuation > 0) for x in self.

        A term with an integer exponent takes the next incremental power
        of ``inner``, any other one ``_power`` with its coefficient folded
        in; the pieces are summed on one lattice over one denominator.
        """
        if inner.val_floor() is not INF and inner.val_floor() <= 0:
            raise ValueError("compose requires val(inner) > 0")
        if inner.is_exact_zero:
            # inner is exactly 0: only nonnegative-exponent terms survive
            if self.nums and self.lo < 0:
                raise ZeroDivisionError("negative exponent at inner = 0")
            if self.precision <= 0:
                raise InsufficientPrecision(f"constant term undecidable: element is O(x^{self.precision})")
            return PuiseuxPoly.const(self.coeff_at(0))
        iv = inner.val()
        out_prec = self.precision * iv
        if inner.precision is not INF:
            worst = self.val_floor() if self.nums else Fraction(1)
            out_prec = min(out_prec, (worst - 1) * iv + inner.precision)
        if precision is not None:
            out_prec = min(out_prec, rat(precision))
        # a fractional or negative exponent expands to an infinite series
        if out_prec is INF and (self.N > 1 or self.lo < 0) and len(inner.nums) > 1:
            out_prec = DEFAULT_PRECISION * max(iv, 1)
        # with iv = m/n and out_prec = a/b, the term x^(k/N) is live when
        # K = ceil((a/b - iv*k/N)*n) > 0, K its power's slots on inner's
        # lattice; a truncated inner bounds out_prec, so every piece is
        # known at least that far
        N, m, n = self.N, inner.lo, inner.N
        a, b = (None, None) if out_prec is INF else (out_prec.numerator, out_prec.denominator)
        pieces = []
        pw, cur = PuiseuxPoly.const(1), 0
        for k, c in enumerate(self.nums, self.lo):
            if not c:
                continue
            if a is None:
                K = 1
            else:
                K = -((m * k * b - a * n * N) // (b * N))
                if K <= 0:
                    break  # this term and every later one live beyond the output precision
            if k >= 0 and k % N == 0:
                while cur < k // N:
                    pw = (pw * inner).truncate_soft(out_prec)
                    cur += 1
                pieces.append((pw.N, pw.lo, [c * x for x in pw.nums], pw.den))
            else:
                g = math.gcd(k, N)
                pieces.append(_power(inner, k // g, N // g, K, c))
        return _sum(pieces, out_prec, self.den)

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


def _sum(pieces, precision, den) -> PuiseuxPoly:
    """The sum of the forms (N, lo, nums, den), divided by ``den``, on
    their lcm lattice over their lcm denominator, known to O(x^precision):
    one ``_canon``."""
    if not pieces:
        return _new(1, 0, (), 1, precision)
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
    return _canon(N, lo, acc, common * den, precision)


def _power(s: PuiseuxPoly, p: int, q: int, K: int, coeff: int = 1) -> tuple:
    """The form (N, lo, nums, den) of the first K slots (none for K <= 0)
    of ``coeff * s**(p/q)``, p/q in lowest terms and s with a visible
    leading term; NotRepresentable without a rational q-th root of that
    term's coefficient.

    With s = c0*x^v*u, u = 1 + ... a unit and r the root, the power is
    coeff * r**p * x^(v*p/q) * u^(p/q), and ``_unit_power`` reads u^(p/q)
    on the lattice of s.  A unit with no slot past its 1 needs one slot:
    its truncation, if any, is the caller's precision.
    """
    c0 = Fraction(s.nums[0], s.den)
    r = nth_root_fraction(c0, q)
    if r is None:
        raise NotRepresentable(f"{c0} has no rational {q}-th root")
    r = r ** p
    A, D = _unit_power(s.nums, p, q, K if len(s.nums) > 1 else min(K, 1))
    lead = coeff * r.numerator
    return s.N * q, s.lo * p, _spread([x * lead for x in A], q), D * r.denominator


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
    if n == 1:
        return q
    if q < 0 and n % 2 == 0:
        return None
    num = _int_nth_root(abs(q.numerator), n)
    den = _int_nth_root(q.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num if q > 0 else -num, den)


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

    Returns g with ``g(phi1(x)) = x`` up to the target precision; g has
    exponents in (1/n)Z.  For n >= 2 a rational n-th root of the leading
    coefficient is required (NotRepresentable otherwise).
    """
    target = DEFAULT_PRECISION if target_precision is None else rat(target_precision)
    v = phi1.val()
    if v is INF or v <= 0 or v.denominator != 1:
        raise ValueError("germ must have integer valuation n >= 1")
    n = int(v)
    lam = phi1.leading_coeff()
    if n == 1:
        g = _reversion_simple(phi1, target)
    else:
        root = nth_root_fraction(lam, n)
        if root is None:
            raise NotRepresentable(f"reversion needs a rational {n}-th root of {lam}")
        # phi1 = (root * x * unit^(1/n))^n ; invert the inner simple germ
        unit = phi1.shift(-v).scale(1 / lam)
        work = max(target * n, Fraction(4))
        inner = (X * unit.rational_power(Fraction(1, n), work)).scale(root)
        rev = _reversion_simple(inner, work)
        g = rev.stretch(Fraction(1, n))
    check = g.compose(phi1, precision=target)
    if not check.agrees_with(X.truncate_soft(target)):
        raise InsufficientPrecision("reversion failed its self-check")
    return g.truncate_soft(target)


def _reversion_simple(f: PuiseuxPoly, target: Fraction) -> PuiseuxPoly:
    # Newton iteration g <- g - (f(g) - x) / f'(g) with progressive
    # precision lifting; quadratic convergence keeps this cheap.
    c1 = f.leading_coeff()
    work = target + 1
    g = X.scale(1 / c1)
    fp = f.derivative()
    p = min(Fraction(3), work)
    for _ in range(200):
        err = f.compose(g, precision=p) - X
        if err and err.val_floor() < p:
            corr = err * fp.compose(g, precision=p).inv(precision=p)
            g = (g - corr).truncate_soft(p)
            continue
        if p >= work:
            return g.truncate_soft(work)
        p = min(work, p * 2)
        g = g._cut(None, p)
    raise InsufficientPrecision("reversion iteration did not converge")
