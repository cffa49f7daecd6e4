"""Exact truncated Puiseux series with rational coefficients and exponents.

An element is a finite sum ``c_1*x^(e_1) + ... + c_k*x^(e_k)`` with
``c_i`` in Q, ``e_i`` in Q strictly increasing, known modulo
``O(x^precision)``.  ``precision`` is either a rational or the sentinel
``INF`` for exactly known elements.  The ambient absolute value is
``|a| = |x|^val(a)`` with ``|x| < 1``: larger valuation means smaller
element.

Precision is explicit rather than ambient: every arithmetic operation
propagates the tightest bound that is actually justified, and operations
whose result is undecidable at the available precision raise
InsufficientPrecision instead of guessing.  There is no floating point
anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InsufficientPrecision, NotRepresentable

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

    def __radd__(self, other):
        return self

    def __sub__(self, other):
        if other is self:
            raise ArithmeticError("INF - INF")
        return self

    def __mul__(self, other):
        if other == 0:
            raise ArithmeticError("INF * 0")
        return self

    def __rmul__(self, other):
        return self.__mul__(other)

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


def _is_prec(p) -> bool:
    return p is INF or isinstance(p, Fraction)


class PuiseuxPoly:
    """Immutable truncated Puiseux series.

    ``terms`` is a tuple of ``(exponent, coefficient)`` pairs, exponents
    strictly increasing, coefficients nonzero, every exponent below
    ``precision``.  The zero element has no terms; with finite precision
    it stands for "some element of O(x^precision)".
    """

    __slots__ = ("terms", "precision", "_hash")

    def __init__(self, terms=(), precision=INF):
        if not _is_prec(precision):
            precision = rat(precision)
        merged: dict = {}
        for e, c in terms:
            e = rat(e)
            c = rat(c)
            if c == 0 or not e < precision:
                continue
            s = merged.get(e, Fraction(0)) + c
            if s == 0:
                merged.pop(e, None)
            else:
                merged[e] = s
        object.__setattr__(self, "terms", tuple(sorted(merged.items())))
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, precision=INF) -> "PuiseuxPoly":
        return cls((), precision)

    @classmethod
    def const(cls, c) -> "PuiseuxPoly":
        return cls(((Fraction(0), rat(c)),))

    @classmethod
    def monomial(cls, coeff, exponent, precision=INF) -> "PuiseuxPoly":
        return cls(((rat(exponent), rat(coeff)),), precision)

    # -- basic queries -----------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return not self.terms and self.precision is INF

    def val(self):
        """Valuation: exponent of the leading term; INF for exact zero.

        Raises InsufficientPrecision when no term is visible but the tail
        O(x^precision) could hide one.
        """
        if self.terms:
            return self.terms[0][0]
        if self.precision is INF:
            return INF
        raise InsufficientPrecision(
            f"valuation undecidable: element is O(x^{self.precision})"
        )

    def val_floor(self):
        """A safe lower bound for the valuation; never raises."""
        if self.terms:
            return self.terms[0][0]
        return self.precision

    def leading_coeff(self) -> Fraction:
        if not self.terms:
            raise InsufficientPrecision("no visible leading term")
        return self.terms[0][1]

    def coeff_at(self, exponent) -> Fraction:
        e = rat(exponent)
        for te, tc in self.terms:
            if te == e:
                return tc
        return Fraction(0)

    def residue(self) -> Fraction:
        """Coefficient at exponent 0 (the mod-x value of a val >= 0 element)."""
        return self.coeff_at(0)

    def ramification_index(self) -> int:
        """Least n with all exponents in (1/n)Z; 1 for the zero element."""
        n = 1
        for e, _ in self.terms:
            n = n * e.denominator // math.gcd(n, e.denominator)
        return n

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, PuiseuxPoly):
            return NotImplemented
        return self.terms == other.terms and self.precision == other.precision

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.terms, self.precision))
            object.__setattr__(self, "_hash", h)
        return h

    def agrees_with(self, other: "PuiseuxPoly") -> bool:
        """Equality modulo the coarser of the two precisions."""
        p = min(self.precision, other.precision)
        return self.truncate_soft(p).terms == other.truncate_soft(p).terms

    # -- truncation --------------------------------------------------------

    def truncate(self, t) -> "PuiseuxPoly":
        """Drop terms with exponent >= t; the result has precision exactly t.

        Raises ValueError when t exceeds the known precision (the dropped
        tail would not be justified).
        """
        t = rat(t)
        if self.precision is not INF and t > self.precision:
            raise ValueError(
                f"cannot truncate at {t}: element only known to O(x^{self.precision})"
            )
        return PuiseuxPoly(self.terms, t)

    def truncate_soft(self, t) -> "PuiseuxPoly":
        """Like truncate but clamps t to the available precision."""
        if self.precision is not INF and t > self.precision:
            t = self.precision
        return PuiseuxPoly(self.terms, t)

    def drop_from(self, t) -> "PuiseuxPoly":
        """Discard terms with exponent >= t but keep the stated precision INF.

        Used for canonical representatives where the dropped tail is
        irrelevant by definition, not unknown.
        """
        t = rat(t)
        if self.precision is INF and (not self.terms or self.terms[-1][0] < t):
            return self
        return PuiseuxPoly(tuple((e, c) for e, c in self.terms if e < t), INF)

    def keep_through(self, t) -> "PuiseuxPoly":
        """Discard terms with exponent > t; exact result (class representative)."""
        t = rat(t)
        return PuiseuxPoly(tuple((e, c) for e, c in self.terms if e <= t), INF)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PuiseuxPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return PuiseuxPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.precision, o.precision)
        return PuiseuxPoly(self.terms + o.terms, prec)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxPoly(tuple((e, -c) for e, c in self.terms), self.precision)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # precision: unknown tail of one factor times the other factor
        prec = INF
        if self.precision is not INF:
            prec = min(prec, self.precision + o.val_floor())
        if o.precision is not INF:
            prec = min(prec, o.precision + self.val_floor())
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in o.terms:
                e = e1 + e2
                if prec is not INF and e >= prec:
                    continue
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return PuiseuxPoly(tuple(acc.items()), prec)

    __rmul__ = __mul__

    def shift(self, delta) -> "PuiseuxPoly":
        """Multiply by x^delta."""
        d = rat(delta)
        prec = self.precision if self.precision is INF else self.precision + d
        return PuiseuxPoly(tuple((e + d, c) for e, c in self.terms), prec)

    def stretch(self, factor) -> "PuiseuxPoly":
        """Substitute x -> x^factor (factor a positive rational)."""
        f = rat(factor)
        if f <= 0:
            raise ValueError("stretch factor must be positive")
        prec = self.precision if self.precision is INF else self.precision * f
        return PuiseuxPoly(tuple((e * f, c) for e, c in self.terms), prec)

    def scale(self, c) -> "PuiseuxPoly":
        c = rat(c)
        if c == 0:
            return PuiseuxPoly.zero(self.precision)
        return PuiseuxPoly(tuple((e, c * k) for e, k in self.terms), self.precision)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        result = PuiseuxPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def derivative(self) -> "PuiseuxPoly":
        prec = self.precision if self.precision is INF else self.precision - 1
        return PuiseuxPoly(
            tuple((e - 1, c * e) for e, c in self.terms if e != 0), prec
        )

    # -- inversion and powers ----------------------------------------------

    def inv(self, precision=None) -> "PuiseuxPoly":
        """Multiplicative inverse by geometric series.

        The natural output precision is ``self.precision - 2*val(self)``;
        pass ``precision`` to ask for another, which a truncated input
        caps at the natural one.  Exact inputs default to DEFAULT_PRECISION
        worth of output unless they invert exactly.
        """
        v = self.val()  # raises on invisible leading term
        if v is INF:
            raise ZeroDivisionError("inverse of exact zero")
        c0 = self.leading_coeff()
        unit = self.shift(-v).scale(1 / c0)  # 1 + h, val(h) > 0
        h = unit - 1
        if not h and unit.precision is INF:
            out_prec = INF if precision is None else rat(precision)
            res = PuiseuxPoly.monomial(1 / c0, -v)
            return res if out_prec is INF else res.truncate_soft(out_prec)
        if self.precision is not INF:
            out_prec = self.precision - 2 * v
            if precision is not None:
                out_prec = min(out_prec, rat(precision))
        elif precision is not None:
            out_prec = rat(precision)
        else:
            out_prec = DEFAULT_PRECISION - v
        rel = out_prec + v  # precision needed for 1/unit
        if h:
            if rel <= 0:
                raise InsufficientPrecision(
                    f"inverse would be O(x^{out_prec}) with no visible term"
                )
            acc = {Fraction(0): Fraction(1)}
            pw = PuiseuxPoly.const(1)
            step = h.val()
            k = 1
            while step * k < rel:
                pw = (pw * (-h)).truncate_soft(rel)
                for e, c in pw.terms:
                    acc[e] = acc.get(e, Fraction(0)) + c
                k += 1
            inv_unit = PuiseuxPoly(acc.items(), rel)
        else:
            inv_unit = PuiseuxPoly.const(1).truncate_soft(rel)
        return inv_unit.scale(1 / c0).shift(-v).truncate_soft(out_prec)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def rational_power(self, e, precision=None) -> "PuiseuxPoly":
        """self ** e for rational e, when representable over Q.

        Needs a rational e.denominator-th root of the leading coefficient;
        raises NotRepresentable otherwise.  Fractional powers of
        multi-term series are infinite expansions and are truncated at
        ``precision`` (DEFAULT_PRECISION-based fallback), and never past
        what a truncated input supports.
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
        c0 = self.leading_coeff()
        root = nth_root_fraction(c0, e.denominator)
        if root is None:
            raise NotRepresentable(
                f"{c0} has no rational {e.denominator}-th root"
            )
        lead = Fraction(root) ** e.numerator
        unit = self.shift(-v).scale(1 / c0)
        h = unit - 1
        if not h and unit.precision is INF:
            res = PuiseuxPoly.monomial(lead, v * e)
            return res if precision is None else res.truncate_soft(rat(precision))
        if precision is None:
            out_prec = v * e + (DEFAULT_PRECISION if unit.precision is INF else unit.precision)
        else:
            # a truncated unit bounds what the expansion can know
            out_prec = rat(precision)
            if unit.precision is not INF:
                out_prec = min(out_prec, v * e + unit.precision)
        rel = out_prec - v * e
        if rel <= 0:
            raise InsufficientPrecision("fractional power truncated away entirely")
        acc = {Fraction(0): Fraction(1)}
        pw = PuiseuxPoly.const(1)
        k = 0
        binom = Fraction(1)
        if h:
            hv = h.val()
            while hv * (k + 1) < rel:
                k += 1
                binom = binom * (e - (k - 1)) / k
                pw = (pw * h).truncate_soft(rel)
                for te, tc in pw.terms:
                    acc[te] = acc.get(te, Fraction(0)) + binom * tc
        unit_pow = PuiseuxPoly(acc.items(), rel)
        return unit_pow.scale(lead).shift(v * e).truncate_soft(out_prec)

    # -- composition and reversion -------------------------------------------

    def compose(self, inner: "PuiseuxPoly", precision=None) -> "PuiseuxPoly":
        """Substitute ``inner`` (valuation > 0) for x in self."""
        if inner.val_floor() is not INF and inner.val_floor() <= 0:
            raise ValueError("compose requires val(inner) > 0")
        if not inner.terms and inner.precision is INF:
            # inner is exactly 0: only nonnegative-exponent terms survive
            for e, _ in self.terms:
                if e < 0:
                    raise ZeroDivisionError("negative exponent at inner = 0")
            return PuiseuxPoly.const(self.coeff_at(0))
        iv = inner.val()
        out_prec = INF
        if self.precision is not INF:
            out_prec = min(out_prec, self.precision * iv)
        if inner.precision is not INF:
            worst = min((e for e, _ in self.terms), default=Fraction(1))
            out_prec = min(out_prec, (worst - 1) * iv + inner.precision)
        if precision is not None:
            out_prec = rat(precision) if out_prec is INF else min(out_prec, rat(precision))
        needs_cutoff = any(
            (e.denominator != 1 or e < 0) for e, _ in self.terms
        ) and len(inner.terms) > 1
        if out_prec is INF and needs_cutoff:
            out_prec = DEFAULT_PRECISION * max(iv, 1)
        acc = PuiseuxPoly.zero(out_prec) if out_prec is not INF else PuiseuxPoly.zero()
        # incremental powers for the integer exponents (the common case),
        # one fractional-power expansion per remaining term
        int_terms = sorted(
            (e, c) for e, c in self.terms if e.denominator == 1 and e >= 0
        )
        pw = PuiseuxPoly.const(1)
        cur = 0
        for e, c in int_terms:
            if out_prec is not INF and iv * e >= out_prec:
                break
            while cur < e:
                pw = pw * inner
                if out_prec is not INF:
                    pw = pw.truncate_soft(out_prec)
                cur += 1
            acc = acc + pw.scale(c)
        for e, c in self.terms:
            if e.denominator == 1 and e >= 0:
                continue
            if out_prec is not INF and iv * e >= out_prec:
                continue  # whole term lives beyond the output precision
            frac_pw = inner.rational_power(
                e, None if out_prec is INF else out_prec
            )
            acc = acc + frac_pw.scale(c)
        if out_prec is not INF:
            acc = acc.truncate_soft(out_prec)
        return acc

    # -- presentation ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            body = "0"
        else:
            parts = []
            for i, (e, c) in enumerate(self.terms):
                coeff = abs(c)
                if e == 0:
                    piece = str(coeff)
                else:
                    xp = "x" if e == 1 else (
                        f"x^{e}" if e.denominator == 1 and e > 0 else f"x^({e})"
                    )
                    piece = xp if coeff == 1 else f"{coeff}*{xp}"
                if i == 0:
                    parts.append(piece if c > 0 else f"-{piece}")
                else:
                    parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
            body = " ".join(parts)
        if self.precision is INF:
            return body
        ptxt = (
            f"x^{self.precision}"
            if self.precision.denominator == 1
            else f"x^({self.precision})"
        )
        if body == "0":
            return f"O({ptxt})"
        return f"{body} + O({ptxt})"

    def __repr__(self):
        return f"PuiseuxPoly({self})"


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
    if q == 0:
        return Fraction(0)
    sign = 1
    if q < 0:
        if n % 2 == 0:
            return None
        sign = -1
        q = -q
    num = _int_nth_root(q.numerator, n)
    den = _int_nth_root(q.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(sign * num, den)


def _int_nth_root(m: int, n: int):
    if m == 0:
        return 0
    if m == 1:
        return 1
    if n == 2:
        r = math.isqrt(m)
        return r if r * r == m else None
    r = round(m ** (1.0 / n))
    for cand in (r - 1, r, r + 1):
        if cand > 0 and cand**n == m:
            return cand
    return None


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
            raise NotRepresentable(
                f"reversion needs a rational {n}-th root of {lam}"
            )
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
        g = PuiseuxPoly(g.terms, p)
    raise InsufficientPrecision("reversion iteration did not converge")
