"""Text formats shared by the command line tools.

Three layers.  Series literals are sums of rational multiples of rational
powers of x, e.g. ``1 - 3/2*x^(1/2) + x^2``.  Point literals write a
Type II point as ``zeta(<centre>, <t>)`` where the centre is a series and
t is the radius exponent (``zeta(0, 0)`` is the Gauss point).  Definition
files describe one chain of local models as a sectioned text file:

    # comment to end of line
    label thm6
    period 1
    tail 0

    [fibre 0]
    phi1 = x^2
    phi2 = (x^4 + y^6) / y^3
    gamma = zeta(0, 0), zeta(0, 1)

``phi1`` is the base germ (a series in x with phi1(0) = 0), ``phi2`` the
fibre map (a rational expression in x and y), and ``gamma`` an optional
comma-separated list of marked points, defaulting to the Gauss point.
``tail`` defaults to 0.  An optional ``precision N`` directive bounds the
exponents that may appear in any series of the file.

Formatting is canonical: ``format_definition`` emits a file whose parse
equals the input, so parse -> format -> parse is the identity and format
is idempotent on its own output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .berkovich import TypeIIPoint, gauss_point
from .errors import SkewstabError
from .puiseux import PuiseuxPoly, as_series
from .roots import poly_add, poly_mul, poly_str, poly_trim, ratio_str
from .skew import BaseGerm, Chain, SkewLocal
from .vertexset import VertexSet

__all__ = [
    "ParseError",
    "DefinitionFile",
    "parse_series",
    "parse_point",
    "parse_points",
    "parse_definition",
    "format_definition",
    "check_precision",
]

_ONE = PuiseuxPoly.const(1)
_ZERO = PuiseuxPoly.zero()


class ParseError(SkewstabError):
    """Syntax or validation error carrying a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# -- tokenizer ----------------------------------------------------------------

_SYMBOLS = set("+-*/^(),=[]")


@dataclass(frozen=True)
class _Tok:
    kind: str  # "int", "name", a symbol character, or "end"
    text: str
    line: int
    col: int


def _tokenize(text: str, line: int = 1) -> list:
    toks = []
    i, col = 0, 1
    while i < len(text):
        ch = text[i]
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            break
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            try:  # past the interpreter's digit limit int() refuses the literal
                int(text[i:j])
            except ValueError:
                raise ParseError(f"integer literal of {j - i} digits is too long", line, col)
            toks.append(_Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(_Tok(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("end", "", line, col))
    return toks


# -- expression values --------------------------------------------------------

class _Bivar:
    """Rational expression in y with Puiseux-series coefficients."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = poly_trim(num)
        self.den = poly_trim(den)

    @classmethod
    def const(cls, c):
        return cls([as_series(c)], [_ONE])

    def __add__(self, o):
        return _Bivar(
            poly_add(poly_mul(self.num, o.den), poly_mul(o.num, self.den)),
            poly_mul(self.den, o.den),
        )

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        return _Bivar(poly_mul(self.num, o.num), poly_mul(self.den, o.den))

    def __neg__(self):
        return _Bivar([-c for c in self.num], self.den)


def _as_const(p: PuiseuxPoly) -> Optional[Fraction]:
    if not p.terms:
        return Fraction(0)
    if len(p.terms) == 1 and p.terms[0][0] == 0:
        return p.terms[0][1]
    return None


def _to_series(v: _Bivar) -> Optional[PuiseuxPoly]:
    if len(v.den) != 1 or len(v.num) > 1:
        return None
    c = _as_const(v.den[0])
    if c is None or c == 0:
        return None
    p = v.num[0] if v.num else _ZERO
    return p if c == 1 else p * as_series(Fraction(1) / c)


def _as_x_power(v: _Bivar) -> Optional[Fraction]:
    # value must be exactly x^a with coefficient 1
    s = _to_series(v)
    if s is None or not s.terms:
        return None
    a = s.val()
    if s == PuiseuxPoly.monomial(1, a):
        return a
    return None


def _div(a: _Bivar, b: _Bivar, tok: _Tok) -> _Bivar:
    if not b.num:
        raise ParseError("division by zero", tok.line, tok.col)
    return _Bivar(poly_mul(a.num, b.den), poly_mul(a.den, b.num))


def _int_pow(v: _Bivar, e: int, tok: _Tok) -> _Bivar:
    if e < 0:
        v = _div(_Bivar.const(1), v, tok)
        e = -e
    out = _Bivar.const(1)
    base = v
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


def _pow(v: _Bivar, e: Fraction, tok: _Tok) -> _Bivar:
    if e.denominator == 1:
        return _int_pow(v, int(e), tok)
    a = _as_x_power(v)
    if a is None:
        raise ParseError(
            "fractional exponents apply only to powers of x", tok.line, tok.col
        )
    return _Bivar([PuiseuxPoly.monomial(1, a * e)], [_ONE])


# -- recursive descent ----------------------------------------------------------

class _ExprParser:
    def __init__(self, toks, pos: int = 0):
        self.toks = toks
        self.pos = pos

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Tok:
        tok = self.take()
        if tok.kind != kind:
            what = tok.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {what!r}", tok.line, tok.col)
        return tok

    # expr -> term (('+'|'-') term)*
    def expr(self) -> _Bivar:
        v = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            w = self.term()
            v = v + w if op.kind == "+" else v - w
        return v

    # term -> unary (('*'|'/') unary)*
    def term(self) -> _Bivar:
        v = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            w = self.unary()
            v = v * w if op.kind == "*" else _div(v, w, op)
        return v

    def unary(self) -> _Bivar:
        if self.peek().kind == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> _Bivar:
        v = self.atom()
        if self.peek().kind == "^":
            tok = self.take()
            e = self.exponent()
            v = _pow(v, e, tok)
            if self.peek().kind == "^":
                nxt = self.peek()
                raise ParseError("chained '^' needs parentheses", nxt.line, nxt.col)
        return v

    def exponent(self) -> Fraction:
        tok = self.peek()
        if tok.kind == "-":
            self.take()
            return -self.exponent()
        if tok.kind == "int":
            self.take()
            return Fraction(int(tok.text))
        if tok.kind == "(":
            self.take()
            e = self._exponent_body()
            self.expect(")")
            return e
        raise ParseError("expected an exponent", tok.line, tok.col)

    def _exponent_body(self) -> Fraction:
        neg = False
        if self.peek().kind == "-":
            self.take()
            neg = True
        num = self.expect("int")
        val = Fraction(int(num.text))
        if self.peek().kind == "/":
            self.take()
            den = self.expect("int")
            if int(den.text) == 0:
                raise ParseError("zero denominator in exponent", den.line, den.col)
            val = Fraction(int(num.text), int(den.text))
        return -val if neg else val

    def atom(self) -> _Bivar:
        tok = self.take()
        if tok.kind == "int":
            return _Bivar.const(Fraction(int(tok.text)))
        if tok.kind == "name":
            if tok.text == "x":
                return _Bivar([PuiseuxPoly.monomial(1, 1)], [_ONE])
            if tok.text == "y":
                return _Bivar([_ZERO, _ONE], [_ONE])
            raise ParseError(f"unknown symbol {tok.text!r}", tok.line, tok.col)
        if tok.kind == "(":
            v = self.expr()
            self.expect(")")
            return v
        what = tok.text or "end of input"
        raise ParseError(f"expected a value, found {what!r}", tok.line, tok.col)

    # -- typed reductions

    def series_value(self) -> PuiseuxPoly:
        tok = self.peek()
        s = _to_series(self.expr())
        if s is None:
            raise ParseError("expected a series in x alone", tok.line, tok.col)
        return s

    def rational_value(self) -> Fraction:
        tok = self.peek()
        s = self.series_value()
        c = _as_const(s)
        if c is None:
            raise ParseError("expected a rational number", tok.line, tok.col)
        return c

    def point(self) -> TypeIIPoint:
        tok = self.expect("name")
        if tok.text != "zeta":
            raise ParseError(f"expected 'zeta', found {tok.text!r}", tok.line, tok.col)
        self.expect("(")
        centre = self.series_value()
        self.expect(",")
        t = self.rational_value()
        self.expect(")")
        # normalize: terms at depth >= t are absorbed by the disk
        return TypeIIPoint(centre.drop_from(t), t)

    def point_list(self) -> list:
        pts = []
        if self.peek().kind == "end":
            return pts
        pts.append(self.point())
        while self.peek().kind == ",":
            self.take()
            pts.append(self.point())
        return pts

    def finish(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)


def _parse_whole(text: str, reducer):
    p = _ExprParser(_tokenize(text))
    out = reducer(p)
    p.finish()
    return out


def parse_series(text: str) -> PuiseuxPoly:
    """Parse a series literal like ``1 - 3/2*x^(1/2) + x^2``."""
    return _parse_whole(text, _ExprParser.series_value)


def parse_point(text: str) -> TypeIIPoint:
    """Parse a point literal like ``zeta(1 + x, 4/3)``."""
    return _parse_whole(text, _ExprParser.point)


def parse_points(text: str) -> list:
    """Parse a comma-separated list of point literals (may be empty)."""
    return _parse_whole(text, _ExprParser.point_list)


# -- definition files -----------------------------------------------------------

@dataclass(frozen=True)
class DefinitionFile:
    """A parsed chain of local models plus its marked vertex sets."""

    label: str
    period: int
    tail: int
    precision: Optional[int]
    chain: Chain
    gammas: dict  # fibre index -> VertexSet

    @property
    def size(self) -> int:
        return self.period + self.tail


def parse_definition(text: str) -> DefinitionFile:
    label = ""
    period = None
    tail = 0
    precision = None
    sections: dict = {}
    current = None
    seen = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw, line_no)
        first = toks[0]
        if first.kind == "end":
            continue

        if first.kind == "[":
            p = _ExprParser(toks)
            p.take()
            nm = p.expect("name")
            if nm.text != "fibre":
                raise ParseError(f"expected 'fibre', found {nm.text!r}", nm.line, nm.col)
            idx_tok = p.expect("int")
            p.expect("]")
            p.finish()
            idx = int(idx_tok.text)
            if idx in sections:
                raise ParseError(f"duplicate section [fibre {idx}]", first.line, first.col)
            sections[idx] = {"line": line_no}
            current = idx
            continue

        if first.kind != "name":
            raise ParseError(
                "expected a directive, key assignment or [fibre N] header",
                first.line,
                first.col,
            )

        if len(toks) >= 2 and toks[1].kind == "=":
            if current is None:
                raise ParseError(
                    f"{first.text!r} assignment before any [fibre] section",
                    first.line,
                    first.col,
                )
            sec = sections[current]
            if first.text in sec:
                raise ParseError(
                    f"duplicate {first.text!r} in [fibre {current}]",
                    first.line,
                    first.col,
                )
            p = _ExprParser(toks, 2)
            if first.text == "phi1":
                sec["phi1"] = p.series_value()
            elif first.text == "phi2":
                sec["phi2"] = p.expr()
            elif first.text == "gamma":
                sec["gamma"] = p.point_list()
            else:
                raise ParseError(
                    f"unknown key {first.text!r} (expected phi1, phi2 or gamma)",
                    first.line,
                    first.col,
                )
            p.finish()
            continue

        # top-level directive
        if current is not None:
            raise ParseError(
                "directives must appear before the first [fibre] section",
                first.line,
                first.col,
            )
        if first.text in seen:
            raise ParseError(f"duplicate directive {first.text!r}", first.line, first.col)
        seen.add(first.text)
        p = _ExprParser(toks, 1)
        if first.text == "label":
            label = p.expect("name").text
            p.finish()
        elif first.text in ("period", "tail", "precision"):
            n_tok = p.expect("int")
            p.finish()
            value = int(n_tok.text)
            if first.text == "period":
                if value < 1:
                    raise ParseError("period must be >= 1", n_tok.line, n_tok.col)
                period = value
            elif first.text == "tail":
                tail = value
            else:
                if value < 1:
                    raise ParseError("precision must be >= 1", n_tok.line, n_tok.col)
                precision = value
        else:
            raise ParseError(f"unknown directive {first.text!r}", first.line, first.col)

    if period is None:
        raise ParseError("missing 'period' directive", 1, 1)
    size = period + tail
    for i in sorted(sections):
        if i < 0 or i >= size:
            raise ParseError(
                f"section [fibre {i}] out of range for period {period} + tail {tail}",
                sections[i]["line"],
                1,
            )
    missing = [i for i in range(size) if i not in sections]
    if missing:
        raise ParseError(
            f"missing section [fibre {missing[0]}] (need fibres 0..{size - 1})", 1, 1
        )

    links = []
    gammas = {}
    for i in range(size):
        sec = sections[i]
        at = sec["line"]
        for key in ("phi1", "phi2"):
            if key not in sec:
                raise ParseError(f"[fibre {i}] is missing {key!r}", at, 1)
        v = sec["phi2"]
        try:
            base = BaseGerm(sec["phi1"])
            links.append(SkewLocal(base, v.num, v.den, label=f"{label or 'chain'}[{i}]"))
        except ValueError as exc:
            raise ParseError(f"[fibre {i}]: {exc}", at, 1) from exc
        pts = sec.get("gamma")
        gammas[i] = VertexSet([gauss_point()] if pts is None else pts)

    try:
        chain = Chain(links, period, tail=tail)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from exc

    d = DefinitionFile(label, period, tail, precision, chain, gammas)
    if precision is not None:
        check_precision(d, precision)
    return d


def check_precision(d: DefinitionFile, bound) -> None:
    """Reject any series in the definition with an exponent above bound."""
    bound = Fraction(bound)
    for i, link in enumerate(d.chain.links):
        polys = [link.base.series, *link.num, *link.den]
        polys.extend(p.center for p in d.gammas.get(i, ()))
        for poly in polys:
            if poly.terms and poly.terms[-1][0] > bound:
                raise ParseError(
                    f"[fibre {i}] series exponent {poly.terms[-1][0]} exceeds "
                    f"precision {bound}",
                    1,
                    1,
                )


# -- canonical formatting ---------------------------------------------------------

def _format_rational(num, den) -> str:
    if len(den) == 1 and _as_const(den[0]) == 1:
        return poly_str(num)
    return ratio_str(num, den)


def format_definition(d: DefinitionFile) -> str:
    lines = []
    if d.label:
        lines.append(f"label {d.label}")
    lines.append(f"period {d.period}")
    lines.append(f"tail {d.tail}")
    if d.precision is not None:
        lines.append(f"precision {d.precision}")
    for i, link in enumerate(d.chain.links):
        lines.append("")
        lines.append(f"[fibre {i}]")
        lines.append(f"phi1 = {link.base.series}")
        lines.append(f"phi2 = {_format_rational(link.num, link.den)}")
        pts = list(d.gammas.get(i, ()))
        lines.append(("gamma = " + ", ".join(str(p) for p in pts)).rstrip())
    return "\n".join(lines) + "\n"
