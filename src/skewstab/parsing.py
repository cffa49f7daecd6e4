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

Evaluation.  One regular expression splits a line into ASCII tokens for
a recursive descent.  A value without y stays a (numerator, denominator)
pair of series, combined by one series operation a step, with no product
by an exact 1; an operand with y is a rational function in y (lists of
series, ``poly_mul`` and ``poly_add``), which lifts any pair it meets.
A power x^a to a fractional or a negative integer exponent e is the
series x^(a*e), so a series or a point as it prints reads back; 1 over
any other value stays a pair.  Nothing is reduced: ``SkewLocal`` gets, entry for entry, the lists of
evaluating every value as a rational function in y (``(1/2)*y^2`` keeps
the denominator [2]), so the push tables and ``format_definition`` stay
byte-identical.  A radius ``k`` or ``k/q`` is read from its tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .berkovich import TypeIIPoint, gauss_point
from .errors import SkewstabError
from .puiseux import X as _X, PuiseuxPoly
from .roots import _ONE, _ZERO, _times, poly_add, poly_mul, poly_str, poly_trim, ratio_str
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


class ParseError(SkewstabError):
    """Syntax or validation error carrying a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# -- tokenizer ----------------------------------------------------------------

# Blanks, then one token: an ASCII integer, an ASCII name, a symbol, the end
# of the line (a comment or the text's end), or any other character.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_]\w*)|(?P<sym>[-+*/^(),=\[\]])"
    r"|(?P<end>)(?:#|\Z)|(?P<bad>.))",
    re.ASCII | re.DOTALL,
)


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "int", "name", a symbol character, or "end"
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str, line: int = 1) -> list:
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        s, col = m[kind], m.start(kind) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {s!r}", line, col)
        if kind == "int":
            try:  # past the interpreter's digit limit int() refuses the literal
                int(s)
            except ValueError:
                raise ParseError(f"integer literal of {len(s)} digits is too long", line, col)
        toks.append(_Tok(s if kind == "sym" else kind, s, line, col))
        if kind == "end":
            return toks


# -- expression values --------------------------------------------------------

class _Bivar:
    """Rational expression in y with Puiseux-series coefficients."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = poly_trim(num)
        self.den = poly_trim(den)

    def __add__(self, o):
        return _Bivar(
            poly_add(poly_mul(self.num, o.den), poly_mul(o.num, self.den)),
            poly_mul(self.den, o.den),
        )

    def __mul__(self, o):
        return _Bivar(poly_mul(self.num, o.num), poly_mul(self.den, o.den))

    def __neg__(self):
        return _Bivar([-c for c in self.num], self.den)


def _lift(v) -> _Bivar:
    """A value, a y-free pair included, as a rational expression in y."""
    return _Bivar([v[0]], [v[1]]) if type(v) is tuple else v


def _add(a, b):
    if type(a) is tuple and type(b) is tuple:
        return (_times(a[0], b[1]) + _times(b[0], a[1]), _times(a[1], b[1]))
    return _lift(a) + _lift(b)


def _neg(v):
    return (-v[0], v[1]) if type(v) is tuple else -v


def _mul(a, b):
    if type(a) is tuple and type(b) is tuple:
        return (_times(a[0], b[0]), _times(a[1], b[1]))
    return _lift(a) * _lift(b)


def _div(a, b, tok: _Tok):
    if not (b[0] if type(b) is tuple else b.num):
        raise ParseError("division by zero", tok.line, tok.col)
    if type(a) is tuple and type(b) is tuple:
        return (_times(a[0], b[1]), _times(a[1], b[0]))
    a, b = _lift(a), _lift(b)
    return _Bivar(poly_mul(a.num, b.den), poly_mul(a.den, b.num))


def _as_const(p: PuiseuxPoly) -> Optional[Fraction]:
    if not p.nums:
        return Fraction(0)
    if p.lo == 0 and len(p.nums) == 1:
        return Fraction(p.nums[0], p.den)
    return None


def _to_series(v) -> Optional[PuiseuxPoly]:
    if type(v) is not tuple:
        if len(v.den) != 1 or len(v.num) > 1:
            return None
        v = (v.num[0] if v.num else _ZERO, v.den[0])
    c = _as_const(v[1])  # never 0: a zero divisor is refused
    if c is None:
        return None
    return v[0] if c == 1 else v[0].scale(1 / c)


def _as_x_power(v) -> Optional[Fraction]:
    # value must be exactly x^a with coefficient 1
    s = _to_series(v)
    if s is not None and s.nums and s == PuiseuxPoly.monomial(1, s.val()):
        return s.val()
    return None


def _int_pow(v, e: int, tok: _Tok):
    if e < 0:
        a = _as_x_power(v)
        if a is not None:
            return (PuiseuxPoly.monomial(1, a * e), _ONE)
        v = _div((_ONE, _ONE), v, tok)
        e = -e
    if type(v) is tuple:
        return (v[0] ** e, _ONE if v[1] is _ONE else v[1] ** e)
    out = _lift((_ONE, _ONE))
    while e:
        if e & 1:
            out = out * v
        e >>= 1
        if e:
            v = v * v
    return out


def _pow(v, e: Fraction, tok: _Tok):
    if e.denominator == 1:
        return _int_pow(v, int(e), tok)
    a = _as_x_power(v)
    if a is None:
        raise ParseError(
            "fractional exponents apply only to powers of x", tok.line, tok.col
        )
    return (PuiseuxPoly.monomial(1, a * e), _ONE)


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
    def expr(self):
        v = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            w = self.term()
            v = _add(v, w if op.kind == "+" else _neg(w))
        return v

    # term -> unary (('*'|'/') unary)*
    def term(self):
        v = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            w = self.unary()
            v = _mul(v, w) if op.kind == "*" else _div(v, w, op)
        return v

    def unary(self):
        if self.peek().kind == "-":
            self.take()
            return _neg(self.unary())
        return self.power()

    def power(self):
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

    def atom(self):
        tok = self.take()
        if tok.kind == "int":
            return (PuiseuxPoly.const(int(tok.text)), _ONE)
        if tok.kind == "name":
            if tok.text == "x":
                return (_X, _ONE)
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

    def literal_radius(self) -> Optional[Fraction]:
        """The radius ``k`` or ``k/q`` read from its tokens when a ')'
        follows it; None for any other radius."""
        toks, i = self.toks, self.pos
        if toks[i].kind != "int":
            return None
        if toks[i + 1].kind == ")":
            self.pos = i + 1
            return Fraction(int(toks[i].text))
        if toks[i + 1].kind == "/" and toks[i + 2].kind == "int" and toks[i + 3].kind == ")":
            q = int(toks[i + 2].text)
            if not q:
                raise ParseError("division by zero", toks[i + 1].line, toks[i + 1].col)
            self.pos = i + 3
            return Fraction(int(toks[i].text), q)
        return None

    def point(self) -> TypeIIPoint:
        tok = self.expect("name")
        if tok.text != "zeta":
            raise ParseError(f"expected 'zeta', found {tok.text!r}", tok.line, tok.col)
        self.expect("(")
        centre = self.series_value()
        self.expect(",")
        t = self.literal_radius()
        if t is None:
            t = self.rational_value()
        self.expect(")")
        # terms at depth >= t are absorbed by the disk
        return TypeIIPoint(centre, t)

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
                sec["phi2"] = _lift(p.expr())
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
            top = poly.lo + len(poly.nums) - 1  # the last exponent is top/N
            if poly.nums and top * bound.denominator > bound.numerator * poly.N:
                raise ParseError(
                    f"[fibre {i}] series exponent {Fraction(top, poly.N)} exceeds "
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
