"""Output checks whose expected values do not come from the program.

Expected values are derived here from closed forms (the thm6 radius map,
the xy2 and goodred radius maps), from tree axioms (join closure), or by
replaying an output with fresh ``pushforward`` calls.  No check compares
against a stored copy of earlier output.  Every check returns a list of
error strings; an empty list means the output passed.  Each takes its
expected values as arguments so that the quick mode can hand it wrong
ones and see it fail.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest

from skewstab.berkovich import join
from skewstab.parsing import parse_point
from skewstab.puiseux import PuiseuxPoly
from skewstab.skew import pushforward
from skewstab.stability import STABLE, is_analytically_stable, stabilize_smooth

F = Fraction

# Radius map of thm6 on [0, 4/3]: phi2 = (x^4 + y^6) / y^3 over x -> x^2
# sends zeta(0, t) to zeta(0, (min(4, 6t) - 3t) / 2), that is 3t/2 up to
# the fold at 2/3 and 2 - 3t/2 after it.  Pieces are (lo, hi, slope, c).
THM6_PIECES = ((F(0), F(2, 3), F(3, 2), F(0)), (F(2, 3), F(4, 3), F(-3, 2), F(2)))

# Radius maps of the monomial fibre maps over the identity base:
# xy2 (y -> x*y^2) sends t to 2t + 1; goodred (y -> y^2) sends t to 2t.
XY2_RADIUS = (F(2), F(1))
GOODRED_RADIUS = (F(2), F(0))

_POINT = r"zeta\([^()]*(?:\([^()]*\)[^()]*)*\)"


def pl_apply(pieces, t: Fraction) -> Fraction:
    for lo, hi, slope, c in pieces:
        if lo <= t <= hi:
            return slope * t + c
    raise ValueError(f"{t} outside the interval map's domain")


def interior_fixed_points(pieces):
    """[(t, slope)] for fixed points strictly inside the map's domain."""
    lo_all, hi_all = pieces[0][0], pieces[-1][1]
    out = []
    for lo, hi, slope, c in pieces:
        if slope == 1:
            continue
        t = c / (1 - slope)
        if lo <= t <= hi and lo_all < t < hi_all and (t, slope) not in out:
            out.append((t, slope))
    return out


def _next_fibre(chain, j: int) -> int:
    return j + 1 if j + 1 < len(chain.links) else chain.tail


def _push(chain, j: int, p, steps: int):
    for _ in range(steps):
        p = pushforward(chain.links[j], p)
        j = _next_fibre(chain, j)
    return j, p


# -- CLI text checks ---------------------------------------------------------


def check_image_orbit(text: str, t0: Fraction, steps: int, pieces=THM6_PIECES):
    """`image thm6 zeta(0, t0) steps` follows the radius map, g = den(t)."""
    rx = re.compile(r"step (\d+): fibre 0  zeta\(0, ([-\d/]+)\)  \[m=1, g=(\d+)\]$")
    lines = text.splitlines()
    if len(lines) != steps:
        return [f"image printed {len(lines)} steps, expected {steps}"]
    errs = []
    t = t0
    for k, line in enumerate(lines):
        m = rx.match(line)
        if not m or int(m.group(1)) != k:
            return [f"image step {k} malformed: {line!r}"]
        got_t, got_g = F(m.group(2)), int(m.group(3))
        if got_t != t or got_g != t.denominator:
            errs.append(f"image step {k}: got t={got_t} g={got_g}, expected t={t} g={t.denominator}")
            break
        t = pl_apply(pieces, t)
    return errs


def check_wandering(text: str, pieces=THM6_PIECES):
    """The certificate's fixed point is an interior fixed point of the map."""
    m = re.search(r"^wandering-julia\.fixed-point: t = ([-\d/]+), multiplier ([-\d/]+)$", text, re.M)
    if not m:
        return ["no wandering-julia fixed point reported"]
    got = (F(m.group(1)), F(m.group(2)))
    want = interior_fixed_points(pieces)
    if got not in want:
        return [f"wandering fixed point {got}, expected one of {want}"]
    return []


def check_witnesses(text: str, chain):
    """Every witness's image and replay orbit repeat under fresh pushforwards."""
    errs = []
    pts = {
        i: (p, int(j))
        for i, p, j in re.findall(rf"^witness\[(\d+)\]\.point: ({_POINT}) @ fibre (\d+)$", text, re.M)
    }
    imgs = {
        i: (p, int(j))
        for i, p, j in re.findall(rf"^witness\[(\d+)\]\.image: ({_POINT}) @ fibre (\d+)$", text, re.M)
    }
    if set(pts) != set(imgs):
        return ["witness point and image lines do not pair up"]
    for i, (p, j) in pts.items():
        q, k = imgs[i]
        got_k, got = _push(chain, j, parse_point(p), 1)
        if got != parse_point(q) or got_k != k:
            errs.append(f"witness[{i}]: {p} @ {j} pushes to {got} @ {got_k}, output says {q} @ {k}")
    rx = rf"^witness\[(\d+)\]\.replay: start=({_POINT}) fibre=(\d+) steps=(\d+) end=({_POINT})$"
    for i, start, j, steps, end in re.findall(rx, text, re.M):
        _, got = _push(chain, int(j), parse_point(start), int(steps))
        if got != parse_point(end):
            errs.append(f"witness[{i}] replay ends at {got}, output says {end}")
    return errs


def check_rounds(text: str, chain):
    """Each min-stabilize round adds the fresh pushforward of its point."""
    rx = rf"^round (\d+): ({_POINT}) @ fibre (\d+) -> added ({_POINT}) @ fibre (\d+)  \[\w+\]$"
    rows = re.findall(rx, text, re.M)
    if not rows:
        return ["no stabilisation rounds printed"]
    errs = []
    for r, p, j, q, k in rows:
        got_k, got = _push(chain, int(j), parse_point(p), 1)
        if got != parse_point(q) or got_k != int(k):
            errs.append(f"round {r}: {p} pushes to {got} @ {got_k}, output added {q} @ {k}")
    return errs


def check_demo(text: str, code: int, checks=None):
    """`demo` passes all k of its checks (k as printed unless given)."""
    m = re.search(r"^demo \w+: (\d+)/(\d+) checks passed$", text, re.M)
    if not m:
        return ["demo summary line missing"]
    passed, total = int(m.group(1)), int(m.group(2))
    want = total if checks is None else checks
    n_pass = len(re.findall(r"^PASS ", text, re.M))
    if code != 0 or passed != want or total != want or n_pass != want:
        return [f"demo: exit {code}, {passed}/{total} passed, {n_pass} PASS lines, expected {want}/{want}"]
    return []


def check_registry(text: str, code: int, link, radius=XY2_RADIUS):
    """Registry disks map into themselves under the closed-form radius map.

    A disk `towards infinity` at zeta(0, s) holds the radii t < s, one
    `towards 0` the radii t > s.  t -> a*t + b is increasing, so the disk
    maps into itself when its boundary image stays on the same side; a
    probe one unit inside each disk is also pushed forward afresh and
    must land where the closed form says.
    """
    a, b = radius
    errs = []
    if code != 0 or "registry audit: clean" not in text or "verdict: StableCertified" not in text:
        errs.append(f"stabilize: exit {code} without a clean StableCertified result")
    disks = re.findall(r"^registry: D\(fibre 0, at zeta\(0, ([-\d/]+)\), towards (infinity|0)\)$", text, re.M)
    if not disks:
        errs.append("stabilize printed no registry disk")
    for s, side in disks:
        s = F(s)
        inward = -1 if side == "infinity" else 1
        if inward * (a * s + b - s) < 0:
            errs.append(f"disk at t={s} towards {side} is not mapped into itself")
        probe = s + inward
        want = a * probe + b
        got = pushforward(link, parse_point(f"zeta(0, {probe})"))
        if got.center or got.t != want or inward * (got.t - s) <= 0:
            errs.append(f"probe t={probe} in disk at {s} maps to {got}, closed form gives t={want}")
    return errs


def check_restabilised(text: str, definition, verdict=STABLE):
    """A fresh library run's result passes a fresh stability check."""
    res, _report, registry, _trace = stabilize_smooth(definition.gammas, definition.chain)
    fresh = is_analytically_stable(res, definition.chain, registry=registry)
    errs = []
    if fresh.verdict != verdict:
        errs.append(f"fresh check of the stabilised set gave {fresh.verdict}, expected {verdict}")
    for j, vs in res.items():
        if f"fibre {j}: {len(vs)} vertex(es)" not in text:
            errs.append(f"CLI vertex count for fibre {j} differs from the library's {len(vs)}")
    return errs


def check_listing(text: str, code: int, gamma):
    """smooth-hull lists a set holding the input, with a matching count."""
    m = re.match(r"smooth \d+-convex hull: (\d+) point\(s\)", text)
    pts = [parse_point(p) for p in re.findall(rf"^  ({_POINT})$", text, re.M)]
    if code != 0 or not m or int(m.group(1)) != len(pts):
        return [f"smooth-hull: exit {code}, header and listing disagree"]
    missing = [str(p) for p in gamma if p not in pts]
    return [f"smooth-hull output lacks input point(s) {missing}"] if missing else []


def check_domains(text: str, code: int):
    lines = text.splitlines()
    m = re.match(r"(\d+) complement domain\(s\)$", lines[0]) if lines else None
    if code != 0 or not m or int(m.group(1)) != len(lines) - 1:
        return [f"domains: exit {code}, header does not match {len(lines) - 1} domain lines"]
    return []


def check_dual_graph(text: str, code: int, vertices: int):
    """The dual graph of a vertex set on one segment is a tree on it."""
    nodes = len(re.findall(r"^  v\d+ \[", text, re.M))
    edges = len(re.findall(r"^  v\d+ -- v\d+;$", text, re.M))
    if code != 0 or nodes != vertices or edges != vertices - 1:
        return [f"dual-graph: exit {code}, {nodes} nodes and {edges} edges for {vertices} vertices"]
    return []


def check_no_certificate(text: str, code: int, codes=(3, 4)):
    """thm6 and thmB admit no finite stabilisation: no run may certify one."""
    errs = []
    if code not in codes:
        errs.append(f"exit code {code}, expected one of {codes}")
    if "verdict: StableCertified" in text:
        errs.append("a map without finite stabilisation was certified stable")
    return errs


# -- pushforward oracles (acceptance criterion 7) --------------------------------


def _shift(coeffs, a: PuiseuxPoly):
    """Coefficients in tau of f(a + tau), by Horner's rule."""
    out = [PuiseuxPoly.zero()]
    for c in reversed(coeffs):
        nxt = [a * x for x in out] + [PuiseuxPoly.zero()]
        for i, x in enumerate(out):
            nxt[i + 1] = nxt[i + 1] + x
        nxt[0] = nxt[0] + c
        out = nxt
    return out


def _gauss_val(coeffs, t: Fraction):
    return min(c.val() + i * t for i, c in enumerate(coeffs) if c.terms)


def _eval(coeffs, v: PuiseuxPoly) -> PuiseuxPoly:
    acc = PuiseuxPoly.zero()
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def _val_to(f: PuiseuxPoly, t: Fraction):
    """min(val f, t) for a centre known to precision >= t."""
    return min(f.terms[0][0], t) if f.terms else t


# Probes w = img.center + k*x^(img.t + du), as (k, du).  A wrong centre
# term at exponent e < img.t lies below the probe's own exponent, or below
# img.t, for at least one of them, and the identity then reads e.
CENTRE_PROBES = ((1, F(-1)), (3, F(-1, 2)), (-2, F(1, 2)), (1, F(1)))


def check_seminorm(link, zeta, img, n=None):
    """Criterion 7's seminorm identity on probe functions y - w(x').

    For each w, n * min(val(img.center - w), img.t) must equal the Gauss
    valuation at zeta of num - (w o phi1) * den, less that of den.  The
    probes are w = 0, 1, -1, 2 and CENTRE_PROBES, which see every term of
    the image centre below img.t."""
    n = link.base.n if n is None else n
    a, t = zeta.center, zeta.t
    zero = PuiseuxPoly.zero()
    num, den = _shift(link.num, a), _shift(link.den, a)
    v_den = _gauss_val(den, t)
    probes = [PuiseuxPoly.const(c) for c in (0, 1, -1, 2)]
    probes += [img.center + PuiseuxPoly.monomial(k, img.t + du) for k, du in CENTRE_PROBES]
    errs = []
    for w in probes:
        want = n * _val_to(img.center - w, img.t)
        # terms of w o phi1 from x^(want + 1) on lie above every value compared
        pulled = w.compose(link.base.series, precision=want + 1) if w.terms else zero
        top = [p - pulled * q for p, q in zip_longest(num, den, fillvalue=zero)]
        if _gauss_val(top, t) - v_den != want:
            errs.append(f"seminorm identity fails on y - ({w}) at {zeta} -> {img}")
    return errs


def check_disk(link, zeta, img, probes=24, n=None):
    """Boundary probes a + c*x^t map to points whose pairwise distances
    are at most, and attain, the image disk's diameter.  Probes where the
    denominator drops below its generic size are skipped."""
    n = link.base.n if n is None else n
    target = n * img.t
    a, t = zeta.center, zeta.t
    v_den = _gauss_val(_shift(link.den, a), t)
    ref = None
    vals = []
    for c in range(1, probes + 1):
        xi = a + PuiseuxPoly.monomial(c, t)
        pn, qd = _eval(link.num, xi), _eval(link.den, xi)
        if not qd.terms or qd.val() != v_den:
            continue
        if ref is None:
            ref = (pn, qd)
            continue
        diff = pn * ref[1] - ref[0] * qd
        if diff.terms:
            vals.append(diff.val() - qd.val() - ref[1].val())
    if ref is None or len(vals) < probes // 2:
        return [f"disk oracle at {zeta}: too few usable probes"]
    if min(vals) != target:
        return [f"disk oracle at {zeta}: probe distances reach {min(vals)}, diameter {target}"]
    return []


# -- hull checks -----------------------------------------------------------------


def check_hull(points, hull, smooth: bool):
    """The smooth hull holds the input, is join-closed, and is smooth."""
    members = set(hull)
    errs = [f"hull lacks input point {p}" for p in points if p not in members]
    pts = list(members)
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            if join(p, q) not in members:
                errs.append(f"join of {p} and {q} missing from the hull")
                return errs
    if not smooth:
        errs.append("is_smooth rejects the smooth hull")
    return errs
