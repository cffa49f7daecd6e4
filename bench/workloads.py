"""The four benchmark workloads: seeded inputs, timed operations, checks.

A workload builds its inputs once from the seed (set-up), then runs
passes.  Each pass calls `begin_pass` and then every operation in `ops`
in order; an operation is one CLI command, one pushforward, one point
set, or one large-set run.  Operations call the program through module
attributes (``skew.pushforward``, ``cli.main``) so that the tracer in
spans.py, which rebinds those attributes, sees every call.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

from skewstab import cli, parsing, skew, vertexset
from skewstab.berkovich import TypeIIPoint, g_point
from skewstab.puiseux import PuiseuxPoly

import checks

F = Fraction
DATA = Path(__file__).resolve().parent / "data"
THM6_LARGE = DATA / "thm6_level24.skew"
THM6_LARGE_LEVEL = 24


def fixture_text(name: str) -> str:
    return resources.files("skewstab.fixtures").joinpath(f"{name}.skew").read_text(encoding="utf-8")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


# -- seeded generators -----------------------------------------------------------


def criterion6_point(rng: random.Random, max_den: int = 4) -> TypeIIPoint:
    """A point from acceptance criterion 6's distribution.

    Radius t = k/d with d <= max_den and t in [-2, 3]; zero to two centre
    terms c*x^e with c in {-2, -1, 1, 2, 3}, e of denominator <= max_den in
    [-2, t), so that canonicalisation absorbs none of them.
    """
    den = rng.randint(1, max_den)
    t = F(rng.randint(-2 * den, 3 * den), den)
    center = PuiseuxPoly.zero()
    for _ in range(rng.randint(0, 2)):
        e_den = rng.randint(1, max_den)
        lo, hi = -2 * e_den, math.ceil(t * e_den) - 1
        if hi >= lo:
            e = F(rng.randint(lo, hi), e_den)
            center = center + PuiseuxPoly.monomial(rng.choice([-2, -1, 1, 2, 3]), e)
    return TypeIIPoint(center, t)


def shaped_point(rng: random.Random, den: int, gap=None) -> TypeIIPoint:
    """A disk point with a non-zero centre of a fixed shape.

    The centre is c1*x^e1, plus c2*x^(e1 + gap) when a gap is given, with
    e1 in [-2, 2] of exact denominator `den` and coefficients in
    +-{1, 2, 3}; the radius lies up to 2 above the last centre exponent.
    A pushforward expands the centre's inverse powers to precision 64 in
    steps of the gap, and takes fractional powers of the inverse base germ
    for exponents off the integers, so its cost is set by the shape; the
    seed varies only values.
    """
    coefs = (-3, -2, -1, 1, 2, 3)
    e1 = F(rng.choice([k for k in range(-2 * den, 2 * den + 1) if math.gcd(k, den) == 1]), den)
    center = PuiseuxPoly.monomial(rng.choice(coefs), e1)
    top = e1
    if gap is not None:
        top = e1 + gap
        center = center + PuiseuxPoly.monomial(rng.choice(coefs), top)
    t_den = rng.randint(1, 4)
    t = F(math.floor(top * t_den) + rng.randint(1, 2 * t_den), t_den)
    return TypeIIPoint(center, t)


# -- workloads ---------------------------------------------------------------------


class Workload:
    name = ""
    ops: list  # [(label, op(state) -> output, check(output, state) -> [errors])]

    def begin_pass(self):
        """Per-pass state handed to every operation; timed with the pass."""
        return None


class Fixtures(Workload):
    """Every command that finishes under default flags on the bundled maps."""

    name = "fixtures"

    def __init__(self, seed: int, quick: bool = False):
        rng = random.Random(seed)
        self.defs = {n: parsing.parse_definition(fixture_text(n)) for n in ("thm6", "thmB", "xy2", "goodred")}
        # image start zeta(0, k/q) inside (0, 4/3), off the fixed point 4/5
        while True:
            q = rng.choice((3, 5, 7))
            self.t0 = F(rng.randint(1, 4 * q // 3), q)
            if 0 < self.t0 < F(4, 3) and self.t0 != F(4, 5):
                break
        self.steps = 40
        d = self.defs
        self.ops = []
        for name in ("thm6", "thmB", "xy2", "goodred"):
            self._cli(("check-stability", name), self._stability(name))
        for name in ("thm6", "thmB"):
            self._cli(("demo", name), lambda out, _s: checks.check_demo(out[1], out[0]))
        for name in ("thm6", "thmB"):
            self._cli(("min-stabilize", name), self._min_stabilize(name))
        self._cli(("stabilize", "xy2"), self._stabilize("xy2", checks.XY2_RADIUS))
        self._cli(("stabilize", "goodred"), self._stabilize("goodred", checks.GOODRED_RADIUS))
        self._cli(
            ("image", "thm6", f"zeta(0, {self.t0})", str(self.steps)),
            lambda out, _s: checks.check_image_orbit(out[1], self.t0, self.steps)
            + ([] if out[0] == 0 else [f"image exit {out[0]}"]),
        )
        gamma = list(d["thm6"].gammas[0])
        self._cli(("smooth-hull", "thm6"), lambda out, _s: checks.check_listing(out[1], out[0], gamma))
        self._cli(
            ("check-smooth", "thm6"),
            lambda out, _s: [] if out == (0, "smooth: yes\n") else [f"check-smooth: {out}"],
        )
        self._cli(("domains", "thm6"), lambda out, _s: checks.check_domains(out[1], out[0]))
        self._cli(("dual-graph", "thm6"), lambda out, _s: checks.check_dual_graph(out[1], out[0], len(gamma)))

    def _cli(self, argv, check):
        self.ops.append((" ".join(argv), lambda _state, argv=argv: run_cli(argv), check))

    def _stability(self, name):
        chain = self.defs[name].chain
        # thm6 and thmB admit no finite stabilisation; xy2 and goodred do
        destabilising = name in ("thm6", "thmB")

        def check(out, _state):
            code, text = out
            want = 3 if destabilising else 0
            errs = [] if code == want else [f"check-stability {name}: exit {code}, expected {want}"]
            errs += checks.check_witnesses(text, chain)
            if destabilising:
                errs += checks.check_wandering(text)
            return errs

        return check

    def _min_stabilize(self, name):
        chain = self.defs[name].chain

        def check(out, _state):
            code, text = out
            errs = checks.check_no_certificate(text, code, codes=(4,))
            return errs + checks.check_rounds(text, chain)

        return check

    def _stabilize(self, name, radius):
        d = self.defs[name]

        def check(out, _state):
            code, text = out
            errs = checks.check_registry(text, code, d.chain.links[0], radius)
            return errs + checks.check_restabilised(text, d)

        return check


class Transport(Workload):
    """Seeded points with non-zero centres through thmB's fibre-0 link and thm6's link."""

    name = "transport"
    ONE_TERM = (1, 2, 3, 4) * 16  # centre exponent denominators
    TWO_TERM = ((1, F(2)), (2, F(1)), (4, F(1, 2)))  # (denominator, gap)
    # Every point goes through thmB's link.  thm6's base germ x^2 is a
    # monomial, and its one-term pushes all cost 1.5-3 ms, so it takes half
    # of them (the first 32) and the two-term points.  With all 64, the
    # median operation would fall on the step from those pushes to thmB's
    # one-term pushes (3-10 ms), and move with the seed.  The median is the
    # 19th fastest of thmB's 64 one-term pushes, whose costs vary with the
    # seed's values: with 16 of them it moved by 11 % (IQR / median, five
    # seeds), so there are 64.
    THM6_ONE_TERM = 32

    def __init__(self, seed: int, quick: bool = False):
        rng = random.Random(seed)
        one = self.ONE_TERM[:2] if quick else self.ONE_TERM
        two = self.TWO_TERM[:1] if quick else self.TWO_TERM
        one = [shaped_point(rng, den) for den in one]
        two = [shaped_point(rng, den, gap) for den, gap in two]
        self.texts = {n: fixture_text(n) for n in ("thmB", "thm6")}
        self.cases = [("thmB", p) for p in one + two]
        self.cases += [("thm6", p) for p in one[: self.THM6_ONE_TERM] + two]
        self.ops = [(f"push {n} {p}", self._push(n, p), self._check(n, p)) for n, p in self.cases]

    def begin_pass(self):
        # a fresh parse per pass: the base germ's reversion cache starts
        # cold, as in every CLI call
        return {n: parsing.parse_definition(t).chain.links[0] for n, t in self.texts.items()}

    @staticmethod
    def _push(name, p):
        return lambda links: skew.pushforward(links[name], p)

    @staticmethod
    def _check(name, p):
        return lambda img, links: checks.check_seminorm(links[name], p, img) + checks.check_disk(
            links[name], p, img
        )


def draw_set(rng: random.Random):
    """One set of 1-4 criterion 6 points: (points, level, n-convex hull size)."""
    pts = [criterion6_point(rng) for _ in range(rng.randint(1, 4))]
    level = max(1, max(g_point(p) for p in pts))
    return pts, level, len(vertexset.n_convex_hull(pts, level))


SIZE_BANDS = ((1, 5), (5, 10), (10, 15), (15, 20), (20, 25), (25, 30), (30, 35), (35, 40), (40, 50),
              (50, 60), (60, 75), (75, 90), (90, 110), (110, 130))  # n-convex hull sizes, [lo, hi)
LEVELS = (1, 2, 3, 4, 6, 12)  # the levels of sets whose exponents have denominators <= 4


def cell(level: int, size: int):
    """(level, band index) of a set, or None for sizes of 130 or more."""
    return next(((level, i) for i, (lo, hi) in enumerate(SIZE_BANDS) if lo <= size < hi), None)


def cell_shares(draws: int, seed: int = 0) -> dict:
    """Share of `draws` criterion 6 sets in each cell; the key None holds
    the sets whose n-convex hull has 130 or more vertices."""
    rng = random.Random(seed)
    counts = dict.fromkeys([*((lv, i) for lv in LEVELS for i in range(len(SIZE_BANDS))), None], 0)
    for _ in range(draws):
        _pts, level, size = draw_set(rng)
        counts[cell(level, size)] += 1
    return {c: k / draws for c, k in counts.items()}


def moved(pts, rng: random.Random):
    """The points under y -> u*y + b for seeded constants u, b != 0.

    The map preserves the order and distances of disks and the exponents
    of every centre, hence each point's level and multiplicity: the sets'
    hulls correspond vertex for vertex.
    """
    u = rng.choice((-3, -2, -1, 1, 2, 3))
    b = PuiseuxPoly.const(F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)))
    return [TypeIIPoint(p.center.scale(u) + b, p.t) for p in pts]


class HullRandom(Workload):
    """Point sets from criterion 6's distribution in seeded coordinates, smooth-hulled and audited.

    A set's cost depends mostly on its level and the size of its n-convex hull:
    smooth-hull cost grows about as the square of the smooth hull's size,
    and a level-12 set of one point can have a 100-vertex smooth hull.  So
    the sets are stratified by level and size band: set-up draws sets and
    keeps, in each cell, the first ones up to the cell's quota,
    its share of criterion 6's draws times SETS over the share of all
    draws of size below 130, rounded.

    The draws come from BASE_SEED; the run's seed moves each set by its own
    change of coordinate y -> u*y + b (see `moved`).  The hull problem is
    the same in every coordinate, so every seed runs the same mix at the
    same cost and checks its own outputs.  With fresh draws per seed the
    operations around the median differ, and `op_p50_ms` moved by 35 %
    between seeds at one host speed.
    """

    name = "hull-random"
    # Share of criterion 6's draws by level (rows, LEVELS) and n-convex hull
    # size band (columns, SIZE_BANDS), as `run.py --cell-shares 40000`
    # measures it.  The 7.1 % of draws of size 130 or more, up to 7 s each,
    # are left out, and so are the cells whose quota rounds to 0.
    SHARES = (
        (0.1185, 0.0248, 0.0020, 0.0001, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000),
        (0.0587, 0.0284, 0.0342, 0.0156, 0.0050, 0.0007, 0.0001, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000),
        (0.0498, 0.0147, 0.0262, 0.0307, 0.0315, 0.0217, 0.0153, 0.0076, 0.0052, 0.0008, 0.0001, 0.0000, 0.0000, 0.0000),
        (0.0459, 0.0097, 0.0162, 0.0232, 0.0307, 0.0357, 0.0358, 0.0298, 0.0427, 0.0192, 0.0085, 0.0011, 0.0001, 0.0000),
        (0.0123, 0.0009, 0.0014, 0.0021, 0.0036, 0.0036, 0.0050, 0.0048, 0.0123, 0.0152, 0.0218, 0.0139, 0.0106, 0.0039),
        (0.0094, 0.0000, 0.0001, 0.0002, 0.0002, 0.0001, 0.0004, 0.0005, 0.0008, 0.0014, 0.0020, 0.0023, 0.0046, 0.0052),
    )
    SETS = 160
    BASE_SEED = 0
    QUICK_SETS = 12

    def __init__(self, seed: int, quick: bool = False):
        base, rng = random.Random(self.BASE_SEED), random.Random(seed)
        quotas = self.quotas(self.QUICK_SETS if quick else self.SETS)
        self.sets = []
        while any(quotas.values()):  # 736 draws from BASE_SEED fill every cell
            pts, level, size = draw_set(base)
            c = cell(level, size)
            if quotas.get(c):
                quotas[c] -= 1
                self.sets.append((moved(pts, rng), level))
        self.ops = [(f"hull {i}", self._hull(pts, level), self._check(pts)) for i, (pts, level) in enumerate(self.sets)]

    @classmethod
    def quotas(cls, n: int) -> dict:
        shares = {(lv, i): x for lv, row in zip(LEVELS, cls.SHARES) for i, x in enumerate(row)}
        total = sum(shares.values())
        quotas = {c: round(n * x / total) for c, x in shares.items()}
        return {c: k for c, k in quotas.items() if k}

    @staticmethod
    def _hull(pts, level):
        def op(_state):
            h = vertexset.smooth_n_convex_hull(pts, level)
            return h, vertexset.is_smooth(h).smooth

        return op

    @staticmethod
    def _check(pts):
        return lambda out, _state: checks.check_hull(pts, out[0], out[1])


class Thm6Large(Workload):
    """The large-set regime on thm6: one build-heavy and one read-heavy run."""

    name = "thm6-large"

    def __init__(self, seed: int, quick: bool = False):
        # the inputs are fixed; the seed has nothing to vary here
        chain = parsing.parse_definition(THM6_LARGE.read_text(encoding="utf-8")).chain
        argvs = (("stabilize", "thm6", "--max-rounds", "2"), ("check-stability", str(THM6_LARGE)))
        self.ops = [(" ".join(a), lambda _s, a=a: run_cli(a), self._check(chain)) for a in argvs]

    @staticmethod
    def _check(chain):
        def check(out, _state):
            code, text = out
            return checks.check_no_certificate(text, code) + checks.check_witnesses(text, chain)

        return check


WORKLOADS = {w.name: w for w in (Fixtures, Transport, HullRandom, Thm6Large)}


def make_thm6_large() -> str:
    """The thm6 definition with gamma replaced by its level-24 smooth hull."""
    d = parsing.parse_definition(fixture_text("thm6"))
    gamma = vertexset.smooth_n_convex_hull(list(d.gammas[0]), THM6_LARGE_LEVEL)
    return parsing.format_definition(replace(d, label="thm6level24", gammas={0: gamma}))
