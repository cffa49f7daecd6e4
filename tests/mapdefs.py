"""Shared map builders and point generators for the test suite."""

import math
from fractions import Fraction as F
from importlib import resources

from skewstab.berkovich import TypeIIPoint
from skewstab.parsing import parse_definition
from skewstab.puiseux import PuiseuxPoly
from skewstab.skew import BaseGerm, SkewLocal

X = PuiseuxPoly.monomial(1, 1)
ONE = PuiseuxPoly.const(1)
ZERO = PuiseuxPoly.zero()


def thm6_map() -> SkewLocal:
    # base x^2, fibre map (x^4 + y^6) / y^3
    num = [X**4, ZERO, ZERO, ZERO, ZERO, ZERO, ONE]
    den = [ZERO, ZERO, ZERO, ONE]
    return SkewLocal(BaseGerm(X**2), num, den, label="deg6-fold")


def xy2_map() -> SkewLocal:
    # base x, fibre map x*y^2
    return SkewLocal(BaseGerm(X), [ZERO, ZERO, X], [ONE], label="xy2")


def square_map() -> SkewLocal:
    # base x, fibre map y^2 (good reduction)
    return SkewLocal(BaseGerm(X), [ZERO, ZERO, ONE], [ONE], label="square")


def bundled_links():
    """[(name, link)] for every link of the four bundled definition files."""
    out = []
    for name in ("thm6", "thmB", "xy2", "goodred"):
        text = resources.files("skewstab.fixtures").joinpath(f"{name}.skew").read_text()
        for j, link in enumerate(parse_definition(text).chain.links):
            out.append((f"{name}[{j}]", link))
    return out


def random_point(rng, max_den=4):
    """A Type II point with small rational data.

    Radius exponents and centre exponents use denominators <= max_den;
    centre terms stay strictly above the disk's own depth so none are
    absorbed by canonicalisation.
    """
    den = rng.randint(1, max_den)
    t = F(rng.randint(-2 * den, 3 * den), den)
    center = PuiseuxPoly.zero()
    for _ in range(rng.randint(0, 2)):
        e_den = rng.randint(1, max_den)
        lo, hi = -2 * e_den, math.ceil(t * e_den) - 1
        if hi < lo:
            continue
        e = F(rng.randint(lo, hi), e_den)
        center = center + PuiseuxPoly.monomial(rng.choice([-2, -1, 1, 2, 3]), e)
    return TypeIIPoint(center, t)
