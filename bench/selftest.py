"""Hand every check a wrong expected value and see that it fails.

Used by `run.py --quick` on the outputs of a real pass: a check that
still passes with a wrong expectation would not catch a wrong output.
"""

from __future__ import annotations

from fractions import Fraction

from skewstab.berkovich import TypeIIPoint
from skewstab.puiseux import PuiseuxPoly
from skewstab.stability import DESTABILISING

import checks

F = Fraction
# the fold moved so that the decreasing piece's fixed point is 1, not 4/5
WRONG_PIECES = (checks.THM6_PIECES[0], (F(2, 3), F(4, 3), F(-3, 2), F(5, 2)))


def wrong_expectations(wl, state, results) -> list:
    """Names of the wrong-expectation probes that the checks did not catch."""
    out = {label: value for label, _s, ok, value in results if ok}
    probes = PROBES[wl.name](wl, state, out)
    return [name for name, errs in probes if not errs]


def _fixtures(wl, _state, out):
    d = wl.defs
    image = next(v for k, v in out.items() if k.startswith("image "))
    code6, text6 = out["check-stability thm6"]
    code_m, text_m = out["min-stabilize thm6"]
    code_x, text_x = out["stabilize xy2"]
    code_d, text_d = out["demo thm6"]
    gamma = list(d["thm6"].gammas[0])
    return [
        ("image orbit from a wrong start", checks.check_image_orbit(image[1], wl.t0 / 2, wl.steps)),
        ("wandering fixed point of a wrong map", checks.check_wandering(text6, WRONG_PIECES)),
        ("witnesses replayed on thmB's chain", checks.check_witnesses(text6, d["thmB"].chain)),
        ("rounds replayed on thmB's chain", checks.check_rounds(text_m, d["thmB"].chain)),
        ("demo with one check too many", checks.check_demo(text_d, code_d, checks=8)),
        ("xy2 disks under goodred's radius map",
         checks.check_registry(text_x, code_x, d["xy2"].chain.links[0], checks.GOODRED_RADIUS)),
        ("xy2 result expected destabilising", checks.check_restabilised(text_x, d["xy2"], DESTABILISING)),
        ("smooth hull missing an extra input",
         checks.check_listing(out["smooth-hull thm6"][1], 0, gamma + [TypeIIPoint(0, F(1, 2))])),
        ("dual graph on one vertex too many", checks.check_dual_graph(out["dual-graph thm6"][1], 0, len(gamma) + 1)),
        ("min-stabilize expected to certify", checks.check_no_certificate(text_m, code_m, codes=(0,))),
    ]


def _transport(wl, links, out):
    (name, p), img = wl.cases[0], out[wl.ops[0][0]]
    link = links[name]
    larger = TypeIIPoint(img.center, img.t - 1)
    probes = [
        ("seminorm identity with a wrong degree", checks.check_seminorm(link, p, img, n=link.base.n + 1)),
        ("disk oracle against a larger image disk", checks.check_disk(link, p, larger)),
    ]
    # the last centre term below the radius, the one nearest img.t, off by one
    for (name, p), (label, _op, _check) in zip(wl.cases, wl.ops):
        img = out[label]
        if len(img.center.terms) >= 2:
            (e, c), terms = img.center.terms[-1], img.center.terms[:-1]
            moved = TypeIIPoint(PuiseuxPoly(terms + ((e, c + 1),)), img.t)
            probes.append(("centre with its last term changed", checks.check_seminorm(links[name], p, moved)))
            break
    else:
        probes.append(("centre with its last term changed (no multi-term centre to change)", []))
    return probes


def _hull_random(wl, _state, out):
    pts, _level = wl.sets[-1]
    hull, smooth = out[wl.ops[-1][0]]
    far = TypeIIPoint(PuiseuxPoly.zero(), -50)
    return [
        ("hull expected to hold a far point", checks.check_hull(pts + [far], hull, smooth)),
        ("hull reported not smooth", checks.check_hull(pts, hull, False)),
    ]


def _thm6_large(wl, _state, out):
    return [
        (f"{label} expected to certify", checks.check_no_certificate(text, code, codes=(0,)))
        for label, (code, text) in out.items()
    ]


PROBES = {
    "fixtures": _fixtures,
    "transport": _transport,
    "hull-random": _hull_random,
    "thm6-large": _thm6_large,
}
