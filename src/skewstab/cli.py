"""Command line front end for inspecting and stabilizing skew products.

Subcommands, with the common flags each one reads:

* image, hull, smooth-hull, check-smooth, domains, and dual-graph,
  which prints DOT: --precision, --out;
* check-stability, which prints the structured report: --precision,
  --horizon, --probe-budget, --out;
* min-stabilize, stabilize: --precision, --horizon, --max-rounds,
  --probe-budget, --out;
* demo: --horizon, --probe-budget, --out.

Definition arguments accept a path or the name of a bundled fixture
(thm6, thmB, xy2, goodred).

Each subcommand's arguments are declared once, in ``_COMMANDS``.  A call
builds only its command's parser; the parser of every command
(``_build_parser``) is built for top-level help and for usage errors
that the command's own parser leaves to it, so help and error messages
are the same bytes either way.

Exit codes: 0 success (StableCertified for the stability family),
1 failed check (non-smooth input, demo mismatch), 2 usage or parse
error (a definition file that is not UTF-8, or an --out file that
cannot be written, included), 3 DestabilisingFound, 4 Inconclusive or
round cap exceeded, 5 internal error (an unexpected exception, reported
on one line), 6 the engine could not decide (any other SkewstabError,
such as insufficient precision, a centre with no rational transport, or
a number with too many digits to print).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .berkovich import TypeIIPoint, g_point, gauss_point, m_point
from .errors import RoundCapExceeded, SkewstabError
from .intervalmap import (
    FixedPoint,
    fixed_points,
    induce_interval_map,
    iterate,
)
from .parsing import (
    DefinitionFile,
    ParseError,
    check_precision,
    parse_definition,
    parse_point,
    parse_points,
)
from .puiseux import PuiseuxPoly, as_series
from .skew import (
    BaseGerm,
    SkewLocal,
    critical_points_rational,
    has_good_reduction,
    pushforward,
    reduction_mod_x,
)
from .stability import (
    DESTABILISING,
    INCONCLUSIVE,
    STABLE,
    JDomain,
    StabilizationConfig,
    is_analytically_stable,
    minimal_stabilisation,
    stabilize_smooth,
    wandering_julia_report,
)
from .vertexset import (
    VertexSet,
    dual_graph_dot,
    enumerate_domains,
    is_smooth,
    n_convex_hull,
    smooth_n_convex_hull,
)

__all__ = ["main"]

_FIXTURES = ("thm6", "thmB", "xy2", "goodred")

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2
EXIT_DESTABILISING = 3
EXIT_INCONCLUSIVE = 4
EXIT_INTERNAL = 5
EXIT_UNDECIDED = 6

_VERDICT_CODE = {
    STABLE: EXIT_OK,
    DESTABILISING: EXIT_DESTABILISING,
    INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class _CliError(Exception):
    """A usage error: one line on stderr and exit 2."""


# -- input plumbing -----------------------------------------------------------

def _fixture_text(name: str) -> str:
    res = resources.files("skewstab.fixtures").joinpath(f"{name}.skew")
    return res.read_text(encoding="utf-8")


def _load(args) -> DefinitionFile:
    if args.precision is not None and args.precision < 1:
        raise _CliError("--precision must be >= 1")
    name = args.definition
    path = Path(name)
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise _CliError(f"{name}: not UTF-8 text (byte 0x{byte:02x} at offset {exc.start})") from None
        d = parse_definition(text)
    else:
        stem = name[:-5] if name.endswith(".skew") else name
        if stem not in _FIXTURES:
            raise _CliError(f"no such definition file or bundled fixture: {name!r}")
        d = parse_definition(_fixture_text(stem))
    bound = args.precision
    if bound is None:
        bound = d.precision if d.precision is not None else 64
    check_precision(d, bound)
    return d


def _fibre(args, d: DefinitionFile) -> int:
    fibre = args.fibre or 0
    if not 0 <= fibre < d.size:
        raise _CliError(f"fibre {fibre} out of range (size {d.size})")
    return fibre


def _config(args, **rounds) -> StabilizationConfig:
    """Settings from --horizon and --probe-budget; the stabilising
    commands pass max_rounds too."""
    settings = dict(horizon=args.horizon, probe_budget=args.probe_budget, **rounds)
    for name, value in settings.items():
        if value < 1:
            raise _CliError(f"--{name.replace('_', '-')} must be >= 1")
    return StabilizationConfig(**settings)


def _points_input(args) -> list:
    pts = []
    if args.definition:
        d = _load(args)
        pts.extend(d.gammas[_fibre(args, d)])
    elif args.fibre is not None:
        raise _CliError("--fibre needs a definition file")
    if args.points:
        pts.extend(parse_points(args.points))
    if not pts:
        raise _CliError("no input points: pass a definition file or --points")
    return pts


def _level(args, pts) -> int:
    if args.level is None:
        return max(1, max(g_point(p) for p in pts))
    for p in pts:
        if g_point(p) > args.level:
            raise _CliError(f"--level {args.level} is below g = {g_point(p)} of {p}")
    return args.level


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


# -- subcommands --------------------------------------------------------------

def cmd_image(args):
    d = _load(args)
    p = parse_point(args.point)
    fibre = _fibre(args, d)
    if args.steps < 1:
        raise _CliError("steps must be >= 1")
    orbit = d.chain.orbit(fibre, p, args.steps - 1)
    lines = []
    for k, (j, q) in enumerate(orbit):
        lines.append(f"step {k}: fibre {j}  {q}  [m={m_point(q)}, g={g_point(q)}]")
    return EXIT_OK, "\n".join(lines)


def cmd_hull(args):
    pts = _points_input(args)
    n = _level(args, pts)
    vs = n_convex_hull(pts, n)
    lines = [f"{n}-convex hull: {len(vs)} point(s)"]
    lines += [f"  {p}" for p in vs]
    return EXIT_OK, "\n".join(lines)


def cmd_smooth_hull(args):
    pts = _points_input(args)
    n = _level(args, pts)
    vs = smooth_n_convex_hull(pts, n)
    lines = [f"smooth {n}-convex hull: {len(vs)} point(s)"]
    lines += [f"  {p}" for p in vs]
    return EXIT_OK, "\n".join(lines)


def cmd_check_smooth(args):
    pts = _points_input(args)
    rep = is_smooth(VertexSet(pts))
    lines = [f"smooth: {'yes' if rep.smooth else 'no'}"]
    lines += [f"  violation: {v}" for v in rep.violations]
    return (EXIT_OK if rep.smooth else EXIT_FAILED_CHECK), "\n".join(lines)


def cmd_domains(args):
    pts = _points_input(args)
    doms = enumerate_domains(VertexSet(pts))
    lines = [f"{len(doms)} complement domain(s)"]
    for i, dom in enumerate(doms):
        bdry = ", ".join(str(b) for b in dom.boundary)
        extra = f" via {dom.direction}" if dom.direction is not None else ""
        lines.append(f"domain {i}: {dom.kind}, boundary [{bdry}]{extra}")
    return EXIT_OK, "\n".join(lines)


def cmd_dual_graph(args):
    pts = _points_input(args)
    return EXIT_OK, dual_graph_dot(VertexSet(pts))


def _wandering_lines(d: DefinitionFile, report, cfg) -> list:
    if not report.witnesses:
        return []
    w = report.witnesses[0]
    try:
        cert = wandering_julia_report(d.chain, w.image, cfg, fibre=w.image_fibre)
    except SkewstabError:
        return []
    if cert is None:
        return []
    fp = cert.fixed_point
    return [
        f"wandering-julia.point: {cert.point} @ fibre {cert.fibre}",
        f"wandering-julia.interval: [{cert.interval[0]}, {cert.interval[1]}]",
        f"wandering-julia.fixed-point: t = {fp.t}, multiplier {fp.slope}",
        f"wandering-julia.orbit: {cert.orbit.invariant}",
    ]


def cmd_check_stability(args):
    d = _load(args)
    cfg = _config(args)
    report = is_analytically_stable(d.gammas, d.chain, cfg)
    lines = [report.structured()]
    if report.verdict == DESTABILISING:
        lines += _wandering_lines(d, report, cfg)
    return _VERDICT_CODE[report.verdict], "\n".join(lines)


def _step_lines(steps) -> list:
    return [
        f"round {s.round}: {s.point} @ fibre {s.fibre} -> "
        f"added {s.image} @ fibre {s.image_fibre}  [{s.classification}]"
        for s in steps
    ]


def cmd_min_stabilize(args):
    d = _load(args)
    cfg = _config(args, max_rounds=args.max_rounds)
    try:
        res, report, trace = minimal_stabilisation(d.gammas, d.chain, cfg)
    except RoundCapExceeded as exc:
        lines = _step_lines(exc.trace or ())
        lines.append(f"round cap exceeded: {exc}")
        return EXIT_INCONCLUSIVE, "\n".join(lines)
    lines = _step_lines(trace)
    for j in sorted(res):
        lines.append(f"fibre {j}: {len(res[j])} vertex(es)")
    lines.append(f"verdict: {report.verdict}")
    return _VERDICT_CODE[report.verdict], "\n".join(lines)


def _round_lines(trace) -> list:
    """One ``round k: added ...`` line per round of a smooth stabilisation."""
    lines = []
    for r in trace:
        rules = sorted({rule for _, _, rule in r["resolutions"]})
        line = f"round {r['round']}: added {len(r['added'])} vertex(es)"
        if rules:
            line += f", rules [{', '.join(rules)}]"
        if r["registry_audit"]:
            line += f", AUDIT FAILURES: {'; '.join(r['registry_audit'])}"
        lines.append(line)
    return lines


def cmd_stabilize(args):
    d = _load(args)
    cfg = _config(args, max_rounds=args.max_rounds)
    try:
        res, report, registry, trace = stabilize_smooth(d.gammas, d.chain, cfg)
    except RoundCapExceeded as exc:
        lines = _round_lines(exc.trace)
        lines.append(f"round cap exceeded: {exc}")
        return EXIT_INCONCLUSIVE, "\n".join(lines)
    lines = _round_lines(trace)
    for j in sorted(res):
        lines.append(f"fibre {j}: {len(res[j])} vertex(es)")
    for disk in registry:
        lines.append(f"registry: {disk}")
    audit = registry.audit(res, d.chain)
    lines.append("registry audit: " + ("clean" if not audit else "; ".join(audit)))
    lines.append(f"verdict: {report.verdict}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return _VERDICT_CODE[report.verdict], "\n".join(lines)


# -- demos ----------------------------------------------------------------------

def _demo_fixture(name: str) -> DefinitionFile:
    return parse_definition(_fixture_text(name))


def _demo_thm6(cfg: StabilizationConfig) -> list:
    d = _demo_fixture("thm6")
    link = d.chain.links[0]
    zero = PuiseuxPoly.zero()
    half = Fraction(1, 2)
    checks = []

    pl = induce_interval_map(link, zero, (Fraction(0), Fraction(4, 3)))
    ok = pl.breakpoints == (Fraction(2, 3),) and pl.pieces == (
        (Fraction(3, 2), Fraction(0)),
        (Fraction(-3, 2), Fraction(2)),
    )
    checks.append((
        "induced interval map",
        ok,
        "breakpoint at t = 2/3, pieces 3/2*t and 2 - 3/2*t"
        if ok
        else f"got breakpoints {pl.breakpoints}, pieces {pl.pieces}",
    ))

    reps = [f for f in fixed_points(pl) if isinstance(f, FixedPoint) and f.t == Fraction(4, 5)]
    ok = bool(reps) and abs(reps[0].slope) == Fraction(3, 2) and reps[0].repelling
    checks.append((
        "repelling fixed point",
        ok,
        "t = 4/5 with multiplier of modulus 3/2"
        if ok
        else f"got {fixed_points(pl)}",
    ))

    orb = iterate(pl, Fraction(1), 4)
    want = [Fraction(1), half, Fraction(3, 4), Fraction(7, 8), Fraction(11, 16)]
    ok = list(orb) == want and not orb.escaped
    checks.append((
        "orbit prefix",
        ok,
        "1, 1/2, 3/4, 7/8, 11/16" if ok else f"got {list(orb)}",
    ))

    p1 = TypeIIPoint(zero, Fraction(1))
    cert = wandering_julia_report(d.chain, p1, cfg)
    ok = cert is not None and cert.orbit.start == Fraction(1)
    checks.append((
        "denominator growth",
        ok,
        f"{cert.orbit.prime}-adic valuation certified infinite from t = 1" if ok else f"got {cert}",
    ))

    report = is_analytically_stable(d.gammas, d.chain, cfg)
    w = report.witnesses[0] if report.witnesses else None
    ok = (
        report.verdict == DESTABILISING
        and w is not None
        and w.point == p1
        and w.image == TypeIIPoint(zero, half)
    )
    checks.append((
        "destabilising witness",
        ok,
        "zeta(0, 1) maps to zeta(0, 1/2) outside the marked family"
        if ok
        else f"got verdict {report.verdict}, witnesses {[str(x.point) for x in report.witnesses]}",
    ))

    ev = w.evidence if w is not None else None
    ok = (
        isinstance(ev, JDomain)
        and ev.witness == TypeIIPoint(zero, Fraction(2, 3))
        and ev.steps == 1
        and ev.path[-1] == (0, p1)
        and pushforward(link, ev.witness) == p1
    )
    checks.append((
        "exact replay",
        ok,
        "zeta(0, 2/3) lands on zeta(0, 1) in 1 step"
        if ok
        else f"got evidence {ev}",
    ))

    ok = (
        cert is not None
        and cert.fixed_point.t == Fraction(4, 5)
        and abs(cert.fixed_point.slope) == Fraction(3, 2)
    )
    checks.append((
        "wandering certificate",
        ok,
        "anchored at the repelling fixed ray t = 4/5" if ok else f"got {cert}",
    ))
    return checks


def _demo_thmB(cfg: StabilizationConfig) -> list:
    d = _demo_fixture("thmB")
    zero = PuiseuxPoly.zero()
    one = as_series(1)
    checks = []

    # critical set of the base polynomial x^2 - x^3 viewed as a rational map
    loc = critical_points_rational([zero, zero, one, -one], [one])
    finite = {str(r.series) for r in loc.roots}
    ok = (
        finite == {"0", "2/3"}
        and not loc.descriptors
        and loc.infinity_multiplicity == 2
        and loc.total() == 4
    )
    checks.append((
        "base critical set",
        ok,
        "critical points 0, 2/3 and infinity"
        if ok
        else f"got roots {finite}, infinity multiplicity {loc.infinity_multiplicity}",
    ))

    q = pushforward(d.chain.links[0], gauss_point())
    ok = q == TypeIIPoint(zero, Fraction(1))
    checks.append((
        "chain transport",
        ok,
        "zeta(0, 0) over the base point 1 maps to zeta(0, 1) over 0"
        if ok
        else f"got {q}",
    ))

    # backward-orbit link localized at x = -1, away from {0, 1}
    u = PuiseuxPoly.monomial(1, 1)
    germ = as_series(-5) * u + as_series(4) * u * u - u * u * u
    c0 = (as_series(2) - u) * (one - u) ** 4
    c6 = as_series(2) - u
    blink = SkewLocal(
        BaseGerm(germ),
        [c0, zero, zero, zero, zero, zero, c6],
        [zero, zero, zero, one],
        label="thmB-backward-at--1",
    )
    red = reduction_mod_x(blink)
    ok = (
        has_good_reduction(blink)
        and tuple(red.num) == (Fraction(2), 0, 0, 0, 0, 0, Fraction(2))
        and tuple(red.den) == (0, 0, 0, Fraction(1))
    )
    checks.append((
        "good reduction off the orbit",
        ok,
        "backward-orbit link at x = -1 reduces to (2 + 2*y^6) / y^3"
        if ok
        else f"got reduction {tuple(red.num)} / {tuple(red.den)}",
    ))

    report = is_analytically_stable(d.gammas, d.chain, cfg)
    ok = report.verdict == DESTABILISING and bool(report.witnesses)
    checks.append((
        "destabilising verdict",
        ok,
        "the Gauss pair cannot be stabilized by finitely many blowups"
        if ok
        else f"got verdict {report.verdict}",
    ))

    cert = wandering_julia_report(d.chain, TypeIIPoint(zero, Fraction(1)), cfg, fibre=1)
    ok = (
        cert is not None
        and cert.fixed_point.t == Fraction(4, 5)
        and abs(cert.fixed_point.slope) == Fraction(3, 2)
    )
    checks.append((
        "wandering certificate",
        ok,
        "infinite orbit certified at the repelling fixed ray t = 4/5"
        if ok
        else f"got {cert}",
    ))
    return checks


def cmd_demo(args):
    if args.name == "thm6":
        checks = _demo_thm6(_config(args))
    elif args.name == "thmB":
        checks = _demo_thmB(_config(args))
    else:
        raise _CliError(f"unknown demo {args.name!r} (available: thm6, thmB)")
    lines = []
    passed = 0
    for label, ok, detail in checks:
        passed += bool(ok)
        lines.append(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    lines.append(f"demo {args.name}: {passed}/{len(checks)} checks passed")
    code = EXIT_OK if passed == len(checks) else EXIT_FAILED_CHECK
    return code, "\n".join(lines)


# -- argument parsing -------------------------------------------------------------

def _arg(*names, **kwargs):
    return names, kwargs


_PRECISION = _arg(
    "--precision", type=int, default=None,
    help="largest exponent allowed in input series (default: file's declaration, else 64)",
)
_HORIZON = _arg("--horizon", type=int, default=64, help="orbit horizon (default 64)")
_MAX_ROUNDS = _arg(
    "--max-rounds", type=int, default=32, dest="max_rounds",
    help="round cap for stabilisation (default 32)",
)
_PROBE_BUDGET = _arg(
    "--probe-budget", type=int, default=8, dest="probe_budget",
    help="denominator budget for probe rays (default 8)",
)
_OUT = _arg("--out", default=None, help="write output to this path instead of stdout")

# the common flags each kind of subcommand reads
_LISTING = (_PRECISION, _OUT)
_STABILIZE = (_PRECISION, _HORIZON, _MAX_ROUNDS, _PROBE_BUDGET, _OUT)

_DEFINITION = _arg("definition", help="definition file or bundled fixture")
_POINTS = (
    _arg(
        "definition", nargs="?", default=None,
        help="definition file or bundled fixture supplying marked points",
    ),
    _arg("--fibre", type=int, default=None, help="fibre whose points to use (default 0)"),
    _arg("--points", default=None, help="extra comma-separated point literals"),
)
_LEVEL = _arg("-n", "--level", type=int, default=None, help="lattice level (default: max g)")

# name: (help, arguments).  The handler of a command is cmd_<name>, looked
# up when the command runs.
_COMMANDS = {
    "image": ("exact orbit of a Type II point", _LISTING + (
        _DEFINITION,
        _arg("point", help="point literal, e.g. 'zeta(0, 1)'"),
        _arg("steps", type=int, help="number of orbit points to print"),
        _arg("--fibre", type=int, default=0, help="starting fibre (default 0)"),
    )),
    "hull": ("n-convex hull of marked points", _LISTING + _POINTS + (_LEVEL,)),
    "smooth-hull": ("smooth n-convex hull of marked points", _LISTING + _POINTS + (_LEVEL,)),
    "check-smooth": ("audit a vertex set for smoothness", _LISTING + _POINTS),
    "domains": ("enumerate complement domains of a vertex set", _LISTING + _POINTS),
    "dual-graph": ("dual graph of a vertex set as DOT", _LISTING + _POINTS),
    "check-stability": (
        "three-valued stability verdict", (_PRECISION, _HORIZON, _PROBE_BUDGET, _OUT, _DEFINITION)
    ),
    "min-stabilize": ("blow up destabilising images until closed", _STABILIZE + (_DEFINITION,)),
    "stabilize": (
        "smooth stabilisation with persistent disk registry", _STABILIZE + (_DEFINITION,)
    ),
    "demo": (
        "scripted walkthrough reproducing frozen results",
        (_HORIZON, _PROBE_BUDGET, _OUT, _arg("name", help="demo name: thm6 or thmB")),
    ),
}


def _add_arguments(parser, name):
    for names, kwargs in _COMMANDS[name][1]:
        parser.add_argument(*names, **kwargs)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for help and usage errors."""
    parser = argparse.ArgumentParser(
        prog="skewstab",
        description="analytic stability toolkit for skew products over a small base disk",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _parse(argv):
    """The arguments of argv, read by the named command's own parser.

    That parser prints the same help and errors as the command's parser
    within `_build_parser`; arguments it leaves over are read again by the
    full parser, which reports them.
    """
    name = argv[0] if argv else None
    if name in _COMMANDS:
        parser = _add_arguments(argparse.ArgumentParser(prog=f"skewstab {name}"), name)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = name
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code, text = globals()["cmd_" + args.command.replace("-", "_")](args)
        if text:
            _emit(args, text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SkewstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except Exception as exc:  # any other failure is a bug: one line, no traceback
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
