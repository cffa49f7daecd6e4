"""Benchmark for skewstab: timed workloads, output checks, traced layers.

Run from the repository root:

    python3 bench/run.py --workload fixtures --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all   # each workload in turn, one line each
    python3 bench/run.py --quick          # every workload and check, reduced
    python3 bench/run.py --make-data      # rebuild bench/data/thm6_level24.skew
    python3 bench/run.py --cell-shares 40000  # hull-random's cells in criterion 6's draws

One run builds the workload's inputs from the seed, then repeats whole
passes over its operations until --seconds have gone by, checking every
output.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics,
timed at a nominal host speed (hostspeed.py), with --trace 0, the
per-layer metrics of spans.py with --trace 1.  The package is imported
from src/ next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
from hostspeed import SpeedMeter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
WORKLOADS = ("fixtures", "transport", "hull-random", "thm6-large")


def _import_program() -> bool:
    """Put src/ first on the path; refuse to run against anything else."""
    sys.path.insert(0, str(SRC))
    import skewstab

    if Path(skewstab.__file__).resolve().parent != SRC / "skewstab":
        print(f"error: imported skewstab from {skewstab.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def run_all(args) -> int:
    """Each workload in its own process, in turn; one result line each."""
    bad = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        bad += out.returncode != 0 or not lines
        print(f"{name}: {lines[-1] if lines else f'no result (exit {out.returncode})'}")
    return 1 if bad else 0


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time, scaled to the nominal host speed, of fresh
    interpreters that import and build inputs (`setup_only`).  Each child
    runs its own meter, on its own core, and prints what it measured."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        end = perf_counter()
        loops = json.loads(out.stdout.splitlines()[-1])
        times.append((end - start - sum(loops)) * hostspeed.speed(loops))
    return statistics.median(times)


def setup_only(args) -> int:
    """Import the program and build the workload's inputs with a meter on,
    then print the meter's loop times as the last line."""
    meter = SpeedMeter()
    with meter:
        if not _import_program():
            return 2
        import workloads

        workloads.WORKLOADS[args.workload](args.seed)
    print(json.dumps(meter.times))
    return 0


def run_pass(wl):
    """Run one pass: (spans, pass state, [(label, span, ok, output)]).

    A span is an operation's (start, end); `spans` holds begin_pass's and
    every operation's."""
    t0 = perf_counter()
    state = wl.begin_pass()
    spans = [(t0, perf_counter())]
    results = []
    for label, op, _check in wl.ops:
        t0 = perf_counter()
        try:
            out, ok = op(state), True
        except Exception as exc:  # a failed operation is counted, not fatal
            out, ok = exc, False
        span = (t0, perf_counter())
        spans.append(span)
        results.append((label, span, ok, out))
    return spans, state, results


def seconds(span) -> float:
    return span[1] - span[0]


def new_tally() -> dict:
    return {"attempted": 0, "failed": 0, "errors": 0, "op_spans": [], "checked": {}}


def check_pass(wl, state, results, tally) -> None:
    """Check each output, or match it against the checked output of an
    earlier pass: the program is deterministic, so an equal output is
    correct and a different one is a fault."""
    checked = tally["checked"]
    for (label, span, ok, out), (_label, _op, check) in zip(results, wl.ops):
        tally["attempted"] += 1
        if not ok:
            tally["failed"] += 1
            print(f"FAILED {label}: {type(out).__name__}: {out}", file=sys.stderr)
            continue
        tally["op_spans"].append(span)
        if label in checked and checked[label] == out:
            continue
        errs = check(out, state)
        if label in checked:
            errs.append("output differs from an earlier pass")
        checked.setdefault(label, out)
        for err in errs:
            tally["errors"] += 1
            print(f"CHECK {label}: {err}", file=sys.stderr)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(wl, run_s: float, tracer=None):
    """Whole passes until `run_s` seconds have gone by: [spans of each pass],
    tally, and the peak RSS as it stood after the first pass, before its
    checks, so that it does not depend on how many passes fit in the run.
    With a tracer, the even passes are traced and the odd ones are not."""
    tally = new_tally()
    passes = []
    rss = None
    start = perf_counter()
    while not passes or perf_counter() - start < run_s:
        if tracer is not None:
            tracer.active = len(passes) % 2 == 0
        spans, state, results = run_pass(wl)
        if tracer is not None:
            tracer.active = False
        passes.append(spans)
        if rss is None:
            rss = peak_rss_mb()
        check_pass(wl, state, results, tally)
    return passes, tally, rss


def result_line(tally, metrics) -> str:
    return json.dumps(
        {
            "correct": tally["errors"] == 0,
            "attempted": tally["attempted"],
            "failed": tally["failed"],
            "metrics": metrics,
        }
    )


def quick() -> int:
    """Reduced run of every workload and check, then wrong-expectation probes."""
    import selftest
    from workloads import WORKLOADS

    bad = 0
    for name, cls in WORKLOADS.items():
        start = perf_counter()
        wl = cls(seed=1, quick=True)
        _spans, state, results = run_pass(wl)
        tally = new_tally()
        check_pass(wl, state, results, tally)
        misses = selftest.wrong_expectations(wl, state, results)
        print(
            f"{name:12s} {perf_counter() - start:6.2f}s  ops {tally['attempted']}  "
            f"failed {tally['failed']}  check errors {tally['errors']}  "
            f"wrong expectations not caught {len(misses)}"
        )
        for m in misses:
            print(f"  not caught: {m}")
        bad += tally["failed"] + tally["errors"] + len(misses)
    print("quick: ok" if not bad else f"quick: {bad} problem(s)")
    return 0 if not bad else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="reduced run of every workload and check")
    ap.add_argument("--make-data", action="store_true", help="rebuild the thm6-large definition file")
    ap.add_argument("--cell-shares", type=int, metavar="DRAWS",
                    help="print the share of criterion 6's draws in each hull-random cell")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (args.quick or args.make_data or args.cell_shares or args.workload):
        ap.error("--workload is required")

    if not (SRC / "skewstab" / "__init__.py").is_file():
        print(f"error: no skewstab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    setup_s = None
    if args.workload and not (args.trace or args.quick or args.make_data):
        setup_s = measure_setup(args.workload, args.seed)
    if not _import_program():
        return 2
    import workloads

    if args.make_data:
        workloads.THM6_LARGE.write_text(workloads.make_thm6_large(), encoding="utf-8")
        print(f"wrote {workloads.THM6_LARGE.relative_to(ROOT)}")
        return 0
    if args.quick:
        return quick()
    if args.cell_shares:
        shares = workloads.cell_shares(args.cell_shares)
        print("level  " + " ".join(f"{lo:>6d}" for lo, _hi in workloads.SIZE_BANDS) + "  (n-convex hull size from)")
        for lv in workloads.LEVELS:
            print(f"{lv:5d}  " + " ".join(f"{shares[lv, i]:6.4f}" for i in range(len(workloads.SIZE_BANDS))))
        print(f"size 130 or more: {shares[None]:.4f}")
        return 0
    wl = workloads.WORKLOADS[args.workload](args.seed)

    meter = SpeedMeter()
    if args.trace:
        from spans import Tracer

        base_spans, _state, _results = run_pass(wl)
        tracer = Tracer()
        tracer.install()
        passes, tally, _rss = timed_run(wl, args.seconds, tracer)
        walls = [sum(map(seconds, p)) for p in passes]
        traced, untraced = walls[0::2], [sum(map(seconds, base_spans))] + walls[1::2]
        metrics = tracer.per_layer(len(traced))
        # untraced passes alternate with traced ones, so host drift cancels
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(tracer.edge_table(len(traced)), file=sys.stderr)
    else:
        with meter:
            passes, tally, rss = timed_run(wl, args.seconds)
        walls = [sum(map(seconds, p)) for p in passes]
        op_ms = [1000 * meter.scaled(*span) for span in tally["op_spans"]]
        metrics = {
            "wall_s": {"value": statistics.median(sum(meter.scaled(*span) for span in p) for p in passes), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(op_ms or [0.0]), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    loop = ""
    if meter.times:
        loop = f", reference loop {1000 * statistics.median(meter.times):.2f} ms (median of {len(meter.times)})"
    print(
        f"{args.workload}: seed {args.seed}, {len(walls)} pass(es), {len(wl.ops)} operation(s) each, "
        f"unscaled pass walls {', '.join(f'{w:.3f}' for w in walls)} s{loop}"
    )
    print(result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
