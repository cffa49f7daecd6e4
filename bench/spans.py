"""Span tracing of skewstab's layers, installed from outside the package.

`Tracer.install` replaces each named public function or method with a
wrapper in every loaded ``skewstab`` module (and class) that bound it, so
calls through ``from .skew import pushforward`` style imports are seen
too.  A wrapper records one span per call: its name, its parent span's
name, its duration, and its self time (duration minus child spans).
Spans are aggregated in memory as they close; hot layers make millions
of calls, so keeping each span would not fit in memory.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# (metric prefix, module, attribute): the layer boundaries that are traced
# one by one.  ``Class.method`` attributes are patched on the class.
TARGETS = (
    ("puiseux.mul", "skewstab.puiseux", "PuiseuxPoly.__mul__"),
    ("puiseux.inv", "skewstab.puiseux", "PuiseuxPoly.inv"),
    ("puiseux.compose", "skewstab.puiseux", "PuiseuxPoly.compose"),
    ("puiseux.reversion", "skewstab.puiseux", "reversion"),
    ("roots.newton_puiseux", "skewstab.roots", "newton_puiseux"),
    ("skew.pushforward", "skewstab.skew", "pushforward"),
    ("skew.folding_tree", "skewstab.skew", "folding_tree"),
    ("vertexset.hull", "skewstab.vertexset", "hull"),
    ("vertexset.smooth_hull", "skewstab.vertexset", "smooth_n_convex_hull"),
    ("vertexset.is_smooth", "skewstab.vertexset", "is_smooth"),
    ("vertexset.missing_flanks", "skewstab.vertexset", "missing_flanks"),
    ("vertexset.locate", "skewstab.vertexset", "locate"),
    ("vertexset.contains", "skewstab.vertexset", "VertexSet.__contains__"),
    ("stability.check", "skewstab.stability", "is_analytically_stable"),
    ("stability.stabilize", "skewstab.stability", "stabilize_smooth"),
    ("stability.stabilize", "skewstab.stability", "minimal_stabilisation"),
    ("stability.wandering", "skewstab.stability", "wandering_julia_report"),
    ("intervalmap.induce", "skewstab.intervalmap", "induce_interval_map"),
    ("intervalmap.certificate", "skewstab.intervalmap", "denominator_growth_certificate"),
    ("parsing.parse", "skewstab.parsing", "parse_definition"),
    ("cli", "skewstab.cli", "main"),
)

# Every public function of this module is traced under "berkovich.<name>";
# their self times add up to berkovich.self_s.
BERKOVICH = "skewstab.berkovich"


class Tracer:
    def __init__(self):
        self.active = False
        self._stack = []  # open spans: [name, start, child seconds]
        self._depth = Counter()  # open spans per name, for recursion
        self.calls = Counter()
        self.total = Counter()  # outermost-span durations per name
        self.self_time = Counter()
        self.edges = Counter()  # (parent name, name) -> calls
        self.hull_nodes = 0

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            tracer._depth[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[1]
                stack.pop()
                tracer._depth[name] -= 1
                tracer.calls[name] += 1
                tracer.self_time[name] += dur - frame[2]
                if not tracer._depth[name]:
                    tracer.total[name] += dur
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                tracer.edges[(parent[0] if parent else "-", name)] += 1
            if name == "vertexset.hull":
                tracer.hull_nodes += len(out.nodes)
            return out

        return traced

    def install(self) -> None:
        targets = list(TARGETS)
        berk = sys.modules[BERKOVICH]
        for attr, obj in vars(berk).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == BERKOVICH
            ):
                targets.append((f"berkovich.{attr}", BERKOVICH, attr))
        for name, module, attr in targets:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            _rebind(original, wrapper, [owner])

    def per_layer(self, passes: int) -> dict:
        """Per-pass means of the counts and times named in BENCHMARK.json."""
        c, s, t = self.calls, self.self_time, self.total
        berk_self = sum(v for k, v in s.items() if k.startswith("berkovich."))
        counts = {
            "puiseux.mul.calls": c["puiseux.mul"],
            "puiseux.inv.calls": c["puiseux.inv"],
            "puiseux.reversion.calls": c["puiseux.reversion"],
            "roots.newton_puiseux.calls": c["roots.newton_puiseux"],
            "skew.pushforward.calls": c["skew.pushforward"],
            "berkovich.leq.calls": c["berkovich.leq"],
            "berkovich.join.calls": c["berkovich.join"],
            "vertexset.hull.calls": c["vertexset.hull"],
            "vertexset.hull.nodes": self.hull_nodes,
            "vertexset.missing_flanks.calls": c["vertexset.missing_flanks"],
            "vertexset.locate.calls": c["vertexset.locate"],
            "vertexset.contains.calls": c["vertexset.contains"],
            "intervalmap.induce.calls": c["intervalmap.induce"],
            "parsing.parse.calls": c["parsing.parse"],
        }
        seconds = {
            "puiseux.mul.self_s": s["puiseux.mul"],
            "puiseux.inv.self_s": s["puiseux.inv"],
            "puiseux.compose.self_s": s["puiseux.compose"],
            "puiseux.reversion.s": t["puiseux.reversion"],
            "roots.newton_puiseux.s": t["roots.newton_puiseux"],
            "skew.pushforward.s": t["skew.pushforward"],
            "skew.folding_tree.s": t["skew.folding_tree"],
            "berkovich.self_s": berk_self,
            "vertexset.hull.s": t["vertexset.hull"],
            "vertexset.smooth_hull.s": t["vertexset.smooth_hull"],
            "vertexset.is_smooth.s": t["vertexset.is_smooth"],
            "vertexset.missing_flanks.s": t["vertexset.missing_flanks"],
            "vertexset.locate.s": t["vertexset.locate"],
            "vertexset.contains.s": t["vertexset.contains"],
            "stability.check.s": t["stability.check"],
            "stability.stabilize.s": t["stability.stabilize"],
            "stability.wandering.s": t["stability.wandering"],
            "intervalmap.induce.s": t["intervalmap.induce"],
            "intervalmap.certificate.s": t["intervalmap.certificate"],
            "parsing.parse.s": t["parsing.parse"],
            "cli.self_s": s["cli"],
        }
        out = {k: {"value": v / passes, "unit": "count"} for k, v in counts.items()}
        out.update({k: {"value": v / passes, "unit": "s"} for k, v in seconds.items()})
        return out

    def edge_table(self, passes: int) -> str:
        """Calls per pass along each parent -> child span edge."""
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1])
        return "\n".join(f"{n / passes:14.1f}  {p} -> {c}" for (p, c), n in rows)


def _rebind(original, wrapper, owners) -> None:
    """Point every skewstab module (and the owning class) at the wrapper."""
    spaces = [m for name, m in sys.modules.items() if name.startswith("skewstab")]
    spaces += [o for o in owners if inspect.isclass(o)]
    for space in spaces:
        for attr, value in list(vars(space).items()):
            if value is original:
                setattr(space, attr, wrapper)
