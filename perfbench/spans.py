"""Spans around calls into topzeta's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function, in every topzeta module
that holds it (modules import each other's functions by name), to a
wrapper that records a span: name, start, end, parent span and the
instance it belongs to.  ``uninstall`` puts the originals back.  Spans
stay in memory until the run ends.

Each traced function feeds one per-layer time metric.  A span counts
toward its metric only when no enclosing span feeds the same metric, so
a recursive or nested call is not counted twice.  Counts are read off
the arguments and results at the same boundaries.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from math import isqrt

# module -> function -> time metric it feeds
TRACED = {
    "equitree": {"tree_from_json": "equitree.tree_from_json_s", "validate": "equitree.validate_s",
                 "annotate": "equitree.annotate_s"},
    "lattice": {"admissible_subdivision": "lattice.subdivision_s",
                "insert_rays": "lattice.subdivision_s",
                "minimal_regular_refinement": "lattice.subdivision_s"},
    "zeta": {"zeta_general": "zeta.closed_form_s", "zeta_nondegenerate": "zeta.closed_form_s",
             "poles": "zeta.poles_s"},
    "monodromy": {"monodromy_zeta": "monodromy.zeta_s", "acampo_from_graph": "monodromy.zeta_s",
                  "characteristic_poly": "monodromy.charpoly_s",
                  "conjecture_report": "monodromy.conjecture_s"},
    "resolution": {"build_graph": "resolution.build_graph_s",
                   "build_graph_nondegenerate": "resolution.build_graph_s",
                   "definitional_zeta": "resolution.definitional_zeta_s",
                   "chain_determinant_check": "resolution.chain_check_s"},
    "newton": {"parse_poly": "newton.parse_s", "newton_faces": "newton.faces_s",
               "nondegeneracy_check": "newton.nondegeneracy_s"},
    "cli": {"analyze_tree": "cli.self_s", "analyze_poly": "cli.self_s",
            "check_instance": "cli.check_instance_s", "render_report": "cli.render_s"},
}

INSTANCE = "bench.instance"
# spans whose own time, outside every traced child, is the CLI's glue code
SELF_SPANS = {INSTANCE, "cli.analyze_tree", "cli.analyze_poly", "cli.check_instance"}

COUNTERS = ("equitree.bamboos", "equitree.faces", "lattice.rays", "zeta.denominator_factors",
            "monodromy.expansions", "monodromy.expanded_degree_total",
            "monodromy.divisor_trials_computed", "resolution.graph_nodes",
            "resolution.graph_edges", "cli.report_bytes")


def _count(counts, name, result):
    """Counters read off a traced call's result."""
    if name == "equitree.annotate":
        counts["equitree.bamboos"] += len(result.bamboos)
        counts["equitree.faces"] += sum(len(b.faces) for b in result.bamboos)
    elif name == "lattice.admissible_subdivision":
        counts["lattice.rays"] += len(result.vectors)
    elif name in ("zeta.zeta_general", "zeta.zeta_nondegenerate"):
        counts["zeta.denominator_factors"] += sum(e for _, e in result.den)
    elif name == "monodromy.characteristic_poly":
        if result.coeffs is not None:
            counts["monodromy.expansions"] += 1
            counts["monodromy.expanded_degree_total"] += result.mu
        # the divisor check tries d = 1 .. isqrt(n) for every exponent n
        counts["monodromy.divisor_trials_computed"] += sum(isqrt(n) for n, _ in result.cyclo.factors)
    elif name in ("resolution.build_graph", "resolution.build_graph_nondegenerate"):
        counts["resolution.graph_nodes"] += len(result.nodes)
        counts["resolution.graph_edges"] += len(result.edges)
    elif name == "newton.newton_faces":
        counts["newton.face_degree_max"] = max(
            [counts.get("newton.face_degree_max", 0)] + [len(f.face_poly) - 1 for f in result])
    elif name == "cli.render_report":
        counts["cli.report_bytes"] += len(result)      # reports are ASCII


@contextlib.contextmanager
def recording(module, names):
    """Rebind the functions ``names`` of ``module`` to wrappers that append
    (name, args, result) to the list yielded, and put them back after."""
    calls, saved = [], {name: getattr(module, name) for name in names}

    def wrap(name, fn):
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((name, args, result))
            return result
        return recorded

    for name, fn in saved.items():
        setattr(module, name, wrap(name, fn))
    try:
        yield calls
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, instance index]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.counts["newton.face_degree_max"] = 0
        self._stack = []
        self._saved = []
        self.instance = -1

    def _wrap(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, self.instance]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            _count(counts, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every traced function wherever a topzeta module holds it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "topzeta" or k.startswith("topzeta."))]
        for short, funcs in TRACED.items():
            home = sys.modules[f"topzeta.{short}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def instance_span(self, index: int):
        """The span of one instance, root of the spans of its calls."""
        self.instance = index
        span = [INSTANCE, time.perf_counter(), None, None, index]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def layer_seconds(self) -> dict:
        """Total time per metric, outermost spans only, plus the glue
        time of the CLI (cli.self_s) as the self time of SELF_SPANS."""
        metric = {f"{short}.{f}": m for short, funcs in TRACED.items() for f, m in funcs.items()}
        totals = dict.fromkeys(set(metric.values()) - {"cli.self_s"}, 0.0)
        children = [0.0] * len(self.spans)
        glue = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if name in SELF_SPANS:
                glue += end - start - children[i]
            key = metric.get(name)
            if key is None or key == "cli.self_s":
                continue
            p = parent
            while p is not None and metric.get(self.spans[p][0]) != key:
                p = self.spans[p][3]
            if p is None:
                totals[key] += end - start
        totals["cli.self_s"] = glue
        return totals

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, inst in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst}) + "\n")

