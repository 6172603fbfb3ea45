"""Per-layer tracing from outside the program. The layers are the fvskit
modules; their public functions (and ``Graph`` construction) are wrapped
for the traced passes of a run and restored afterwards.

Modules import each other's functions by name (``pipeline`` holds its own
reference to ``check_planarity``, ``cli`` to ``fvs_exact_exhaustive``), so
every fvskit module attribute bound to a wrapped function is replaced, not
only the one in the defining module.

Each wrapped call is a span: name, start, end, parent span, operation id and
an optional value taken from its arguments or result. Spans stay in memory
until the run writes them out. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

STAGES = {
    "eliminate_degree_two": "degree2",
    "pair_degree_three": "pairing",
    "hamiltonize": "hamiltonize",
    "evenize": "evenize",
    "five_regularize": "5regular",
    "p_regularize": "pregular",
    "ham_ordered_lift": "lift",
}


def _stage_value(args, kwargs, result):
    inst = args[0] if args else kwargs["inst"]
    g = result.instance.graph
    return (g.n, g.m, len(result.steps), result.instance.k - inst.k)


# (module, attribute, span name, value taken from (args, kwargs, result))
WRAPPED = [
    ("textio", "parse_graph", "textio.parse_graph", None),
    ("textio", "write_graph", "textio.write_graph", None),
    ("textio", "trace_dumps", "textio.trace_dumps", lambda a, kw, r: len(r)),
    ("textio", "verify_trace", "textio.verify_trace", None),
    *[("pipeline", fn, f"pipeline.{stage}", _stage_value) for fn, stage in STAGES.items()],
    ("pipeline", "merge_step", "pipeline.merge_step", lambda a, kw, r: r[3]),
    ("pipeline", "compute_two_factor", "pipeline.compute_two_factor", None),
    ("pipeline", "replay_trace", "pipeline.replay_trace", lambda a, kw, r: len(a[1])),
    # private, traced only to attribute planarity tests to stage certificates
    ("pipeline", "_certificate", "pipeline.certificate", None),
    ("geometry", "grid_embed", "geometry.grid_embed", None),
    ("geometry", "pick_epsilon", "geometry.pick_epsilon", lambda a, kw, r: r.denominator),
    ("geometry", "find_crossings", "geometry.find_crossings", lambda a, kw, r: len(r)),
    ("geometry", "route_connection", "geometry.route_connection", None),
    ("graph", "faces", "graph.faces", None),
    ("graph", "subdivide_edge", "graph.subdivide_edge", None),
    ("graph", "strip_low_degree", "graph.strip_low_degree", None),
    ("gadgets", "insert_gadget_graph", "gadgets.insert_gadget_graph", lambda a, kw, r: a[1].kind),
    ("gadgets", "build_gadget", "gadgets.build_gadget", None),
    ("solvers", "check_planarity", "solvers.check_planarity", None),
    ("solvers", "fvs_exact_exhaustive", "solvers.fvs_exact_exhaustive", None),
    ("solvers", "fvs_branch_reduce", "solvers.fvs_branch_reduce", None),
    ("solvers", "find_hamiltonian_cycle", "solvers.find_hamiltonian_cycle", None),
    ("solvers", "check_ore_condition", "solvers.check_ore_condition", None),
]

# Called up to millions of times per pass: counted, not timed.
COUNTED = [("geometry", "segment_relation", "geometry.segment_relation")]

S, COUNT = "s", "count"
STAGE_NAMES = list(STAGES.values())
PLANARITY_CALLERS = {
    "pipeline.certificate": "in_certificate",
    "textio.verify_trace": "in_verify",
    "pipeline.hamiltonize": "in_hamiltonize",
}

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    [(f"pipeline.{st}.{f}", u, "lower") for st in STAGE_NAMES
     for f, u in (("self_s", S), ("n_out", COUNT), ("m_out", COUNT), ("steps", COUNT),
                  ("k_delta", COUNT))]
    + [
        ("pipeline.hamiltonize.merges_case1", COUNT, "higher"),
        ("pipeline.hamiltonize.merges_case2", COUNT, "lower"),
        ("pipeline.compute_two_factor.s", S, "lower"),
        ("pipeline.replay_trace.s", S, "lower"),
        ("pipeline.replay_trace.calls", COUNT, "lower"),
        ("pipeline.replay_trace.steps", COUNT, "lower"),
        ("geometry.grid_embed.s", S, "lower"),
        ("geometry.pick_epsilon.self_s", S, "lower"),
        ("geometry.find_crossings.s", S, "lower"),
        ("geometry.find_crossings.calls", COUNT, "lower"),
        ("geometry.segment_relation.calls", COUNT, "lower"),
        ("geometry.crossings", COUNT, "lower"),
        ("geometry.crossing_yield", "ratio", "higher"),
        ("geometry.route_connection.calls", COUNT, "lower"),
        ("geometry.epsilon_q", "q", "lower"),
        ("graph.construct.calls", COUNT, "lower"),
        ("graph.construct.edges", COUNT, "lower"),
        ("graph.construct.s", S, "lower"),
        ("graph.faces.calls", COUNT, "lower"),
        ("graph.faces.s", S, "lower"),
        ("graph.subdivide_edge.calls", COUNT, "lower"),
        ("graph.subdivide_edge.s", S, "lower"),
        ("graph.strip_low_degree.s", S, "lower"),
    ]
    + [(f"gadgets.insert.{kind}.calls", COUNT, "lower") for kind in "RLDY"]
    + [
        ("gadgets.insert_gadget_graph.s", S, "lower"),
        ("gadgets.build_gadget.calls", COUNT, "lower"),
        ("solvers.check_planarity.calls", COUNT, "lower"),
        ("solvers.check_planarity.s", S, "lower"),
    ]
    + [(f"solvers.check_planarity.{where}.{f}", u, "lower")
       for where in PLANARITY_CALLERS.values() for f, u in (("calls", COUNT), ("s", S))]
    + [
        ("solvers.fvs_exact_exhaustive.s", S, "lower"),
        ("solvers.fvs_exact_exhaustive.calls", COUNT, "lower"),
        ("solvers.fvs_branch_reduce.s", S, "lower"),
        ("solvers.fvs_branch_reduce.calls", COUNT, "lower"),
        ("solvers.find_hamiltonian_cycle.s", S, "lower"),
        ("solvers.check_ore_condition.s", S, "lower"),
        ("textio.parse_graph.s", S, "lower"),
        ("textio.write_graph.s", S, "lower"),
        ("textio.trace_dumps.s", S, "lower"),
        ("textio.trace_bytes", "bytes", "lower"),
        ("textio.verify_trace.self_s", S, "lower"),
        ("trace.overhead_s", S, "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
)


class Tracer:
    """Span recorder. A span is [name, start, end, parent index, op id,
    value]; ``op`` is set by the caller around each operation."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []

    def span(self, name, fn, value, args, kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if value is not None:
            rec[5] = value(args, kwargs, result)
        return result

    def wrap(self, name, fn, value=None):
        def traced(*args, **kwargs):
            return self.span(name, fn, value, args, kwargs)

        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every target in every fvskit module that references it.
        Returns the patches for ``uninstall``."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "fvskit" or key.startswith("fvskit."))]
        patches = []
        for mod, attr, name, value in WRAPPED:
            orig = _original(mod, attr)
            patches += _patch_everywhere(modules, orig, self.wrap(name, orig, value))
        for mod, attr, name in COUNTED:
            orig = _original(mod, attr)
            patches += _patch_everywhere(modules, orig, self.counter(name, orig))
        graph_cls = importlib.import_module("fvskit.graph").Graph
        init = graph_cls.__init__
        tracer = self

        def construct(g, *args, **kwargs):
            tracer.span("graph.construct", init, _edge_count, (g, *args), kwargs)

        graph_cls.__init__ = construct
        patches.append((graph_cls, "__init__", init))
        return patches


def _edge_count(args, kwargs, result):
    return len(args[0].edges)


def _original(mod, attr):
    return getattr(importlib.import_module(f"fvskit.{mod}"), attr)


def _patch_everywhere(modules, orig, wrapper):
    patches = []
    for m in modules:
        for key, val in list(vars(m).items()):
            if val is orig:
                patches.append((m, key, orig))
                setattr(m, key, wrapper)
    return patches


def uninstall(patches):
    for obj, key, orig in reversed(patches):
        setattr(obj, key, orig)


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced pass, from the spans and counts a
    Tracer collected during it."""
    n = len(spans)
    child = [0.0] * n
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    dur = defaultdict(float)
    self_t = defaultdict(float)
    calls = Counter()
    values = defaultdict(list)
    planarity = defaultdict(lambda: [0, 0.0])
    for i, rec in enumerate(spans):
        name = rec[0]
        d = rec[2] - rec[1]
        dur[name] += d
        self_t[name] += d - child[i]
        calls[name] += 1
        if rec[5] is not None:
            values[name].append(rec[5])
        if name == "solvers.check_planarity":
            p = rec[3]
            while p >= 0 and spans[p][0] not in PLANARITY_CALLERS:
                p = spans[p][3]
            if p >= 0:
                slot = planarity[PLANARITY_CALLERS[spans[p][0]]]
                slot[0] += 1
                slot[1] += d

    out = {}
    for st in STAGE_NAMES:
        vals = values[f"pipeline.{st}"]
        out[f"pipeline.{st}.self_s"] = self_t[f"pipeline.{st}"]
        for j, f in enumerate(("n_out", "m_out", "steps", "k_delta")):
            out[f"pipeline.{st}.{f}"] = sum(v[j] for v in vals)
    cases = Counter(values["pipeline.merge_step"])
    out["pipeline.hamiltonize.merges_case1"] = cases[1]
    out["pipeline.hamiltonize.merges_case2"] = cases[2]
    out["pipeline.compute_two_factor.s"] = dur["pipeline.compute_two_factor"]
    out["pipeline.replay_trace.s"] = dur["pipeline.replay_trace"]
    out["pipeline.replay_trace.calls"] = calls["pipeline.replay_trace"]
    out["pipeline.replay_trace.steps"] = sum(values["pipeline.replay_trace"])

    crossings = sum(values["geometry.find_crossings"])
    relations = counts["geometry.segment_relation"]
    out["geometry.grid_embed.s"] = dur["geometry.grid_embed"]
    out["geometry.pick_epsilon.self_s"] = self_t["geometry.pick_epsilon"]
    out["geometry.find_crossings.s"] = dur["geometry.find_crossings"]
    out["geometry.find_crossings.calls"] = calls["geometry.find_crossings"]
    out["geometry.segment_relation.calls"] = relations
    out["geometry.crossings"] = crossings
    out["geometry.crossing_yield"] = crossings / relations if relations else 0.0
    out["geometry.route_connection.calls"] = calls["geometry.route_connection"]
    out["geometry.epsilon_q"] = max(values["geometry.pick_epsilon"], default=0)

    out["graph.construct.calls"] = calls["graph.construct"]
    out["graph.construct.edges"] = sum(values["graph.construct"])
    out["graph.construct.s"] = dur["graph.construct"]
    for fn in ("faces", "subdivide_edge"):
        out[f"graph.{fn}.calls"] = calls[f"graph.{fn}"]
        out[f"graph.{fn}.s"] = dur[f"graph.{fn}"]
    out["graph.strip_low_degree.s"] = dur["graph.strip_low_degree"]

    kinds = Counter(values["gadgets.insert_gadget_graph"])
    for kind in "RLDY":
        out[f"gadgets.insert.{kind}.calls"] = kinds[kind]
    out["gadgets.insert_gadget_graph.s"] = dur["gadgets.insert_gadget_graph"]
    out["gadgets.build_gadget.calls"] = calls["gadgets.build_gadget"]

    out["solvers.check_planarity.calls"] = calls["solvers.check_planarity"]
    out["solvers.check_planarity.s"] = dur["solvers.check_planarity"]
    for where in PLANARITY_CALLERS.values():
        out[f"solvers.check_planarity.{where}.calls"] = planarity[where][0]
        out[f"solvers.check_planarity.{where}.s"] = planarity[where][1]
    for fn in ("fvs_exact_exhaustive", "fvs_branch_reduce"):
        out[f"solvers.{fn}.s"] = dur[f"solvers.{fn}"]
        out[f"solvers.{fn}.calls"] = calls[f"solvers.{fn}"]
    out["solvers.find_hamiltonian_cycle.s"] = dur["solvers.find_hamiltonian_cycle"]
    out["solvers.check_ore_condition.s"] = dur["solvers.check_ore_condition"]

    for fn in ("parse_graph", "write_graph", "trace_dumps"):
        out[f"textio.{fn}.s"] = dur[f"textio.{fn}"]
    out["textio.trace_bytes"] = sum(values["textio.trace_dumps"])
    out["textio.verify_trace.self_s"] = self_t["textio.verify_trace"]
    return out
