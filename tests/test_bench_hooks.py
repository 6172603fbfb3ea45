"""The benchmark's per-layer tracer (perfbench/tracing.py) looks fvskit
functions up by module and attribute name. A renamed or deleted target
crashes every traced benchmark run, so each one must still resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    targets = [(m, a) for m, a, _, _ in tracing.WRAPPED] + [(m, a) for m, a, _ in tracing.COUNTED]
    assert len(targets) > 20
    missing = [
        f"fvskit.{m}.{a}"
        for m, a in targets
        if not callable(getattr(importlib.import_module(f"fvskit.{m}"), a, None))
    ]
    assert missing == []


def test_traced_graph_construction_counts_its_edges():
    # the tracer wraps Graph.__init__ and reads len(g.edges), which the
    # Graph derives from its rows
    from fvskit.graph import Graph

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    patches = tracer.install()
    try:
        g = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 1), (2, 1)])
    finally:
        tracing.uninstall(patches)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert g.m == 3
    assert metrics["graph.construct.calls"] == 1
    assert metrics["graph.construct.edges"] == 3


def test_traced_pairing_reports_its_span_and_one_lr_test():
    # pairing pairs its points by a T-join on one LR rotation: the tracer
    # sees the stage's span, its output, and one planarity test inside it
    # (called through its module, whose attribute the tracer wraps)
    from conftest import grid_graph
    from fvskit import pipeline
    from fvskit.graph import Instance

    inst = pipeline.eliminate_degree_two(Instance(grid_graph(3, 3), 1)).instance
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    patches = tracer.install()
    try:
        sr = pipeline.pair_degree_three(inst)
    finally:
        tracing.uninstall(patches)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert [span[0] for span in tracer.spans if span[3] == -1] == ["pipeline.pairing"]
    assert metrics["pipeline.pairing.n_out"] == sr.instance.graph.n > inst.graph.n
    assert metrics["pipeline.pairing.steps"] == len(sr.steps) > 0
    assert metrics["solvers.check_planarity.calls"] == 1
    assert metrics["geometry.route_connection.calls"] == 0
    assert metrics["geometry.find_crossings.calls"] == 0
