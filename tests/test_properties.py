"""Property tests. The CLI round trip parse -> reduce -> verify on random
edge subsets of the 3x3 grid: every subset is planar with maximum degree 4,
so reduce either succeeds or rejects a precondition (disconnected, empty
after stripping); it must never raise, and everything it writes must
verify. Every planar target on random planar inputs of maximum degree 4
glued from blocks by bridges and at cut vertices: each output verifies and,
where the exhaustive solver applies, its optimum is the input's plus the
budget the trace adds. And random sequences of Builder ops, after each of
which every builder row must be strictly increasing and freeze() must
equal the Graph that the validating constructor builds."""

import contextlib
import io
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from fvskit.cli import EXIT_PRECONDITION, main
from fvskit.gadgets import build_gadget
from fvskit.graph import Builder, Graph, Instance
from fvskit.pipeline import PLANAR_TARGETS, run_pipeline
from fvskit.solvers import EXHAUSTIVE_LIMIT
from fvskit.textio import parse_graph, trace_to_json, verify_trace, write_graph

from conftest import (
    bull_free_random,
    c4k1,
    complete_graph,
    cube_graph,
    cycle_graph,
    grid_graph,
    octahedron_graph,
    opt,
    path_graph,
    prism_graph,
)

GRID_EDGES = sorted(
    [(3 * i + j + 1, 3 * i + j + 2) for i in range(3) for j in range(2)]
    + [(3 * i + j + 1, 3 * i + j + 4) for i in range(2) for j in range(3)]
)


# drawn as the edges to delete, so small draws keep the grid mostly connected
@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.sets(st.sampled_from(GRID_EDGES)))
def test_reduce_then_verify_on_grid_subgraphs(deleted):
    edges = set(GRID_EDGES) - deleted
    text = f"p fvs 9 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in sorted(edges))
    with tempfile.TemporaryDirectory() as tmp:
        inp, out, tr = (str(Path(tmp) / name) for name in ("in.fvs", "out.fvs", "trace.json"))
        Path(inp).write_text(text)
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["reduce", inp, "--target", "4reg-planar-ham", "-o", out, "--trace", tr])
        assert code in (0, EXIT_PRECONDITION)
        if code == 0:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                assert main(["verify", out, "--trace", tr]) == 0
            assert printed.getvalue() == "ok\n"


# 2-connected planar blocks; a tree of them, joined by bridges or at cut
# vertices, is planar
BLOCKS = {"C3": cycle_graph(3), "C4": cycle_graph(4), "C5": cycle_graph(5),
          "K4": complete_graph(4), "prism": prism_graph(), "wheel": c4k1(),
          "octahedron": octahedron_graph(), "grid2x3": grid_graph(2, 3)}


def _glued(parts) -> Graph:
    """The graph of parts, a list of (block, where, bridge): each block after
    the first joins the graph so far by an edge (bridge) or at a shared
    vertex, between the pair of a vertex there and one of the block that
    where picks among the pairs that keep every degree at most 4."""
    edges, deg = [], Counter()
    for i, (name, where, bridge) in enumerate(parts):
        block = BLOCKS[name]
        ids = {v: max(deg, default=0) + j for j, v in enumerate(sorted(block.vertices), 1)}
        new = [(ids[u], ids[v]) for u, v in block.edges]
        if i:
            pairs = [(a, b) for a in sorted(deg) for b in sorted(block.vertices)
                     if (max(deg[a], block.degree(b)) <= 3 if bridge
                         else deg[a] + block.degree(b) <= 4)]
            if not pairs:
                continue
            a, b = pairs[where % len(pairs)]
            if bridge:
                new.append((a, ids[b]))
            else:
                new = [tuple(a if w == ids[b] else w for w in e) for e in new]
        edges += new
        deg.update(v for e in new for v in e)
    return Graph.from_edges(edges)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.sampled_from(sorted(BLOCKS)), st.integers(0, 99), st.booleans()),
                min_size=1, max_size=4),
       st.sampled_from(PLANAR_TARGETS))
# outputs small enough for the exhaustive solver
@example([("K4", 0, False)], "4reg-planar")
@example([("octahedron", 0, False)], "4reg-planar-ham")
def test_every_planar_target_verifies_on_glued_planar_inputs(parts, target):
    g = _glued(parts)
    inst = parse_graph(write_graph(Instance(g, 0)))
    res = run_pipeline(inst, target)
    verify_trace(write_graph(res.instance), trace_to_json(res))
    out = res.instance.graph
    if out.n <= EXHAUSTIVE_LIMIT:
        assert opt(out) == opt(inst.graph) + res.instance.k


# Builder.freeze builds its Graph without the edge checks of Graph(...) and
# without sorting: every op must keep the adjacency symmetric, loop-free and
# closed, and each row strictly increasing.
BUILDER_OPS = ["subdivide", "R", "L", "D", "Y", "copy", "lift", "strip"]
# a C4 whose rows iterate from 8, not in vertex order: lift and copy must
# sort the vertices themselves
C4_UNORDERED = Graph.from_edges([(1, 2), (2, 3), (3, 8), (8, 1)])
assert list(C4_UNORDERED.adjacency) != sorted(C4_UNORDERED.adjacency)
STARTS = [cycle_graph(3), c4k1(), cube_graph(), path_graph(4), bull_free_random(8, 12, 1),
          C4_UNORDERED]


def _assert_adjacency_sound(adj):
    for v, ns in adj.items():
        assert all(a < b for a, b in zip(ns, ns[1:])), (v, ns)
        assert v not in ns
        for w in ns:
            assert w in adj and v in adj[w]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(STARTS),
       st.lists(st.tuples(st.sampled_from(BUILDER_OPS), st.integers(0, 999), st.integers(0, 999)),
                max_size=8))
# the densest rows (a lift after a lift) and an R insert at u == v
@example(C4_UNORDERED, [("lift", 0, 0), ("lift", 0, 0), ("R", 5, 5)])
@example(C4_UNORDERED, [("copy", 0, 0)])
def test_builder_ops_keep_freeze_trustworthy(start, ops):
    b = Builder(start, 0, "ops")
    for op, i, j in ops:
        verts = sorted(b.vertices)
        if op == "subdivide":
            edges = sorted((u, w) for u in verts for w in b.adjacency[u] if u < w)
            if not edges:
                continue
            u, w = edges[i % len(edges)]
            b.subdivide((u, w) if j % 2 else (w, u))
        elif op in ("R", "L", "D", "Y"):
            if not verts:
                continue
            u, v = verts[i % len(verts)], verts[j % len(verts)]
            if u == v and op != "R":
                continue
            b.insert(build_gadget(op, 3 + i % 3 if op == "Y" else None), u, v)
        elif op == "copy":
            if b.n <= 200:
                b.copy()
        elif op == "lift":
            if b.n <= 40:
                b.lift()
        else:
            b.strip()
        _assert_adjacency_sound(b.adjacency)
        g = b.freeze()
        edges = [(u, w) for u, ns in b.adjacency.items() for w in ns]
        checked = Graph(b.vertices, edges)
        assert g == checked and g.next_id == b.next_id >= checked.next_id
        # the written and parsed graph has the frozen rows, renumbered 1..n
        name = {v: i for i, v in enumerate(sorted(g.vertices), 1)}
        parsed = parse_graph(write_graph(Instance(g, 0))).graph
        assert parsed.adjacency == {name[v]: tuple(name[w] for w in row)
                                    for v, row in g.adjacency.items()}
