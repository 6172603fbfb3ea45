import ast
import dataclasses
import inspect
import textwrap
from pathlib import Path

import pytest

import fvskit
from fvskit.graph import (
    Builder,
    Graph,
    GraphError,
    HamCycleWitness,
    Instance,
    PlaneBuilder,
    TraceStep,
    check_regular,
    cycle_cover_error,
    faces,
    strip_low_degree,
    subdivide_edge,
)
from fvskit.gadgets import build_gadget
from fvskit.pipeline import StageResult, _finish, run_pipeline
from fvskit.solvers import check_planarity
from fvskit.textio import FormatError, _step_from_json, _step_to_json

from conftest import (
    bull_free_random,
    c4k1,
    complete_graph,
    cube_graph,
    cycle_graph,
    opt,
    path_graph,
)


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph([1], [(1, 1)])

    def test_rejects_dangling_edge(self):
        with pytest.raises(GraphError):
            Graph([1, 2], [(1, 3)])

    def test_parallel_edges_collapse(self):
        g = Graph([1, 2], [(1, 2), (2, 1)])
        assert g.m == 1

    def test_immutable(self):
        g = cycle_graph(3)
        with pytest.raises(AttributeError):
            g.vertices = frozenset()

    def test_next_id_fresh(self):
        g = Graph([0, 5], [(0, 5)])
        assert g.next_id == 6


# A Graph is its sorted adjacency rows, with m and next_id; vertices and
# edges are derived from the rows.
MODEL_GRAPHS = [Graph(), cycle_graph(5), c4k1(), complete_graph(5), path_graph(4),
                Graph([1, 9, 30], [(30, 1)]), subdivide_edge(cube_graph(), (1, 2))[0]]


class TestDataModel:
    @pytest.mark.parametrize("g", MODEL_GRAPHS)
    def test_every_row_is_a_sorted_tuple(self, g):
        for row in g.adjacency.values():
            assert type(row) is tuple and list(row) == sorted(set(row))

    @pytest.mark.parametrize("g", MODEL_GRAPHS)
    def test_m_counts_the_derived_edges(self, g):
        assert g.m == len(g.edges)
        assert g.vertices == g.adjacency.keys()

    def test_edge_order_and_repeats_do_not_matter(self):
        assert Graph([1, 2, 3], [(2, 1), (1, 2), (3, 2)]) == Graph.from_edges([(1, 2), (2, 3)])

    def test_has_edge_on_absent_vertex(self):
        g = cycle_graph(3)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(7, 1) and not g.has_edge(1, 7)


class TestSubdivide:
    def test_k3_becomes_c4(self):
        g, w = subdivide_edge(cycle_graph(3), (1, 2))
        assert (g.n, g.m) == (4, 4)
        assert g.degree(w) == 2

    def test_c4k1_rim(self):
        g, _ = subdivide_edge(c4k1(), (1, 2))
        assert (g.n, g.m) == (6, 9)

    def test_single_edge(self):
        g, w = subdivide_edge(Graph.from_edges([(1, 2)]), (1, 2))
        assert opt(g) == 0

    def test_missing_edge(self):
        with pytest.raises(GraphError, match="edge not present"):
            subdivide_edge(cycle_graph(4), (1, 3))

    def test_preserves_optimum_small(self):
        graphs = [cycle_graph(5), complete_graph(4), c4k1()]
        graphs += [bull_free_random(7, 11, s) for s in range(4)]
        for g in graphs:
            assert g.n <= 10
            before = opt(g)
            for e in sorted(g.edges):
                g2, _ = subdivide_edge(g, e)
                assert opt(g2) == before


class TestStrip:
    def test_star(self):
        st = strip_low_degree(Instance(Graph.from_edges([(0, i) for i in range(1, 5)]), 2))
        assert st.graph.n == 0 and st.k == 2

    def test_pendant(self):
        g = Graph.from_edges([(1, 2), (2, 3), (1, 3), (3, 4)])
        st = strip_low_degree(Instance(g, 1))
        assert st.graph == cycle_graph(3)

    def test_forest(self):
        g = path_graph(10)
        assert opt(g) == 0
        assert strip_low_degree(Instance(g, 0)).graph.n == 0

    def test_idempotent_and_opt_preserving(self):
        for s in range(5):
            g = bull_free_random(8, 9, 100 + s)
            st = strip_low_degree(Instance(g, 0))
            again = strip_low_degree(st)
            assert again.graph == st.graph
            assert opt(g) == opt(st.graph)


def _rotation(g):
    planar, rot = check_planarity(g)
    assert planar
    return rot


def _faces(g):
    return faces(g, _rotation(g))


class TestFaces:
    def test_k3(self):
        fs = _faces(cycle_graph(3))
        assert len(fs) == 2 and all(len(f) == 3 for f in fs)

    def test_k4(self):
        fs = _faces(complete_graph(4))
        assert len(fs) == 4 and all(len(f) == 3 for f in fs)

    def test_c4k1(self):
        fs = _faces(c4k1())
        assert len(fs) == 5
        assert sorted(len(f) for f in fs) == [3, 3, 3, 3, 4]

    def test_cube_walks(self):
        # pins the walks and their order, not only their count
        rot = {1: (2, 5, 4), 2: (1, 3, 6), 3: (2, 4, 7), 4: (3, 1, 8),
               5: (8, 1, 6), 6: (5, 2, 7), 7: (6, 3, 8), 8: (4, 5, 7)}
        assert faces(cube_graph(), rot) == [
            [1, 2, 3, 4], [1, 4, 8, 5], [1, 5, 6, 2], [2, 6, 7, 3], [3, 7, 8, 4], [5, 8, 7, 6],
        ]

    def test_euler_on_corpus(self, pipeline_corpus):
        for g in pipeline_corpus.values():
            assert g.n - g.m + len(_faces(g)) == 2

    def test_disconnected(self):
        g = Graph.from_edges([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        with pytest.raises(GraphError, match="faces require connected graph"):
            _faces(g)

    def test_rotation_missing_a_vertex(self):
        g = complete_graph(4)
        rot = _rotation(g)
        del rot[4]
        with pytest.raises(GraphError, match="cover exactly the vertex set"):
            faces(g, rot)

    def test_rotation_listing_a_non_edge(self):
        # C4 with the chord 1-3 swapped in for the edge 1-2 at vertex 1
        g = cycle_graph(4)
        rot = _rotation(g)
        rot[1] = tuple(3 if w == 2 else w for w in rot[1])
        with pytest.raises(GraphError, match="rotation at 1 does not match incident edges"):
            faces(g, rot)

    def test_rotation_repeating_a_neighbour(self):
        g = complete_graph(4)
        rot = _rotation(g)
        rot[1] = (rot[1][0], rot[1][0], rot[1][1])
        with pytest.raises(GraphError, match="rotation at 1 does not match incident edges"):
            faces(g, rot)

    def test_plane_builder_face_index(self):
        g = cycle_graph(4)
        b = PlaneBuilder(g, _rotation(g))
        assert b.n_faces == 2
        assert sorted(list(b.face.values()).count(f) for f in range(2)) == [4, 4]

    def test_plane_builder_copy_must_be_joined_before_the_next_copy(self):
        g = cycle_graph(4)
        b = PlaneBuilder(g, _rotation(g))
        mapping = b.copy()
        with pytest.raises(GraphError, match="^a plane builder copies only a connected graph$"):
            b.copy()
        with pytest.raises(GraphError, match="^the insert after a copy must join its halves "
                                             "at 1 and 2$"):
            b.insert(build_gadget("L"), 1, 2)
        b.insert(build_gadget("L"), 1, mapping[1])
        assert b.split is None


class TestCheckRegular:
    def test_examples(self):
        assert not check_regular(c4k1(), 4)
        assert check_regular(complete_graph(5), 4)
        assert check_regular(Graph(), 7)


class TestWitnessAndInstance:
    def test_witness_valid(self):
        assert HamCycleWitness((1, 2, 3, 4, 5, 6)).is_valid_for(cycle_graph(6))

    def test_witness_broken_order(self):
        assert not HamCycleWitness((1, 2, 4, 3, 5, 6)).is_valid_for(cycle_graph(6))

    def test_witness_not_permutation(self):
        assert not HamCycleWitness((1, 2, 3)).is_valid_for(cycle_graph(4))

    def test_instance_negative_k(self):
        with pytest.raises(GraphError):
            Instance(cycle_graph(3), -1)

    def test_instance_bad_witness(self):
        with pytest.raises(GraphError):
            Instance(cycle_graph(4), 0, HamCycleWitness((1, 3, 2, 4)))

    def test_a_two_vertex_witness_is_shorter_than_a_cycle(self):
        assert cycle_cover_error(cycle_graph(4), [(1, 2)]) == "cycle shorter than 3"


class TestTrace:
    def test_step_json_round_trip(self):
        s = TraceStep("merge", "insert", gadget="L", attach=(3, 7))
        back = _step_from_json("merge", 0, _step_to_json(s))
        assert back == s

    @pytest.mark.parametrize("field, msg", [
        ({"attach": [1]}, "attach must list 0 or 2 integers"),
        ({"face": [1, 2, 3]}, "face must list 0 or 2 or 4 integers"),
    ])
    def test_step_list_of_the_wrong_length(self, field, msg):
        with pytest.raises(FormatError) as info:
            _step_from_json("pairing", 3, {"op": "insert", "gadget": "L", **field})
        assert str(info.value) == f"trace JSON: stage pairing step 3: {msg}"


# The only callers that may build a Graph without the per-edge checks of
# Graph(...): freeze, whose ops keep the adjacency sound, and parse_graph,
# which checks every edge line as it reads it.
UNCHECKED_CALLERS = {("graph.py", "Builder.freeze"), ("textio.py", "parse_graph")}


def _references(tree, name, definition):
    """(qualified name of the enclosing def, or "" at module level) of each
    name, attribute or string in tree that mentions name, other than inside
    its own definition, the def whose qualified name is definition."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
            if inner == definition:
                return
            scope = inner
        if (
            isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Constant) and name in str(node.value)
        ):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def _callers(name, definition):
    """(file name, enclosing def) of every mention of name in src/fvskit."""
    src = Path(fvskit.__file__).parent
    return {(path.name, scope)
            for path in sorted(src.glob("*.py"))
            for scope in _references(ast.parse(path.read_text()), name, definition)}


def test_only_freeze_and_parse_graph_skip_the_edge_checks():
    assert _callers("_unchecked", "Graph._unchecked") == UNCHECKED_CALLERS
    # each hands over the three stored parts: rows, m and next_id
    src = Path(fvskit.__file__).parent
    calls = [node for path in src.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "_unchecked"]
    assert len(calls) == 2 and all(len(c.args) == 3 and not c.keywords for c in calls)


# Each exact search reads the clock only through its _Progress, which sets
# the deadline and checks it; no other code reads the time.
def test_only_the_search_progress_reads_the_clock():
    assert _callers("monotonic", "_Progress") == set()


# Fresh ids exceed every id in the graph, so the builder's rows stay sorted
# by how its ops edit them: freeze copies them, and the ops that run per
# gadget or per subdivision neither sort a row nor hash one into a set.
SORT_FREE = ("freeze", "insert", "_add", "subdivide")


@pytest.mark.parametrize("method", SORT_FREE)
def test_the_builder_keeps_its_rows_sorted_without_sorting(method):
    tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(Builder, method))))
    for node in ast.walk(tree):
        assert not isinstance(node, (ast.Set, ast.SetComp)), ast.unparse(node)
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            assert name not in ("sorted", "sort", "set", "frozenset"), ast.unparse(node)


# An op makes one int object per fresh id, shared by the id's key and by
# every row that lists it, so an output holds one int object per vertex.
def test_compiled_rows_share_one_int_per_vertex():
    g = run_pipeline(Instance(cycle_graph(3), 1), "preg-ham:6").instance.graph
    ints = {id(v) for v in g.adjacency} | {id(w) for row in g.adjacency.values() for w in row}
    assert len(ints) == g.n == 2352


# The one strip of degree <= 1 vertices: the builder's strip op, the FVS
# check, the greedy bound and the branch-and-reduce node reduction.
STRIP_CALLERS = {("graph.py", "Builder.strip"), ("solvers.py", "is_fvs"),
                 ("solvers.py", "_greedy_fvs"), ("solvers.py", "_reduce")}


def test_every_strip_runs_through_strip_adjacency():
    assert _callers("_strip_adjacency", "_strip_adjacency") == STRIP_CALLERS


# The one cycle-cover check is reached only where a cycle certificate is
# built: Instance checks its witness through HamCycleWitness.is_valid_for,
# and TwoFactor.validate checks a 2-factor, which only compute_two_factor
# asks for. The one Hamiltonian search runs only for a ham-ordered input
# that carries no witness.
CERTIFICATE_CHECKERS = [
    ("cycle_cover_error", "cycle_cover_error",
     {("graph.py", "HamCycleWitness.is_valid_for"), ("pipeline.py", "TwoFactor.validate")}),
    ("is_valid_for", "HamCycleWitness.is_valid_for", {("graph.py", "Instance.__post_init__")}),
    ("find_hamiltonian_cycle", "find_hamiltonian_cycle", {("pipeline.py", "_run_stages")}),
]


@pytest.mark.parametrize("name, definition, callers", CERTIFICATE_CHECKERS,
                         ids=[c[0] for c in CERTIFICATE_CHECKERS])
def test_each_certificate_is_checked_where_it_is_built(name, definition, callers):
    assert _callers(name, definition) == callers


# A stage checks the class of its input in its preconditions, and certify
# checks a run's output against its target: no stage re-checks its output.
CLASS_CHECKERS = [
    ("check_ore_condition", "check_ore_condition", {("pipeline.py", "certify")}),
    ("check_regular", "check_regular",
     {("graph.py", "regularity"), ("pipeline.py", "certify"),
      ("pipeline.py", "compute_two_factor"), ("pipeline.py", "five_regularize")}),
]


@pytest.mark.parametrize("name, definition, callers", CLASS_CHECKERS,
                         ids=[c[0] for c in CLASS_CHECKERS])
def test_class_checks_guard_stage_inputs_and_the_output_only(name, definition, callers):
    assert _callers(name, definition) == callers


def _call_sites(name):
    """(file name, qualified name of the enclosing def, or "" at module
    level) of every call of name, as a name or an attribute, in src/fvskit."""
    found = set()

    def visit(node, scope, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            found.add((path.name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, path)

    for path in sorted(Path(fvskit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path)
    return found


# pipeline._finish builds every stage result, from the Builder that built the
# stage's output; a result's certificate is derived when it is read.
def test_only_finish_builds_a_stage_result():
    assert _call_sites("StageResult") == {("pipeline.py", "_finish")}
    assert "certificate" not in {f.name for f in dataclasses.fields(StageResult)}
    assert "planar" not in inspect.signature(_finish).parameters


# Builder answers a Graph's read-only queries through their shared base.
def test_builder_inherits_the_graph_read_methods():
    for name in ("vertices", "n", "degree", "has_edge"):
        assert name not in vars(Builder) and name not in vars(Graph)
        assert getattr(Builder, name) is getattr(Graph, name)


def test_only_compute_two_factor_validates_a_two_factor():
    src = Path(fvskit.__file__).parent
    calls = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                calls.update((path.name, fn.name) for node in ast.walk(fn)
                             if isinstance(node, ast.Call)
                             and isinstance(node.func, ast.Attribute)
                             and node.func.attr == "validate")
    assert calls == {("pipeline.py", "compute_two_factor")}


# What tests a class property of a graph. textio may reach them only through
# certify, the certifier run_pipeline calls, and replay_stages, which builds
# the planarity proof that certify reads, so reduce and verify certify an
# output against its target with the same code.
CLASS_PRIMITIVES = {"check_planarity", "solvers", "networkx", "nx", "faces", "embeds",
                    "PlaneBuilder", "check_regular", "regularity", "check_ore_condition",
                    "target_class"}


def test_textio_reaches_planarity_only_through_planarity_proof():
    tree = ast.parse((Path(fvskit.__file__).parent / "textio.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update((node.module or "").split("."))
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            used.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert {"certify", "replay_stages"} <= used
    assert not used & CLASS_PRIMITIVES


# The compiler and the verifier execute an insert by one call,
# b.insert(gadget, u, v, dart), on a Builder or a PlaneBuilder alike: the
# gadget carries its plane, and that plane is built in one place.
def test_one_insert_signature_and_the_gadget_carries_its_plane():
    assert inspect.signature(PlaneBuilder.insert) == inspect.signature(Builder.insert)
    src = Path(fvskit.__file__).parent
    calls = [(path.name, node) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)]
    assert [name for name, c in calls
            if isinstance(c.func, ast.Name) and c.func.id == "GadgetPlane"] == ["gadgets.py"]
    inserts = [c for _, c in calls if isinstance(c.func, ast.Attribute) and c.func.attr == "insert"]
    assert len(inserts) >= 7
    for c in inserts:
        passed = [*c.args, *(kw.value for kw in c.keywords)]
        names = {n.id if isinstance(n, ast.Name) else n.attr
                 for arg in passed for n in ast.walk(arg) if isinstance(n, (ast.Name, ast.Attribute))}
        assert len(passed) <= 4 and "plane" not in {kw.arg for kw in c.keywords}, ast.unparse(c)
        assert not any("plane" in name.lower() for name in names), ast.unparse(c)


# fvskit has one planarity engine: every check_planarity it calls is
# solvers', by its bare name, and none is networkx's, the drawing included.
def test_no_module_calls_networkx_check_planarity():
    src = Path(fvskit.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                assert getattr(node.func, "attr", None) != "check_planarity", (
                    path.name, ast.unparse(node))
            elif isinstance(node, ast.ImportFrom):
                if "check_planarity" in {alias.name for alias in node.names}:
                    assert (node.module, node.level) == ("solvers", 1), path.name
    assert ("geometry.py", "grid_embed") in _call_sites("check_planarity")


# Pairing works on the LR rotation alone; the grid drawing serves only the
# pairing audit, which derives it when first read.
def test_pipeline_draws_only_the_pairing_audit():
    tree = ast.parse((Path(fvskit.__file__).parent / "pipeline.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "geometry"
                for alias in node.names]
    assert imported == ["grid_embed"]
    # named only in the audit's docstring and its embedding property
    assert set(_references(tree, "grid_embed", "grid_embed")) == {"PairingAudit",
                                                                 "PairingAudit.embedding"}
    assert {scope for name, scope in _call_sites("grid_embed")} == {"PairingAudit.embedding"}
