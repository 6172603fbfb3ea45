"""Tampered traces: `fvskit verify` must reject every single-field mutation
of a valid trace with exit 2 (format) or 4 (certification), or else the
mutant must replay to the identical output. It derives every budget delta
from the replayed ops, decides from the trace's target alone what the
output must satisfy, and never ends in a traceback."""

import copy
import json

import pytest

from fvskit import pipeline
from fvskit.cli import main
from fvskit.graph import Builder, Graph, Instance, PlaneBuilder
from fvskit.pipeline import (
    GADGETS,
    CertificationError,
    PipelineResult,
    StageResult,
    replay_stages,
    replay_trace,
)
from fvskit.textio import _step_from_json, parse_graph, trace_to_json, write_graph

TRIANGLE = "p fvs 3 3\ne 1 2\ne 2 3\ne 1 3\n"
OPS = ("subdivide", "insert", "copy", "lift", "strip")
KINDS = ("R", "L", "D", "Y")
TARGETS = ("4reg-planar", "4reg-planar-ham", "5reg-planar-ham", "preg-ham:4", "preg-ham:5",
           "preg-ham:6", "ham-ordered:3", "ham-ordered:4", "ham-ordered:5")


C5 = "p fvs 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"
PRISM = "p fvs 6 9\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 5\ne 3 6\ne 4 5\ne 4 6\ne 5 6\n"
# the hexagonal prism C6 x K2: two hexagons 1..6 and 7..12 joined by rungs
HEX_PRISM = "p fvs 12 18\n" + "".join(
    f"e {u} {v}\n" for i in range(1, 7)
    for u, v in ((i, i % 6 + 1), (i + 6, i % 6 + 7), (i, i + 6)))


def _compile(tmp_path, k, text=TRIANGLE, target="4reg-planar-ham"):
    inp = tmp_path / "in.fvs"
    inp.write_text(text)
    out, tr = tmp_path / "out.fvs", tmp_path / "trace.json"
    assert main(["reduce", str(inp), "--target", target, "--k", str(k),
                 "-o", str(out), "--trace", str(tr)]) == 0
    return out, json.loads(tr.read_text())


def _verify(tmp_path, out, doc_or_text):
    tr = tmp_path / "mutant.json"
    tr.write_text(doc_or_text if isinstance(doc_or_text, str) else json.dumps(doc_or_text))
    return main(["verify", str(out), "--trace", str(tr)])


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mutation")
    out, doc = _compile(tmp, 1)
    return tmp, out, doc


@pytest.fixture(scope="module")
def planar_artifact(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("planar")
    out, doc = _compile(tmp, 1, target="4reg-planar")
    return tmp, out, doc


@pytest.fixture(scope="module")
def c5_artifact(tmp_path_factory):
    # a triangle's trace has too few steps for the mutant count below
    tmp = tmp_path_factory.mktemp("c5")
    out, doc = _compile(tmp, 1, C5)
    return tmp, out, doc


@pytest.fixture(scope="module")
def dart_artifact(tmp_path_factory):
    # the hexagonal prism's pairing lays ten R gadgets, each recording its
    # darts; pairing is the last stage, so no later stage reads their faces
    tmp = tmp_path_factory.mktemp("darts")
    out, doc = _compile(tmp, 1, HEX_PRISM, "4reg-planar")
    return tmp, out, doc


def _field_mutants(value):
    """Every single-value change of one step field: ints by +-1, op and
    gadget names swapped, each listed vertex by +-1, nulls filled."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value - 1, value + 1]
    if value in OPS:
        return [op for op in OPS if op != value]
    if value in KINDS:
        return [kind for kind in KINDS if kind != value]
    if isinstance(value, list):
        return [value[:i] + [value[i] + d] + value[i + 1:]
                for i in range(len(value)) for d in (-1, 1)]
    if value is None:
        return [3, "R"]
    raise AssertionError(f"unexpected trace value {value!r}")


def mutants(doc):
    for new in [t for t in TARGETS if t != doc["target"]] + ["preg-ham:x", 7, None]:
        m = copy.deepcopy(doc)
        m["target"] = new
        yield f"target={new!r}", m
    for si, st in enumerate(doc["stages"]):
        for j, step in enumerate(st["steps"]):
            for field, value in step.items():
                for new in _field_mutants(value):
                    m = copy.deepcopy(doc)
                    m["stages"][si]["steps"][j][field] = new
                    yield f"stage {si} step {j} {field}={new!r}", m
        for new in _field_mutants(st["k_after"]):
            m = copy.deepcopy(doc)
            m["stages"][si]["k_after"] = new
            yield f"stage {si} k_after={new}", m
    for part in ("input", "output"):
        for field in ("n", "m", "k"):
            for new in _field_mutants(doc[part][field]):
                m = copy.deepcopy(doc)
                m[part][field] = new
                yield f"{part} {field}={new}", m
    for i, edge in enumerate(doc["input"]["edges"]):
        for new in _field_mutants(edge):
            m = copy.deepcopy(doc)
            m["input"]["edges"][i] = new
            yield f"input edge {i}={new!r}", m


def _replay(doc):
    inp = doc["input"]
    g = Graph(range(1, inp["n"] + 1), [tuple(e) for e in inp["edges"]])
    steps = [_step_from_json(st["name"], i, d) for st in doc["stages"]
             for i, d in enumerate(st["steps"])]
    g, dk, _ = replay_trace(g, steps, inp["k"], out=(doc["output"]["n"], doc["output"]["m"]))
    return g, inp["k"] + dk


def _rejected_or_harmless(artifact):
    tmp, out, doc = artifact
    expected = parse_graph(out.read_text(), k=doc["output"]["k"])
    assert _verify(tmp, out, doc) == 0
    count = 0
    for label, m in mutants(doc):
        rc = _verify(tmp, out, m)
        if rc == 0:
            g, k = _replay(m)
            assert (g.n, g.m, k) == (expected.graph.n, expected.graph.m, expected.k), label
        else:
            assert rc in (2, 4), (label, rc)
        count += 1
    return count


def test_every_single_field_mutation_is_rejected_or_harmless(c5_artifact):
    assert _rejected_or_harmless(c5_artifact) > 200


def test_every_single_field_mutation_of_a_dart_is_rejected_or_harmless(dart_artifact):
    _, _, doc = dart_artifact
    assert sum("face" in step for st in doc["stages"] for step in st["steps"]) >= 10
    assert _rejected_or_harmless(dart_artifact) > 200


def _pairing_insert(doc):
    """The pairing stage's index and its first insert's index and step."""
    si = next(i for i, st in enumerate(doc["stages"]) if st["name"] == "pairing")
    j, step = next((j, s) for j, s in enumerate(doc["stages"][si]["steps"]) if s["op"] == "insert")
    return si, j, step


def _with_dart(doc, q):
    si, j, step = _pairing_insert(doc)
    m = copy.deepcopy(doc)
    m["stages"][si]["steps"][j]["face"] = [step["face"][0], q]
    return m


def _before_pairing_insert(doc):
    """The graph that the first pairing insert edits."""
    si, j, _ = _pairing_insert(doc)
    before = copy.deepcopy(doc)
    before["stages"] = before["stages"][:si + 1]
    before["stages"][si]["steps"] = before["stages"][si]["steps"][:j]
    return _replay(before)[0]


def test_a_dart_at_a_non_neighbour_is_refused(dart_artifact, capsys):
    tmp, out, doc = dart_artifact
    u = _pairing_insert(doc)[2]["face"][0]
    g = parse_graph(out.read_text()).graph
    q = max(w for w in g.vertices if w != u and not g.has_edge(u, w))
    capsys.readouterr()
    assert _verify(tmp, out, _with_dart(doc, q)) == 4
    assert f"face dart [{u}, {q}] names no face at {u}" in capsys.readouterr().err


def test_a_dart_moves_only_within_the_faces_of_both_ends(dart_artifact, capsys):
    # every other neighbour q that u has when the insert runs names another
    # corner of u: a face that misses v fails, and one that also holds v
    # lays the gadget there and keeps the output
    tmp, out, doc = dart_artifact
    u, q0 = _pairing_insert(doc)[2]["face"]
    g = _before_pairing_insert(doc)
    rcs = {}
    for q in g.adjacency[u]:
        if q != q0:
            capsys.readouterr()
            rcs[q] = _verify(tmp, out, _with_dart(doc, q))
            if rcs[q]:
                assert "never reaches" in capsys.readouterr().err
    assert set(rcs.values()) == {0, 4}


def test_a_redundant_second_dart_is_refused(dart_artifact, tmp_path, monkeypatch, capsys):
    # pairing hands every insert both corners, (x, qx, y, qy); where the walk
    # from qx first meets y at qy's corner, the step keeps (x, qx) alone, so
    # replay derives that from a recorded 4-dart and refuses the trace
    _, out, doc = dart_artifact
    passed = []
    insert = PlaneBuilder.insert
    monkeypatch.setattr(PlaneBuilder, "insert",
                        lambda b, gd, u, v, dart=None: passed.append(dart) or insert(b, gd, u, v, dart))
    assert _compile(tmp_path, 1, HEX_PRISM, "4reg-planar")[1] == doc
    si, j, _ = _pairing_insert(doc)
    recorded = [s["face"] for s in doc["stages"][si]["steps"] if s["op"] == "insert"]
    assert len(passed) == len(recorded) and all(len(d) == 4 for d in passed)
    assert [list(d[:len(f)]) for d, f in zip(passed, recorded)] == recorded
    redundant = passed[0]
    assert len(recorded[0]) == 2
    mutant = copy.deepcopy(doc)
    mutant["stages"][si]["steps"][j]["face"] = list(redundant)
    capsys.readouterr()
    assert _verify(tmp_path, out, mutant) == 4
    assert f"replay derives {redundant[:2]!r}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def nonplanar_dart_artifact(tmp_path_factory):
    # preg-ham:5 need not be planar, so verify replays pairing's darts on a
    # Builder, which keeps no faces and checks only that they name corners
    tmp = tmp_path_factory.mktemp("nonplanar-darts")
    out, doc = _compile(tmp, 1, PRISM, "preg-ham:5")
    return tmp, out, doc


def test_a_dart_at_another_corner_keeps_a_nonplanar_output(nonplanar_dart_artifact):
    tmp, out, doc = nonplanar_dart_artifact
    assert _verify(tmp, out, doc) == 0
    u, q0 = _pairing_insert(doc)[2]["face"][:2]
    others = [q for q in _before_pairing_insert(doc).adjacency[u] if q != q0]
    assert others
    # verify passes only if the replayed graph renders as the output
    assert [_verify(tmp, out, _with_dart(doc, q)) for q in others] == [0] * len(others)


def test_a_dart_names_corners_on_a_nonplanar_target_too(nonplanar_dart_artifact, capsys):
    tmp, out, doc = nonplanar_dart_artifact
    u = _pairing_insert(doc)[2]["face"][0]
    g = _before_pairing_insert(doc)
    q = max(w for w in g.vertices if w != u and not g.has_edge(u, w))
    capsys.readouterr()
    assert _verify(tmp, out, _with_dart(doc, q)) == 4
    assert f"face dart [{u}, {q}] names no face at {u}" in capsys.readouterr().err


def test_a_junk_dart_is_refused_where_no_plane_is_kept(nonplanar_dart_artifact, capsys):
    # preg-ham:5's pairing inserts replay on a Builder
    tmp, out, doc = nonplanar_dart_artifact
    si, j, _ = _pairing_insert(doc)
    doc = copy.deepcopy(doc)
    doc["stages"][si]["steps"][j]["face"] = [999, 12345]
    capsys.readouterr()
    assert _verify(tmp, out, doc) == 4
    assert "face dart [999, 12345] names no face" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["insert", "subdivide"])
def test_a_face_on_any_step_but_a_pairing_insert_is_a_format_error(artifact, capsys, op):
    # the dart [1, 2] at degree2's first insert (attach [1, 1]) names a
    # corner of 1, which a Builder would only record, as would a subdivision
    # given its own edge; the schema gives no step but a pairing insert the key
    tmp, out, doc = artifact
    doc = copy.deepcopy(doc)
    step = next(s for st in doc["stages"] if st["name"] != "pairing"
                for s in st["steps"] if s["op"] == op)
    if op == "insert":
        assert step["attach"] == [1, 1]
    step["face"] = [1, 2] if op == "insert" else step["subdivided"]
    capsys.readouterr()
    assert _verify(tmp, out, doc) == 2
    assert "only a pairing insert has a face" in capsys.readouterr().err


@pytest.mark.parametrize("change", ["moved", "added", "dropped"])
def test_output_edge_mutants_are_rejected(artifact, capsys, change):
    # the output must be exactly the replayed graph; the changed edges stay
    # off the witness cycle, so the mutant output still parses. An added or
    # dropped edge changes m, which the trace's output summary catches
    # before any step runs
    tmp, out, doc = artifact
    inst = parse_graph(out.read_text(), k=doc["output"]["k"])
    order = inst.witness.order
    cycle = {tuple(sorted(e)) for e in zip(order, order[1:] + order[:1])}
    edges = set(inst.graph.edges)
    verts = sorted(inst.graph.vertices)
    dropped = min(edges - cycle)
    added = min((u, v) for u in verts for v in verts if u < v and (u, v) not in edges)
    if change in ("moved", "dropped"):
        edges.remove(dropped)
    if change in ("moved", "added"):
        edges.add(added)
    path = tmp / f"{change}.fvs"
    path.write_text(write_graph(Instance(Graph(inst.graph.vertices, edges), inst.k, inst.witness)))
    capsys.readouterr()
    assert _verify(tmp, path, doc) == 4
    expected = ("replayed graph differs from output graph" if change == "moved"
                else "trace output summary disagrees with the output")
    assert expected in capsys.readouterr().err


def test_zeroed_deltas_are_rejected(tmp_path, capsys):
    # the trace records no deltas, and a k_delta that a step still carries
    # is never read; the ledger comes from the ops, so zeroed stage and
    # output budgets are caught at the first stage
    out, doc = _compile(tmp_path, 0)
    assert doc["output"]["k"] == 17
    assert all("k_delta" not in step for st in doc["stages"] for step in st["steps"])
    for st in doc["stages"]:
        for step in st["steps"]:
            step["k_delta"] = 0
    assert _verify(tmp_path, out, doc) == 0
    for st in doc["stages"]:
        st["k_after"] = 0
    doc["output"]["k"] = 0
    capsys.readouterr()
    assert _verify(tmp_path, out, doc) == 4
    assert "stage degree2: ledger k=9 disagrees with recorded 0" in capsys.readouterr().err


def test_trace_keys_are_the_schema(artifact, dart_artifact):
    # only a pairing insert records the face it is laid into
    faces = 0
    for _, _, doc in (artifact, dart_artifact):
        assert set(doc) == {"target", "input", "stages", "output"}
        for st in doc["stages"]:
            assert set(st) == {"name", "steps", "k_after"}
            for step in st["steps"]:
                keys = {"op", "gadget", "p", "attach", "subdivided"}
                if st["name"] == "pairing" and step["op"] == "insert":
                    keys.add("face")
                    faces += 1
                assert set(step) == keys
    assert faces > 0


def test_the_target_decides_what_verifies(artifact, capsys):
    # a triangle's 4reg-planar-ham output is 4-regular, planar and
    # Hamiltonian, but neither 5-regular nor dense enough for the
    # degree-sum condition of p >= 4
    tmp, out, doc = artifact
    accepted = set()
    for target in TARGETS:
        capsys.readouterr()
        rc = _verify(tmp, out, dict(doc, target=target))
        assert rc in (0, 4), target
        if rc:
            err = capsys.readouterr().err
            assert f"target {target}: output " in err, err
        else:
            accepted.add(target)
    assert accepted == {"4reg-planar", "4reg-planar-ham", "preg-ham:4", "ham-ordered:3"}
    _verify(tmp, out, dict(doc, target="5reg-planar-ham"))
    assert "target 5reg-planar-ham: output is not 5-regular" in capsys.readouterr().err
    _verify(tmp, out, dict(doc, target="ham-ordered:4"))
    assert "output fails the degree-sum condition for p=4" in capsys.readouterr().err


def test_a_witness_target_needs_the_h_line(artifact, capsys):
    tmp, out, doc = artifact
    bare = tmp / "bare.fvs"
    bare.write_text("".join(ln for ln in out.read_text().splitlines(True) if ln[0] != "h"))
    assert _verify(tmp, bare, dict(doc, target="4reg-planar")) == 0
    capsys.readouterr()
    assert _verify(tmp, bare, doc) == 4
    assert ("target 4reg-planar-ham: output carries no Hamiltonian witness"
            in capsys.readouterr().err)


@pytest.mark.parametrize("target", ["absent", "preg-ham:x", "preg-ham:3", "5reg", 7, None,
                                    "preg-ham:+6", "ham-ordered:3 "])
def test_malformed_target_is_a_format_error(artifact, target):
    tmp, out, doc = artifact
    doc = dict(doc, target=target)
    if target == "absent":
        # a trace in the format that recorded per-stage claims instead
        del doc["target"]
        doc["stages"] = [dict(st, certified={"regular": 4, "planar": True}) for st in doc["stages"]]
    assert _verify(tmp, out, doc) == 2


def test_output_outside_the_target_class_is_refused(tmp_path, capsys):
    # a faithful trace of a D insert across edge 12 of K5 - e: the output
    # is planar but not 4-regular, so a 4reg-planar label does not verify
    g = Graph(range(1, 6), [(i, j) for i in range(1, 6) for j in range(i + 1, 6)
                            if (i, j) != (4, 5)])
    b = Builder(g, 0, "5regular")
    b.insert(GADGETS["D"], 1, 2)
    out = Instance(b.freeze(), b.k)
    stage = StageResult("5regular", out, tuple(b.steps))
    path = tmp_path / "out.fvs"
    path.write_text(write_graph(out))
    trace = trace_to_json(PipelineResult(Instance(g, 0), (stage,), out, "4reg-planar"))
    capsys.readouterr()
    assert _verify(tmp_path, path, trace) == 4
    assert "target 4reg-planar: output is not 4-regular" in capsys.readouterr().err


def _first_insert(doc):
    for st in doc["stages"]:
        for step in st["steps"]:
            if step["op"] == "insert":
                return step
    raise AssertionError("no insert step")


class TestMalformedTraces:
    def test_not_json(self, artifact):
        tmp, out, _ = artifact
        assert _verify(tmp, out, "{ not json") == 2

    def test_unknown_gadget(self, artifact):
        tmp, out, doc = artifact
        doc = copy.deepcopy(doc)
        _first_insert(doc)["gadget"] = "Q"
        assert _verify(tmp, out, doc) == 4

    def test_step_without_op(self, artifact):
        tmp, out, doc = artifact
        doc = copy.deepcopy(doc)
        del doc["stages"][0]["steps"][0]["op"]
        assert _verify(tmp, out, doc) == 2

    def test_absent_attachment_vertex(self, artifact):
        tmp, out, doc = artifact
        doc = copy.deepcopy(doc)
        _first_insert(doc)["attach"] = [10_000, 10_000]
        assert _verify(tmp, out, doc) == 4

    def test_oversized_y(self, artifact):
        tmp, out, doc = artifact
        doc = copy.deepcopy(doc)
        step = _first_insert(doc)
        step["gadget"], step["p"] = "Y", 10**9
        assert _verify(tmp, out, doc) == 4

    @pytest.mark.parametrize("k", [-1, "29", None])
    def test_output_budget_not_a_non_negative_integer(self, artifact, k):
        tmp, out, doc = artifact
        assert _verify(tmp, out, dict(doc, output=dict(doc["output"], k=k))) == 2

    @pytest.mark.parametrize("change, field", [
        ({"edges": [[True, 2], [1.0, 3], [2, 3.0]]}, "end of input edge 0"),
        ({"edges": [[1, 2], [1.0, 3], [2, 3]]}, "end of input edge 1"),
        ({"edges": [[1, 2], [1, 3], [2, 3], [2, 1]]}, "input edges must be distinct"),
        ({"edges": [[1, 2], [1, 3], [2, 3], [1, 2]]}, "input edges must be distinct"),
        ({"k": -1}, "input k must be a non-negative integer"),
        ({"n": -5, "m": 0, "edges": []}, "input n must be a non-negative integer"),
    ], ids=["bool-and-float-ends", "float-end", "reversed-repeat", "repeat", "negative-k",
            "negative-n"])
    def test_input_not_a_simple_graph_of_non_negative_integers(self, planar_artifact, capsys,
                                                               change, field):
        # each of these verified (exit 0), or failed replay (exit 4) with
        # n = -5, before every integer of a trace got the one check; the
        # negative k comes with every later budget lowered by 2 to match
        tmp, out, doc = planar_artifact
        doc = copy.deepcopy(doc)
        doc["input"].update(change)
        if "k" in change:
            for st in doc["stages"]:
                st["k_after"] -= 2
            doc["output"]["k"] -= 2
        capsys.readouterr()
        assert _verify(tmp, out, doc) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["stages", "stage pairing steps", "input edges"])
    def test_object_where_the_schema_has_a_list(self, planar_artifact, capsys, field):
        # the pairing stage has no steps, so an empty object in its place
        # verified (exit 0); the empty stages, or no edges with m 0, failed
        # replay (exit 4)
        tmp, out, doc = planar_artifact
        doc = copy.deepcopy(doc)
        if field == "stages":
            doc["stages"] = {}
        elif field == "input edges":
            doc["input"].update(edges={}, m=0)
        else:
            pairing, = (st for st in doc["stages"] if st["name"] == "pairing")
            assert pairing["steps"] == []
            pairing["steps"] = {}
        capsys.readouterr()
        assert _verify(tmp, out, doc) == 2
        assert f"trace JSON: {field} must be a list" in capsys.readouterr().err

    def test_trace_not_an_object(self, artifact):
        tmp, out, _ = artifact
        assert _verify(tmp, out, "[1, 2]") == 2

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_input_m_disagrees_with_edges(self, artifact, capsys, delta):
        tmp, out, doc = artifact
        doc = copy.deepcopy(doc)
        doc["input"]["m"] += delta
        capsys.readouterr()
        assert _verify(tmp, out, doc) == 2
        assert "input m disagrees with its 3 edges" in capsys.readouterr().err

    def test_y_gadget_beyond_the_output_is_never_built(self, artifact, monkeypatch, capsys):
        # a Y_10 in place of the last insert fits the graph (p < n) but not
        # the output: its 22 vertices and 122 edges are refused before
        # build_gadget runs
        tmp, out, doc = artifact
        doc = copy.deepcopy(doc)
        stage = max(i for i, st in enumerate(doc["stages"])
                    if any(s["op"] == "insert" for s in st["steps"]))
        steps = doc["stages"][stage]["steps"]
        j = max(i for i, s in enumerate(steps) if s["op"] == "insert")
        steps[j]["gadget"], steps[j]["p"] = "Y", 10
        built = []
        monkeypatch.setattr(pipeline, "build_gadget", lambda *a: built.append(a))
        capsys.readouterr()
        assert _verify(tmp, out, doc) == 4
        err = capsys.readouterr().err
        assert f"step {j}: insert would grow the graph" in err and "beyond the output's" in err
        assert built == []


@pytest.mark.parametrize("extra", [1, 3])
def test_extra_lifts_stop_at_declared_size(tmp_path, monkeypatch, capsys, extra):
    # consistent extra lift steps grow the graph 4x each with a K_3n join;
    # replay must refuse the first one before building it
    inp, out, tr = tmp_path / "in.fvs", tmp_path / "out.fvs", tmp_path / "trace.json"
    inp.write_text(TRIANGLE)
    assert main(["reduce", str(inp), "--target", "ham-ordered:4",
                 "-o", str(out), "--trace", str(tr)]) == 0
    doc = json.loads(tr.read_text())
    n = doc["output"]["n"]
    assert n == 14
    stage = doc["stages"][-1]
    for _ in range(extra):
        stage["steps"].append(dict(stage["steps"][-1]))
        stage["k_after"] += 3 * n
        n = 4 * n + 2
    sizes = []
    lift = Builder.lift

    def spy(self):
        result = lift(self)
        sizes.append(self.n)
        return result

    monkeypatch.setattr(Builder, "lift", spy)
    capsys.readouterr()
    assert _verify(tmp_path, out, doc) == 4
    assert "stage lift step 1" in capsys.readouterr().err
    assert max(sizes) == 14


def test_a_trace_without_stages_is_certified_too(tmp_path, capsys):
    # K5 is 4-regular but not planar; with no stage, the planarity
    # failure names the input
    g = Graph(range(1, 6), [(i, j) for i in range(1, 6) for j in range(i + 1, 6)])
    path = tmp_path / "out.fvs"
    path.write_text(write_graph(Instance(g, 0)))
    trace = trace_to_json(PipelineResult(Instance(g, 0), (), Instance(g, 0), "4reg-planar"))
    assert _verify(tmp_path, path, dict(trace, target="preg-ham:4")) == 4
    capsys.readouterr()
    assert _verify(tmp_path, path, trace) == 4
    assert ("target 4reg-planar: stage input: planarity claim fails"
            in capsys.readouterr().err)


def _k5_or_k5_minus_e(base):
    return Graph(range(1, 6), [(i, j) for i in range(1, 6) for j in range(i + 1, 6)
                               if base == "K5" or (i, j) != (4, 5)])


def _proof_of_one_stage(name, g, b):
    """What verify exits with when the planarity proof of a planar target
    decides the output of one stage, b's steps on g."""
    out = b.freeze()
    try:
        _, _, plane = replay_stages("4reg-planar", g, 0, [(name, tuple(b.steps), b.k)],
                                    (out.n, out.m))
    except CertificationError:
        return 4
    return 4 if plane.failed() else 0


# rc: what verify exits with when this proof decides a planar target's output

@pytest.mark.parametrize("base, attach, rc", [
    ("K5-e", (4, 5), 4),  # not an edge: the output holds a K5 subdivision
    ("K5-e", (1, 2), 0),  # a 2-sum along an edge keeps planarity
    ("K5", (1, 2), 4),  # the LR test of the input fails
])
def test_planar_claim_over_one_d_insert(base, attach, rc):
    # one stage whose only step inserts a D gadget
    g = _k5_or_k5_minus_e(base)
    b = Builder(g, 0, "5regular")
    b.insert(GADGETS["D"], *attach)
    assert _proof_of_one_stage("5regular", g, b) == rc


@pytest.mark.parametrize("base, attach, rc", [
    ("K5-e", (4, 5), 4),  # 4 and 5 share no face: the output holds a K5 subdivision
    ("K5-e", (6, 4), 0),  # the subdivision vertex and 4 share a face
    ("K5", (6, 4), 4),  # the LR test of the input fails
])
def test_planar_claim_over_subdivide_and_r_insert(base, attach, rc):
    # one stage that subdivides edge 12 into vertex 6 and then inserts an R
    # gadget between two vertices
    g = _k5_or_k5_minus_e(base)
    b = Builder(g, 0, "pairing")
    b.subdivide((1, 2))
    b.insert(GADGETS["R"], *attach)
    assert _proof_of_one_stage("pairing", g, b) == rc


def _four_lifts(tmp_path):
    """A triangle's ham-ordered:4 output and its trace with three more
    consistent lifts, which would replay to 938 vertices and about 650 000
    edges."""
    inp, out, tr = tmp_path / "in.fvs", tmp_path / "out.fvs", tmp_path / "trace.json"
    inp.write_text(TRIANGLE)
    assert main(["reduce", str(inp), "--target", "ham-ordered:4",
                 "-o", str(out), "--trace", str(tr)]) == 0
    doc = json.loads(tr.read_text())
    stage = doc["stages"][-1]
    n = 4 * 3 + 2
    for _ in range(3):
        stage["steps"].append(dict(stage["steps"][-1]))
        stage["k_after"] += 3 * n
        n = 4 * n + 2
    assert n == 938
    return out, doc


def test_padded_output_stops_replay_at_first_lift(tmp_path, monkeypatch, capsys):
    # a triangle padded with isolated vertices to p fvs 1000 3, and a trace
    # whose summary matches it: the first lift's K_9 join alone outgrows
    # the output's 3 edges, so no lift runs
    out, doc = _four_lifts(tmp_path)
    doc["output"] = {"n": 1000, "m": 3, "k": doc["stages"][-1]["k_after"]}
    out.write_text(TRIANGLE.replace("p fvs 3 3", "p fvs 1000 3"))
    lifted = []
    monkeypatch.setattr(Builder, "lift", lambda self: lifted.append(self.n))
    capsys.readouterr()
    assert _verify(tmp_path, out, doc) == 4
    err = capsys.readouterr().err
    assert "stage lift step 0: lift would grow the graph to 14 vertices and 85 edges" in err
    assert lifted == []


@pytest.mark.parametrize("n", [3, 1000])
def test_unbacked_edge_count_is_refused_before_replay(tmp_path, monkeypatch, capsys, n):
    # the header over-announces m, so its edge lines do not back it: the
    # output is parsed, and refused, before the trace's lifts could take
    # that m as their bound (with n = 1000 they would all fit under it)
    out, doc = _four_lifts(tmp_path)
    doc["output"] = {"n": n, "m": 1_000_000, "k": doc["stages"][-1]["k_after"]}
    out.write_text(TRIANGLE.replace("p fvs 3 3", f"p fvs {n} 1000000"))
    lifted = []
    monkeypatch.setattr(Builder, "lift", lambda self: lifted.append(self.n))
    capsys.readouterr()
    assert _verify(tmp_path, out, doc) == 2
    assert capsys.readouterr().err == "format error: header announces 1000000 edges, found 3\n"
    assert lifted == []
