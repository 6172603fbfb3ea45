"""Tampered traces: `fvskit verify` must reject every single-field mutation
of a valid trace with exit 2 (format) or 4 (certification), or else the
mutant must replay to the identical output. It must never trust a recorded
budget delta, and never end in a traceback."""

import copy
import json

import pytest

from fvskit import pipeline
from fvskit.cli import main
from fvskit.graph import Builder, Graph, Instance, TraceStep
from fvskit.pipeline import GADGETS, ClassCertificate, PipelineResult, StageResult, replay_trace
from fvskit.textio import parse_graph, trace_to_json, write_graph

TRIANGLE = "p fvs 3 3\ne 1 2\ne 2 3\ne 1 3\n"
OPS = ("subdivide", "insert", "copy", "lift", "strip")
KINDS = ("R", "L", "D", "Y")


def _compile(tmp_path, k):
    inp = tmp_path / "in.fvs"
    inp.write_text(TRIANGLE)
    out, tr = tmp_path / "out.fvs", tmp_path / "trace.json"
    assert main(["reduce", str(inp), "--target", "4reg-planar-ham", "--k", str(k),
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
    steps = [TraceStep.from_json(st["name"], d) for st in doc["stages"] for d in st["steps"]]
    g, dk = replay_trace(g, steps, inp["k"], out=(doc["output"]["n"], doc["output"]["m"]))
    return g, inp["k"] + dk


def test_every_single_field_mutation_is_rejected_or_harmless(artifact):
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
    assert count > 200


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
    # the ledger must come from the ops: a trace whose insert deltas, stage
    # budgets and output budget are all zeroed still replays to the same
    # graph, so only a derived ledger can catch it
    out, doc = _compile(tmp_path, 0)
    assert doc["output"]["k"] == 29
    for st in doc["stages"]:
        for step in st["steps"]:
            if step["op"] == "insert":
                step["k_delta"] = 0
        st["k_after"] = 0
    doc["output"]["k"] = 0
    capsys.readouterr()
    assert _verify(tmp_path, out, doc) == 4
    err = capsys.readouterr().err
    assert "stage degree2 step 0" in err and "k_delta recorded 0, replay derives 3" in err


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
        stage["steps"].append(dict(stage["steps"][-1], k_delta=3 * n))
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


@pytest.mark.parametrize("base, attach, rc", [
    ("K5-e", (4, 5), 4),  # not an edge: the output holds a K5 subdivision
    ("K5-e", (1, 2), 0),  # a 2-sum along an edge keeps planarity
    ("K5", (1, 2), 4),  # a 2-sum cannot make a nonplanar base planar
])
def test_planar_claim_over_one_d_insert(tmp_path, capsys, base, attach, rc):
    # hand-made one-stage traces whose only step inserts a D gadget and
    # whose stage claims a planar output
    g = Graph(range(1, 6), [(i, j) for i in range(1, 6) for j in range(i + 1, 6)
                            if base == "K5" or (i, j) != (4, 5)])
    b = Builder(g, 0, "5regular")
    b.insert(GADGETS["D"], *attach)
    out = Instance(b.freeze(), b.k)
    stage = StageResult("5regular", out, tuple(b.steps), ClassCertificate(None, True, False, False))
    path = tmp_path / "out.fvs"
    path.write_text(write_graph(out))
    capsys.readouterr()
    assert _verify(tmp_path, path, trace_to_json(PipelineResult(Instance(g, 0), (stage,), out))) == rc
    if rc:
        assert "stage 5regular: planarity claim fails" in capsys.readouterr().err


@pytest.mark.parametrize("base, attach, rc", [
    ("K5-e", (4, 5), 4),  # 4 and 5 share no face: the output holds a K5 subdivision
    ("K5-e", (6, 4), 0),  # the subdivision vertex and 4 share a face
    ("K5", (6, 4), 4),  # a nonplanar input fails by the minor rule
])
def test_planar_claim_over_subdivide_and_r_insert(tmp_path, capsys, base, attach, rc):
    # hand-made one-stage traces that subdivide edge 12 into vertex 6 and
    # then insert an R gadget between two vertices
    g = Graph(range(1, 6), [(i, j) for i in range(1, 6) for j in range(i + 1, 6)
                            if base == "K5" or (i, j) != (4, 5)])
    b = Builder(g, 0, "pairing")
    b.subdivide((1, 2))
    b.insert(GADGETS["R"], *attach)
    out = Instance(b.freeze(), b.k)
    stage = StageResult("pairing", out, tuple(b.steps), ClassCertificate(None, True, False, False))
    path = tmp_path / "out.fvs"
    path.write_text(write_graph(out))
    capsys.readouterr()
    assert _verify(tmp_path, path, trace_to_json(PipelineResult(Instance(g, 0), (stage,), out))) == rc
    if rc:
        assert "stage pairing: planarity claim fails" in capsys.readouterr().err


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
        stage["steps"].append(dict(stage["steps"][-1], k_delta=3 * n))
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
