import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx
import pytest

import fvskit
from fvskit.gadgets import build_gadget
from fvskit.graph import (
    GadgetPlane,
    Graph,
    GraphError,
    HamCycleWitness,
    Instance,
    PlaneBuilder,
    TraceStep,
    check_regular,
    faces,
    regularity,
)
from fvskit.pipeline import (
    GADGETS,
    CertificationError,
    ClassCertificate,
    MergeState,
    PipelineError,
    StageResult,
    TwoFactor,
    compute_two_factor,
    eliminate_degree_two,
    evenize,
    five_regularize,
    ham_ordered_lift,
    hamiltonize,
    merge_step,
    p_regularize,
    pair_degree_three,
    parse_target,
    replay_trace,
    run_pipeline,
)
from fvskit.solvers import check_ore_condition, check_planarity, find_hamiltonian_cycle
from fvskit.cli import main
from fvskit.textio import parse_graph, trace_to_json, verify_trace, write_graph

from conftest import (
    DUMBBELL,
    RINGS,
    complete_graph,
    cube_graph,
    cycle_graph,
    grid_graph,
    medial_graph,
    octahedron_graph,
    odd_4regular_planar_ham,
    prism_graph,
)

# The small inputs on which each stage's output is pinned. The stages do not
# check their own outputs, so these tests are what pins their formulas.
STAGE_INPUTS = {"triangle": lambda: cycle_graph(3), "C4": lambda: cycle_graph(4),
                "prism": prism_graph, "grid3x3": lambda: grid_graph(3, 3)}


def _hamiltonized(make):
    """The hamiltonize stage's result on make()'s compiled pairing output."""
    sr = pair_degree_three(eliminate_degree_two(Instance(make(), 1)).instance)
    return hamiltonize(sr.instance, sr.rotation)


class TestDegreeTwo:
    def test_triangle(self):
        sr = eliminate_degree_two(Instance(cycle_graph(3), 1))
        assert sr.instance.graph.n == 24
        assert sr.instance.k == 10
        assert check_regular(sr.instance.graph, 4)
        assert len(sr.steps) == 3
        assert all(s.gadget == "R" and s.attach[0] == s.attach[1] for s in sr.steps)
        for make in STAGE_INPUTS.values():
            g = eliminate_degree_two(Instance(make(), 1)).instance.graph
            assert {g.degree(v) for v in g.vertices} <= {3, 4}

    def test_square(self):
        sr = eliminate_degree_two(Instance(cycle_graph(4), 1))
        assert sr.instance.graph.n == 32 and sr.instance.k == 13

    def test_noop_on_4regular(self):
        sr = eliminate_degree_two(Instance(octahedron_graph(), 5))
        assert sr.steps == () and sr.instance.k == 5

    def test_rejects_disconnected(self):
        g = Graph.from_edges([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        with pytest.raises(PipelineError, match="connected"):
            eliminate_degree_two(Instance(g, 0))

    def test_rejects_nonplanar(self):
        # degree2 runs no LR test: the run's one test, in pairing, refuses K5
        assert eliminate_degree_two(Instance(complete_graph(5), 0)).steps == ()
        with pytest.raises(PipelineError, match="planar graph required"):
            run_pipeline(Instance(complete_graph(5), 0), "4reg-planar")

    def test_rejects_high_degree(self):
        hub = [(0, i) for i in range(1, 6)]
        rim = [(i, i % 5 + 1) for i in range(1, 6)]
        with pytest.raises(PipelineError, match="need 2..4"):
            eliminate_degree_two(Instance(Graph.from_edges(hub + rim), 0))


class TestPairing:
    def test_noop_on_4regular(self):
        sr = pair_degree_three(Instance(octahedron_graph(), 3))
        assert sr.steps == () and sr.instance.k == 3
        assert sr.audit.pairs == ()

    def test_cube(self):
        sr = pair_degree_three(Instance(cube_graph(), 2))
        g = sr.instance.graph
        assert check_regular(g, 4)
        assert check_planarity(g)[0]
        assert len(sr.audit.pairs) == 4
        inserts = [s for s in sr.steps if s.op == "insert"]
        assert sr.instance.k == 2 + 3 * len(inserts)
        for d in sr.audit.dissolution_vertices:
            assert g.degree(d) == 4
        for make in STAGE_INPUTS.values():
            assert check_regular(_pairing_output(make()), 4)

    def test_octahedron_minus_edge(self):
        octa = octahedron_graph()
        g = Graph(octa.vertices, octa.edges - {(1, 2)})
        sr = pair_degree_three(Instance(g, 3))
        assert check_regular(sr.instance.graph, 4)
        assert sr.audit.pairs != ()

    def test_route_audit_geometry(self):
        # the cube's dual tree crosses two edges: each route runs from a
        # degree-3 vertex through subdivision vertices, one R gadget per
        # link, and the derived drawing puts each subdivision vertex at its
        # edge's midpoint
        sr = pair_degree_three(Instance(cube_graph(), 0))
        audit = sr.audit
        assert len(audit.dissolution_vertices) == len(audit.subdivided) == 2
        assert audit.pairs == tuple((r[0], r[-1]) for r in audit.routes)
        assert sorted(v for r in audit.routes for v in r[1:-1]) == \
            sorted(audit.dissolution_vertices)
        links = sorted(tuple(sorted(s.attach)) for s in sr.steps if s.op == "insert")
        assert links == sorted(tuple(sorted(e)) for r in audit.routes for e in zip(r, r[1:]))
        assert audit.crossings == ()
        coords = audit.coords_after
        assert coords.keys() == {*audit.embedding.coords, *audit.dissolution_vertices}
        assert all(coords[v] == p for v, p in audit.embedding.coords.items())
        for w, (u, v) in zip(audit.dissolution_vertices, audit.subdivided):
            assert 2 * coords[w][0] == coords[u][0] + coords[v][0]
            assert 2 * coords[w][1] == coords[u][1] + coords[v][1]
            assert {(u, w), (v, w)} <= set(audit.drawn_edges_after)
            assert (u, v) not in audit.drawn_edges_after

    def test_rejects_low_degree(self):
        with pytest.raises(PipelineError, match="need 3..4"):
            pair_degree_three(Instance(cycle_graph(5), 0))

    def test_one_stopped_face_walk_per_insert(self, monkeypatch):
        # each insert walks its face from x's corner once, both to find y's
        # corner and to tell whether the step must name it
        import fvskit.graph as graph

        stops, walk = [], graph._face_walk

        def spy(rot, d, stop=None, then=None):
            if stop is not None:
                stops.append(d)
            return walk(rot, d, stop, then)

        monkeypatch.setattr(graph, "_face_walk", spy)
        sr = pair_degree_three(eliminate_degree_two(Instance(grid_graph(8, 8), 1)).instance)
        assert len(stops) == sum(s.op == "insert" for s in sr.steps) == 12

    @pytest.mark.parametrize("edges, darts_at_y", [(DUMBBELL, 1), (RINGS, 2)],
                             ids=["dumbbell", "rings"])
    def test_routes_across_bridges(self, edges, darts_at_y):
        # where a bridge gives y two corners on the pair's face, the insert
        # names y's corner by a second dart, so the chord joins the points
        # that the T-join paired and the closing walk passes
        res = run_pipeline(Instance(Graph.from_edges(edges), 1), "4reg-planar")
        pairing = next(sr for sr in res.stages if sr.name == "pairing")
        faces(pairing.instance.graph, pairing.rotation)
        assert sum(len(s.face) == 4 for s in pairing.steps if s.face) == darts_at_y
        verify_trace(write_graph(res.instance), trace_to_json(res))


class TestTwoFactor:
    def test_k5(self):
        tf = compute_two_factor(complete_graph(5))
        assert tf.validate(complete_graph(5))
        assert sum(len(c) for c in tf.components) == 5

    def test_octahedron(self):
        tf = compute_two_factor(octahedron_graph())
        assert sorted(len(c) for c in tf.components) in ([3, 3], [6])

    def test_rejects_nonregular(self):
        with pytest.raises(PipelineError, match="4-regular"):
            compute_two_factor(cube_graph())

    def test_rejects_disconnected(self):
        a = complete_graph(5)
        b = Graph.from_edges(
            [(i + 10, j + 10) for i in range(1, 5) for j in range(i + 1, 6)]
        )
        g = Graph(set(a.vertices) | set(b.vertices), set(a.edges) | set(b.edges))
        with pytest.raises(PipelineError, match="connected required"):
            compute_two_factor(g)

    def test_validate_rejects_nonspanning(self):
        with pytest.raises(PipelineError, match="span"):
            TwoFactor(((1, 2, 3),)).validate(octahedron_graph())

    @pytest.mark.parametrize("make, cycles", [
        (lambda: grid_graph(5, 5), 13),
        (prism_graph, 6),
        (lambda: cycle_graph(3), 3),
    ], ids=["grid5x5", "prism", "C3"])
    def test_few_cycles_on_the_bench_pairing_outputs(self, make, cycles):
        # an arbitrary perfect matching of the out/in graph left 34, 18 and 6
        tf = compute_two_factor(_pairing_output(make()))
        assert len(tf.components) <= cycles

    def test_calls_no_networkx(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("networkx called")

        g = _pairing_output(grid_graph(5, 5))
        monkeypatch.setattr(networkx, "eulerian_circuit", refuse)
        monkeypatch.setattr(networkx.bipartite, "hopcroft_karp_matching", refuse)
        assert compute_two_factor(g).validate(g)

    def test_same_components_whatever_the_hash_seed(self):
        edges = sorted(_pairing_output(grid_graph(5, 5)).edges)
        script = ("from fvskit.graph import Graph\n"
                  "from fvskit.pipeline import compute_two_factor\n"
                  f"print(compute_two_factor(Graph.from_edges({edges})).components)\n")
        src = str(Path(fvskit.__file__).resolve().parents[1])
        runs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               check=True, env={**os.environ, "PYTHONPATH": src,
                                                "PYTHONHASHSEED": seed}).stdout
                for seed in ("0", "4242")]
        assert runs[0] == runs[1] and runs[0].startswith("((")


def _pairing_output(g):
    return pair_degree_three(eliminate_degree_two(Instance(g, 1)).instance).instance.graph


def _rotation(g):
    return check_planarity(g)[1]


PRISM_MEDIAL_TWO_CYCLES = TwoFactor(((1, 5, 4, 6, 2), (3, 7, 9, 8)))


class TestMerge:
    def test_case1_on_prism_medial(self):
        # compute_two_factor finds a Hamiltonian cycle here, so the merge
        # starts from a two-cycle 2-factor given by hand
        g = medial_graph(prism_graph())
        inst = Instance(g, 3)
        tf = PRISM_MEDIAL_TWO_CYCLES
        tf.validate(g)
        state = MergeState(inst, tf, _rotation(g))
        _u, _v, steps, case = merge_step(state)
        out = state.builder.freeze()
        assert case == 1
        assert state.builder.k == 3 + 4  # one bridging L gadget
        assert len(state.members) == 1
        assert HamCycleWitness(state.cycle()).is_valid_for(out)
        assert check_regular(out, 4)
        assert check_planarity(out)[0]

    def test_case2_on_octahedron(self):
        inst = Instance(octahedron_graph(), 3)
        tf = TwoFactor(((1, 2, 3), (4, 5, 6)))
        tf.validate(inst.graph)
        state = MergeState(inst, tf, _rotation(inst.graph))
        _u, _v, steps, case = merge_step(state)
        out = state.builder.freeze()
        assert case == 2
        assert state.builder.k == 3 + 8  # the spare edge threads through two L gadgets
        assert len(state.members) == 1
        assert HamCycleWitness(state.cycle()).is_valid_for(out)
        assert check_regular(out, 4)
        assert check_planarity(out)[0]

    def test_single_cycle_rejected(self):
        g = octahedron_graph()
        w = find_hamiltonian_cycle(g)
        with pytest.raises(PipelineError, match="already Hamiltonian"):
            merge_step(MergeState(Instance(g, 0), TwoFactor((w.order,)), _rotation(g)))


class TestHamiltonize:
    def test_c3_derived(self):
        inst = eliminate_degree_two(Instance(cycle_graph(3), 1)).instance
        sr = hamiltonize(inst, _rotation(inst.graph))
        out = sr.instance
        assert out.witness is not None and out.witness.is_valid_for(out.graph)
        assert check_regular(out.graph, 4)
        assert check_planarity(out.graph)[0]
        assert sr.audit <= inst.graph.n // 3
        merges = sum(1 for s in sr.steps if s.op == "insert")
        assert out.k >= inst.k + 4 * sr.audit  # case 2 merges cost double
        for make in STAGE_INPUTS.values():
            out = _hamiltonized(make).instance
            assert check_regular(out.graph, 4) and out.witness.is_valid_for(out.graph)

    def test_starts_from_the_carried_rotation(self, monkeypatch):
        # every merge edits one embedding in place, started from the
        # rotation pairing kept: hamiltonize runs no LR test of its own
        pairing = pair_degree_three(eliminate_degree_two(Instance(grid_graph(3, 4), 1)).instance)
        calls = []
        real = networkx.check_planarity
        monkeypatch.setattr(networkx, "check_planarity", lambda G: calls.append(G) or real(G))
        sr = hamiltonize(pairing.instance, pairing.rotation)
        assert sr.audit >= 3 and calls == []
        faces(sr.instance.graph, sr.rotation)

    def test_misspliced_embedding_is_rejected(self, monkeypatch):
        # L's neighbours of x spliced in reverse misfile faces, so merges
        # leave a rotation that is not a plane embedding; the closing face
        # walk of the run must then refuse the output
        import fvskit.pipeline as pipeline

        L = pipeline.GADGETS["L"]
        rot = dict(pipeline.check_planarity(
            Graph(L.graph.vertices, [*L.graph.edges, (L.x, L.y)]))[1])
        rot[L.x] = tuple(reversed(rot[L.x]))
        bad = dataclasses.replace(L, plane=GadgetPlane(rot, L.x, L.y))
        monkeypatch.setattr(pipeline, "_L", bad)
        monkeypatch.setitem(pipeline.GADGETS, "L", bad)
        with pytest.raises(CertificationError,
                           match="stage hamiltonize: planarity claim fails"):
            run_pipeline(Instance(grid_graph(3, 4), 0), "4reg-planar-ham")

    def test_deterministic(self):
        inst = eliminate_degree_two(Instance(cycle_graph(3), 1)).instance
        a = hamiltonize(inst, _rotation(inst.graph)).instance
        b = hamiltonize(inst, _rotation(inst.graph)).instance
        assert a.graph == b.graph and a.k == b.k and a.witness == b.witness

    @pytest.mark.parametrize("size", [5, 6, 8])
    def test_fewer_merges_on_relabelled_grids(self, size):
        # (merges, output n) of 4reg-planar-ham on the size x size grid, its
        # ids as built and shuffled by seeds 1..8, when the 2-factor came
        # from an arbitrary perfect matching of the out/in graph
        before = {
            5: [(33, 571), (48, 823), (51, 907), (30, 527), (51, 875), (50, 863), (62, 1063),
                (56, 959), (72, 1191)],
            6: [(49, 852), (42, 720), (64, 1072), (50, 848), (59, 1012), (38, 656), (71, 1228),
                (40, 680), (90, 1568)],
            8: [(98, 1720), (90, 1544), (55, 1004), (130, 2232), (67, 1124), (95, 1660),
                (93, 1572), (74, 1304), (80, 1384)],
        }[size]
        g = grid_graph(size, size)
        for seed, (merges, n_out) in enumerate(before):
            ids = list(range(1, g.n + 1))
            if seed:
                random.Random(seed).shuffle(ids)
            h = Graph.from_edges([(ids[u - 1], ids[v - 1]) for u, v in g.edges])
            res = run_pipeline(Instance(h, 1), "4reg-planar-ham")
            sr = next(sr for sr in res.stages if sr.name == "hamiltonize")
            assert sr.audit < merges and res.instance.graph.n <= n_out, seed


def _merge_state(name):
    if name == "octahedron":
        g = octahedron_graph()
        return MergeState(Instance(g, 0), TwoFactor(((1, 2, 3), (4, 5, 6))), _rotation(g))
    if name == "prism-medial":
        g = medial_graph(prism_graph())
        return MergeState(Instance(g, 0), PRISM_MEDIAL_TWO_CYCLES, _rotation(g))
    g = _pairing_output(grid_graph(3, 4) if name == "grid3x4" else cycle_graph(3))
    return MergeState(Instance(g, 0), compute_two_factor(g), _rotation(g))


class TestPlaneEmbedding:
    @pytest.mark.parametrize("name", ["grid3x4", "prism-medial", "octahedron", "C3"])
    def test_face_index_matches_face_walks(self, name):
        # the maintained face index is an oracle-checked partition of the
        # darts: faces() walks the maintained rotation from scratch
        state = _merge_state(name)
        b = state.builder
        merges = 0
        while len(state.members) > 1:
            merge_step(state)
            merges += 1
            walks = faces(b.freeze(), b.rotation)
            assert len(walks) == b.n_faces
            walked = {frozenset(zip(w, w[1:] + w[:1])) for w in walks}
            indexed = {}
            for d, f in b.face.items():
                indexed.setdefault(f, set()).add(d)
            assert walked == {frozenset(ds) for ds in indexed.values()}
        assert merges >= 1

    def test_swapped_rotation_fails_euler(self):
        # the constructor walks the rotation's faces and counts V - E + F
        state = _merge_state("octahedron")
        merge_step(state)
        b = state.builder
        for g, rot in ((octahedron_graph(), check_planarity(octahedron_graph())[1]),
                       (b.freeze(), b.rotation)):
            PlaneBuilder(g, rot)
            bad = dict(rot)
            first, second, *rest = rot[1]
            bad[1] = (second, first, *rest)
            with pytest.raises(GraphError, match="not a planar embedding"):
                PlaneBuilder(g, bad)


class TestEvenize:
    def test_identity_on_even(self):
        g = octahedron_graph()
        inst = Instance(g, 2, find_hamiltonian_cycle(g))
        sr = evenize(inst, _rotation(g))
        # _finish builds the result: an equal instance, not the same object
        assert sr.instance == inst and sr.steps == ()

    def test_odd_fixture(self):
        g, w = odd_4regular_planar_ham()
        assert g.n % 2 == 1
        # and the odd hamiltonize outputs of prism and grid 3x3
        odd = [(Instance(g, 3, w), _rotation(g))]
        odd += [(sr.instance, sr.rotation)
                for sr in (_hamiltonized(STAGE_INPUTS[name]) for name in ("prism", "grid3x3"))]
        for inst, rotation in odd:
            assert inst.graph.n % 2 == 1
            sr = evenize(inst, rotation)
            out = sr.instance
            assert out.graph.n == 2 * inst.graph.n + 24
            assert out.k == 2 * inst.k + 8
            assert check_regular(out.graph, 4)
            assert out.witness.is_valid_for(out.graph)
            assert out.graph.n % 2 == 0
            # the copy and the L that joins its halves keep the embedding plane
            faces(out.graph, sr.rotation)

    def test_requires_witness(self):
        with pytest.raises(PipelineError, match="witness required"):
            evenize(Instance(octahedron_graph(), 0), _rotation(octahedron_graph()))


class TestFiveRegularize:
    def test_octahedron(self):
        g = octahedron_graph()
        # and the even hamiltonize outputs of triangle and C4, and prism's evenized
        even = [Instance(g, 2, find_hamiltonian_cycle(g))]
        even += [_hamiltonized(STAGE_INPUTS[name]).instance for name in ("triangle", "C4")]
        prism = _hamiltonized(prism_graph)
        even.append(evenize(prism.instance, prism.rotation).instance)
        for inst in even:
            out = five_regularize(inst).instance
            assert out.graph.n == 7 * inst.graph.n
            assert out.k == inst.k + 3 * inst.graph.n
            assert check_regular(out.graph, 5)
            assert check_planarity(out.graph)[0]
            assert out.witness.is_valid_for(out.graph)

    def test_odd_rejected(self):
        g, w = odd_4regular_planar_ham()
        with pytest.raises(PipelineError, match="evenize first"):
            five_regularize(Instance(g, 0, w))


class TestPRegularize:
    def test_one_round(self):
        g = octahedron_graph()
        octahedron = five_regularize(Instance(g, 2, find_hamiltonian_cycle(g))).instance
        triangle = five_regularize(_hamiltonized(STAGE_INPUTS["triangle"]).instance).instance
        # a Y_r round multiplies n by r + 2, costs 2r - 2 per witness pair and
        # raises the regularity from r to r + 1: octahedron's two rounds, triangle's one
        for base, rounds in ((octahedron, 2), (triangle, 1)):
            for r in range(5, 5 + rounds):
                out = p_regularize(base, r + 1).instance
                assert out.graph.n == base.graph.n * (r + 2)
                assert out.k == base.k + (base.graph.n // 2) * (2 * r - 2)
                assert check_regular(out.graph, r + 1)
                assert out.witness.is_valid_for(out.graph)
                base = out

    def test_identity_at_target(self):
        g = octahedron_graph()
        base = five_regularize(Instance(g, 2, find_hamiltonian_cycle(g))).instance
        sr = p_regularize(base, 5)
        assert sr.steps == () and sr.instance.k == base.k

    def test_beyond_target_rejected(self):
        g = octahedron_graph()
        base = five_regularize(Instance(g, 2, find_hamiltonian_cycle(g))).instance
        with pytest.raises(PipelineError, match="beyond target"):
            p_regularize(base, 4)


class TestLift:
    def test_c4_numbers(self):
        # and triangle's and prism's: each lift maps n to 4n + 2 and k to k + 3n
        for g in (cycle_graph(4), cycle_graph(3), prism_graph()):
            inst = Instance(g, 1, find_hamiltonian_cycle(g))
            sr = ham_ordered_lift(inst, 4)
            out = sr.instance
            assert out.graph.n == 4 * g.n + 2
            assert out.k == 1 + 3 * g.n
            assert out.witness.is_valid_for(out.graph)
            assert check_ore_condition(out.graph, 4)

    def test_two_lifts(self):
        # after the lift for p, the graph meets the degree-sum condition for p
        for g in (cycle_graph(4), cycle_graph(3), prism_graph()):
            inst = Instance(g, 0, find_hamiltonian_cycle(g))
            n = g.n
            for p in (4, 5):
                n = 4 * n + 2
                out = ham_ordered_lift(inst, p).instance
                assert out.graph.n == n
                assert check_ore_condition(out.graph, p)

    def test_requires_witness(self):
        with pytest.raises(PipelineError, match="witness required"):
            ham_ordered_lift(Instance(cycle_graph(4), 0), 4)

    def test_certify_checks_the_target_p(self, monkeypatch):
        # only certify checks the degree-sum condition, and only the target's p
        import fvskit.pipeline as pipeline

        ps = []
        real = pipeline.check_ore_condition
        monkeypatch.setattr(pipeline, "check_ore_condition", lambda g, p: ps.append(p) or real(g, p))
        res = run_pipeline(Instance(cycle_graph(40), 1), "ham-ordered:5")
        assert res.instance.graph.n == 650
        assert ps == [5]

    def test_p3_is_identity(self):
        inst = Instance(cycle_graph(4), 0, HamCycleWitness((1, 2, 3, 4)))
        sr = ham_ordered_lift(inst, 3)
        assert sr.steps == () and sr.instance == inst


class TestTargets:
    def test_parse(self):
        assert parse_target("4reg-planar") == ("4reg-planar", None)
        assert parse_target("preg-ham:6") == ("preg-ham", 6)
        assert parse_target("ham-ordered:4") == ("ham-ordered", 4)

    def test_parse_errors(self):
        for bad in ("5reg", "preg-ham:x", "preg-ham:3", "ham-ordered:2",
                    # int() reads these as p, but str(p) spells none of them
                    "preg-ham: 6", "preg-ham:+6", "preg-ham:0_6", "preg-ham:06",
                    "preg-ham:\u0666", "ham-ordered:4 "):
            with pytest.raises(PipelineError):
                parse_target(bad)

    # whether each stage keeps a planar input planar
    STAGE_PLANAR = {"strip": True, "degree2": True, "pairing": True, "hamiltonize": True,
                    "evenize": True, "5regular": True, "pregular": False, "lift": False}

    def test_each_certificate_is_derived_from_its_stage_output(self, pipeline_corpus):
        runs = [run_pipeline(Instance(g, 1), "5reg-planar-ham") for g in pipeline_corpus.values()]
        # a pendant vertex for strip, and the non-planar stages
        runs += [run_pipeline(Instance(Graph.from_edges([(1, 2), (2, 3), (3, 1), (3, 4)]), 1),
                              "4reg-planar"),
                 run_pipeline(Instance(cycle_graph(3), 1), "preg-ham:6"),
                 run_pipeline(Instance(cycle_graph(4), 1), "ham-ordered:4")]
        seen = set()
        for res in runs:
            for sr in res.stages:
                out = sr.instance.graph
                assert sr.certificate == ClassCertificate(regularity(out),
                                                          self.STAGE_PLANAR[sr.name])
                seen.add(sr.name)
        assert seen == self.STAGE_PLANAR.keys()

    def test_run_4reg_planar(self):
        res = run_pipeline(Instance(cycle_graph(3), 1), "4reg-planar")
        assert res.instance.graph.n == 24 and res.instance.k == 10
        steps = [s for sr in res.stages for s in sr.steps]
        _, dk, _ = replay_trace(res.input.graph, steps, out=(24, res.instance.graph.m))
        assert dk == res.instance.k - 1

    def test_run_4reg_planar_ham(self):
        res = run_pipeline(Instance(cycle_graph(3), 1), "4reg-planar-ham")
        out = res.instance
        assert out.witness is not None and out.witness.is_valid_for(out.graph)
        assert check_regular(out.graph, 4) and check_planarity(out.graph)[0]

    def test_run_4reg_planar_ham_with_case2_merge(self):
        # no connecting edge of one of the cube's two merges admits case 1,
        # so the two-gadget path runs end to end and its trace must replay
        res = run_pipeline(Instance(cube_graph(), 1), "4reg-planar-ham")
        sr = next(sr for sr in res.stages if sr.name == "hamiltonize")
        inserts = sum(1 for s in sr.steps if s.op == "insert")
        assert inserts - sr.audit == 1  # one merge inserted two L gadgets
        verify_trace(write_graph(res.instance), trace_to_json(res))

    def test_grid_36x36_reduces_and_verifies(self, tmp_path, capsys):
        # its 7 424-vertex pairing output sent a recursive matching search
        # past the default recursion limit, which this run keeps
        assert sys.getrecursionlimit() <= 1000
        inp, out, tr = (str(tmp_path / f) for f in ("in.fvs", "out.fvs", "trace.json"))
        (tmp_path / "in.fvs").write_text(write_graph(Instance(grid_graph(36, 36), 1)))
        assert main(["reduce", inp, "--target", "4reg-planar-ham", "-o", out, "--trace", tr]) == 0
        capsys.readouterr()
        assert main(["verify", out, "--trace", tr]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_run_ham_ordered_finds_witness(self):
        res = run_pipeline(Instance(prism_graph(), 2), "ham-ordered:4")
        assert res.instance.graph.n == 4 * 6 + 2
        assert res.instance.k == 2 + 3 * 6

    def test_empty_after_strip_rejected(self):
        with pytest.raises(PipelineError, match="empty after stripping"):
            run_pipeline(Instance(Graph.from_edges([(1, 2)]), 0), "4reg-planar")


def _count_lr_tests(monkeypatch):
    """The vertex counts of the graphs that LR planarity tests run on, as
    fvskit.solvers and fvskit.geometry call networkx.check_planarity."""
    sizes = []
    real = networkx.check_planarity
    monkeypatch.setattr(networkx, "check_planarity",
                        lambda G, *a, **kw: sizes.append(G.number_of_nodes()) or real(G, *a, **kw))
    return sizes


class TestPlanarityProof:
    def test_sum_planar_gadgets(self):
        # G + xy is planar for each of them, which the 2-sum rule needs; a
        # Y gadget carries no plane
        assert {kind for kind, gd in GADGETS.items() if gd.plane} == {"R", "L", "D"}
        assert build_gadget("Y", 3).plane is None

    def test_lr_tests_per_run(self, monkeypatch):
        # reduce: pairing's one test, of the degree2 output; the stages
        # carry its rotation and 5regular keeps planarity by the 2-sum
        # rule. verify: one test, of the same graph
        sizes = _count_lr_tests(monkeypatch)
        res = run_pipeline(parse_graph(write_graph(Instance(prism_graph(), 1)), 1),
                           "5reg-planar-ham")
        assert sizes == [6]
        sizes.clear()
        verify_trace(write_graph(res.instance), trace_to_json(res))
        assert sizes == [6]

    @pytest.mark.parametrize("target", ["preg-ham:4", "preg-ham:6", "ham-ordered:4"])
    def test_no_proof_runs_for_a_nonplanar_target(self, monkeypatch, target):
        # the output need not be planar, so verify runs no LR test, and
        # reduce runs only pairing's
        sizes = _count_lr_tests(monkeypatch)
        res = run_pipeline(parse_graph(write_graph(Instance(cycle_graph(3), 1)), 1), target)
        assert sizes == ([] if target.startswith("ham-ordered") else [24])
        sizes.clear()
        verify_trace(write_graph(res.instance), trace_to_json(res))
        assert sizes == []

    @pytest.mark.parametrize("make, target, tested_n, n_out", [
        (lambda: grid_graph(5, 5), "4reg-planar-ham", 53, 251),
        (lambda: grid_graph(8, 8), "4reg-planar", 92, 176),
        (prism_graph, "5reg-planar-ham", 6, 658),
        (lambda: cycle_graph(3), "preg-ham:6", 24, 2352),
    ], ids=["grid5x5", "grid8x8", "prism", "C3"])
    def test_one_lr_test_per_reduce_and_verify(self, monkeypatch, make, target, tested_n, n_out):
        # both test the degree2 output, pairing's input, and no larger graph;
        # neither draws it
        sizes = _count_lr_tests(monkeypatch)
        drawn = []
        monkeypatch.setattr(networkx, "combinatorial_embedding_to_pos",
                            lambda *a, **kw: drawn.append(a))
        res = run_pipeline(parse_graph(write_graph(Instance(make(), 1)), 1), target)
        names = [sr.name for sr in res.stages]
        assert res.stages[names.index("degree2")].instance.graph.n == tested_n
        assert res.instance.graph.n == n_out
        assert sizes == [tested_n]
        sizes.clear()
        verify_trace(write_graph(res.instance), trace_to_json(res))
        assert sizes == ([] if target.startswith("preg-ham") else [tested_n])
        assert drawn == []

    @pytest.mark.parametrize("rows, cols", [(3, 3), (5, 5), (5, 6), (5, 7), (7, 7)])
    def test_former_fallback_grids_verify_with_one_lr_test(self, monkeypatch, tmp_path,
                                                         rows, cols):
        # laying pairing's R gadgets by the lowest shared face failed on
        # these grids; the darts lay each into its pair's face, so verify
        # tests only the degree2 output
        inp, out, tr = (str(tmp_path / f) for f in ("in.fvs", "out.fvs", "trace.json"))
        g = grid_graph(rows, cols)
        (tmp_path / "in.fvs").write_text(write_graph(Instance(g, 1)))
        assert main(["reduce", inp, "--target", "4reg-planar", "-o", out, "--trace", tr]) == 0
        sizes = _count_lr_tests(monkeypatch)
        assert main(["verify", out, "--trace", tr]) == 0
        assert sizes == [eliminate_degree_two(Instance(g, 1)).instance.graph.n]

    def test_false_claim_fails_the_run(self, monkeypatch):
        # a stage output that claims planarity and is K5 ends the run
        # instead of recording planar: false
        import fvskit.pipeline as pipeline

        k5 = complete_graph(5)

        def pairing(inst):
            step = TraceStep("pairing", "subdivide", edge=(1, 2))
            return StageResult("pairing", Instance(k5, inst.k), (step,))

        monkeypatch.setattr(pipeline, "pair_degree_three", pairing)
        with pytest.raises(PipelineError, match="stage pairing: planarity claim fails"):
            run_pipeline(Instance(cycle_graph(3), 1), "4reg-planar")


class TestReplay:
    def test_replay_matches_pipeline(self):
        inp = Instance(cycle_graph(3), 1)
        res = run_pipeline(inp, "4reg-planar-ham")
        steps = [s for sr in res.stages for s in sr.steps]
        g, dk, _ = replay_trace(inp.graph, steps, out=(res.instance.graph.n, res.instance.graph.m))
        assert g == res.instance.graph
        assert inp.k + dk == res.instance.k

    def test_replay_lift(self):
        inp = Instance(octahedron_graph(), 0)
        res = run_pipeline(inp, "ham-ordered:5")
        steps = [s for sr in res.stages for s in sr.steps]
        g, dk, _ = replay_trace(inp.graph, steps, out=(res.instance.graph.n, res.instance.graph.m))
        assert g == res.instance.graph and dk == res.instance.k

    def test_unknown_op(self):
        from fvskit.graph import TraceStep

        with pytest.raises(PipelineError, match="unknown trace op"):
            replay_trace(cycle_graph(3), [TraceStep("x", "teleport", 0)], out=(3, 3))
