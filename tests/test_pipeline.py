import pytest

from fvskit.graph import Graph, HamCycleWitness, Instance, check_regular
from fvskit.pipeline import (
    PipelineError,
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

from conftest import (
    complete_graph,
    cube_graph,
    cycle_graph,
    octahedron_graph,
    odd_4regular_planar_ham,
    prism_graph,
)


class TestDegreeTwo:
    def test_triangle(self):
        sr = eliminate_degree_two(Instance(cycle_graph(3), 1))
        assert sr.instance.graph.n == 24
        assert sr.instance.k == 10
        assert check_regular(sr.instance.graph, 4)
        assert len(sr.steps) == 3
        assert all(s.gadget == "R" and s.attach[0] == s.attach[1] for s in sr.steps)

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
        with pytest.raises(PipelineError, match="planar"):
            eliminate_degree_two(Instance(complete_graph(5), 0))

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

    def test_octahedron_minus_edge(self):
        octa = octahedron_graph()
        g = Graph(octa.vertices, octa.edges - {(1, 2)})
        sr = pair_degree_three(Instance(g, 3))
        assert check_regular(sr.instance.graph, 4)
        assert sr.audit.pairs != ()

    def test_route_audit_geometry(self):
        sr = pair_degree_three(Instance(cube_graph(), 0))
        # routed chains never cross each other, only drawn edges
        for c in sr.audit.crossings:
            owners = {c.owner_a[0], c.owner_b[0]}
            assert owners == {"edge", "route"}

    def test_rejects_low_degree(self):
        with pytest.raises(PipelineError, match="need 3..4"):
            pair_degree_three(Instance(cycle_graph(5), 0))


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


class TestMerge:
    def test_case1_on_prism_medial(self):
        from conftest import medial_graph

        g = medial_graph(prism_graph())
        inst = Instance(g, 3)
        tf = compute_two_factor(g)
        assert len(tf.components) == 2
        out, tf2, steps, case, _rot = merge_step(inst, tf)
        assert case == 1
        assert out.k == 3 + 4  # one bridging L gadget
        assert len(tf2.components) == 1
        assert check_regular(out.graph, 4)
        assert check_planarity(out.graph)[0]

    def test_case2_on_octahedron(self):
        inst = Instance(octahedron_graph(), 3)
        tf = TwoFactor(((1, 2, 3), (4, 5, 6)))
        tf.validate(inst.graph)
        out, tf2, steps, case, _rot = merge_step(inst, tf)
        assert case == 2
        assert out.k == 3 + 8  # the spare edge threads through two L gadgets
        assert len(tf2.components) == 1
        assert check_regular(out.graph, 4)
        assert check_planarity(out.graph)[0]

    def test_single_cycle_rejected(self):
        g = octahedron_graph()
        w = find_hamiltonian_cycle(g)
        with pytest.raises(PipelineError, match="already Hamiltonian"):
            merge_step(Instance(g, 0), TwoFactor((w.order,)))


class TestHamiltonize:
    def test_c3_derived(self):
        inst = eliminate_degree_two(Instance(cycle_graph(3), 1)).instance
        sr = hamiltonize(inst)
        out = sr.instance
        assert out.witness is not None and out.witness.is_valid_for(out.graph)
        assert check_regular(out.graph, 4)
        assert check_planarity(out.graph)[0]
        assert sr.audit <= inst.graph.n // 3
        merges = sum(1 for s in sr.steps if s.op == "insert")
        assert out.k >= inst.k + 4 * sr.audit  # case 2 merges cost double

    def test_one_planarity_test_per_merge(self, monkeypatch):
        # each merge reuses the rotation its predecessor's check computed
        import fvskit.pipeline as pipeline

        inst = pair_degree_three(eliminate_degree_two(Instance(cycle_graph(3), 1)).instance).instance
        calls = []
        real = pipeline.check_planarity
        monkeypatch.setattr(pipeline, "check_planarity", lambda g: calls.append(g) or real(g))
        sr = hamiltonize(inst)
        assert sr.audit >= 3
        # one per merge, the first merge's rotation, the stage certificate
        assert len(calls) <= sr.audit + 2

    def test_deterministic(self):
        inst = eliminate_degree_two(Instance(cycle_graph(3), 1)).instance
        a = hamiltonize(inst).instance
        b = hamiltonize(inst).instance
        assert a.graph == b.graph and a.k == b.k and a.witness == b.witness


class TestEvenize:
    def test_identity_on_even(self):
        g = octahedron_graph()
        inst = Instance(g, 2, find_hamiltonian_cycle(g))
        sr = evenize(inst)
        assert sr.instance is inst and sr.steps == ()

    def test_odd_fixture(self):
        g, w = odd_4regular_planar_ham()
        assert g.n % 2 == 1
        inst = Instance(g, 3, w)
        sr = evenize(inst)
        out = sr.instance
        assert out.graph.n == 2 * g.n + 24
        assert out.k == 2 * 3 + 8
        assert check_regular(out.graph, 4)
        assert out.witness.is_valid_for(out.graph)
        assert out.graph.n % 2 == 0

    def test_requires_witness(self):
        with pytest.raises(PipelineError, match="witness required"):
            evenize(Instance(octahedron_graph(), 0))


class TestFiveRegularize:
    def test_octahedron(self):
        g = octahedron_graph()
        inst = Instance(g, 2, find_hamiltonian_cycle(g))
        sr = five_regularize(inst)
        out = sr.instance
        assert out.graph.n == 7 * 6
        assert out.k == 2 + 3 * 6
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
        base = five_regularize(Instance(g, 2, find_hamiltonian_cycle(g))).instance
        sr = p_regularize(base, 6)
        out = sr.instance
        assert out.graph.n == base.graph.n * 7
        assert out.k == base.k + (base.graph.n // 2) * 8
        assert check_regular(out.graph, 6)
        assert out.witness.is_valid_for(out.graph)

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
        g = cycle_graph(4)
        inst = Instance(g, 1, HamCycleWitness((1, 2, 3, 4)))
        sr = ham_ordered_lift(inst, 4)
        out = sr.instance
        assert out.graph.n == 4 * 4 + 2
        assert out.k == 1 + 3 * 4
        assert out.witness.is_valid_for(out.graph)
        assert check_ore_condition(out.graph, 4)

    def test_two_lifts(self):
        g = cycle_graph(4)
        inst = Instance(g, 0, HamCycleWitness((1, 2, 3, 4)))
        sr = ham_ordered_lift(inst, 5)
        n1 = 4 * 4 + 2
        assert sr.instance.graph.n == 4 * n1 + 2
        assert check_ore_condition(sr.instance.graph, 5)

    def test_requires_witness(self):
        with pytest.raises(PipelineError, match="witness required"):
            ham_ordered_lift(Instance(cycle_graph(4), 0), 4)

    def test_p3_is_identity(self):
        inst = Instance(cycle_graph(4), 0, HamCycleWitness((1, 2, 3, 4)))
        sr = ham_ordered_lift(inst, 3)
        assert sr.steps == () and sr.instance is inst


class TestTargets:
    def test_parse(self):
        assert parse_target("4reg-planar") == ("4reg-planar", None)
        assert parse_target("preg-ham:6") == ("preg-ham", 6)
        assert parse_target("ham-ordered:4") == ("ham-ordered", 4)

    def test_parse_errors(self):
        for bad in ("5reg", "preg-ham:x", "preg-ham:3", "ham-ordered:2"):
            with pytest.raises(PipelineError):
                parse_target(bad)

    def test_run_4reg_planar(self):
        res = run_pipeline(Instance(cycle_graph(3), 1), "4reg-planar")
        assert res.instance.graph.n == 24 and res.instance.k == 10
        assert res.trace.total_k_delta == res.instance.k - 1

    def test_run_4reg_planar_ham(self):
        res = run_pipeline(Instance(cycle_graph(3), 1), "4reg-planar-ham")
        out = res.instance
        assert out.witness is not None and out.witness.is_valid_for(out.graph)
        assert check_regular(out.graph, 4) and check_planarity(out.graph)[0]

    def test_trace_stage_names_are_the_stages_with_steps(self):
        res = run_pipeline(Instance(cycle_graph(3), 1), "4reg-planar-ham")
        assert res.trace.stage_names() == [sr.name for sr in res.stages if sr.steps]

    def test_run_ham_ordered_finds_witness(self):
        res = run_pipeline(Instance(prism_graph(), 2), "ham-ordered:4")
        assert res.instance.graph.n == 4 * 6 + 2
        assert res.instance.k == 2 + 3 * 6

    def test_empty_after_strip_rejected(self):
        with pytest.raises(PipelineError, match="empty after stripping"):
            run_pipeline(Instance(Graph.from_edges([(1, 2)]), 0), "4reg-planar")


class TestReplay:
    def test_replay_matches_pipeline(self):
        inp = Instance(cycle_graph(3), 1)
        res = run_pipeline(inp, "4reg-planar-ham")
        steps = [s for sr in res.stages for s in sr.steps]
        g, dk = replay_trace(inp.graph, steps, n_out=res.instance.graph.n)
        assert g == res.instance.graph
        assert inp.k + dk == res.instance.k

    def test_replay_lift(self):
        inp = Instance(octahedron_graph(), 0)
        res = run_pipeline(inp, "ham-ordered:5")
        steps = [s for sr in res.stages for s in sr.steps]
        g, dk = replay_trace(inp.graph, steps, n_out=res.instance.graph.n)
        assert g == res.instance.graph and dk == res.instance.k

    def test_unknown_op(self):
        from fvskit.graph import TraceStep

        with pytest.raises(PipelineError, match="unknown trace op"):
            replay_trace(cycle_graph(3), [TraceStep("x", "teleport", 0)], n_out=3)
