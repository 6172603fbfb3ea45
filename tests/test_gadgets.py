import dataclasses

import networkx as nx
import pytest

from fvskit.gadgets import (
    Gadget,
    _separates,
    build_core_wheel,
    build_gadget,
    certify_gadget,
    insert_gadget_graph,
    interior_path,
    verify_insertion_equivalence,
    y_size,
)
from fvskit.graph import Builder, Graph, GraphError
from fvskit.solvers import SolverError, is_fvs

from conftest import complete_graph, cycle_graph, opt


def remainder_after(g: Graph, deleted) -> nx.Graph:
    """Induced subgraph after a deletion, as networkx, for isomorphism tests."""
    kept = g.vertices - set(deleted)
    H = nx.Graph()
    H.add_nodes_from(sorted(kept))
    H.add_edges_from(e for e in sorted(g.edges) if e[0] in kept and e[1] in kept)
    return H


class TestConstruction:
    def test_core_wheel(self):
        g = build_core_wheel()
        assert (g.n, g.m) == (5, 8)
        assert opt(g) == 2

    def test_sizes(self):
        expect = {"R": (9, 15, 3), "L": (12, 22, 4), "D": (14, 31, 6)}
        for kind, (n, m, kd) in expect.items():
            gad = build_gadget(kind)
            assert (gad.graph.n, gad.graph.m, gad.k_delta) == (n, m, kd)

    def test_y_sizes(self):
        # replay bounds a Y_p insert by these sizes before it builds Y_p
        for p in (3, 4, 5, 6):
            gad = build_gadget("Y", p)
            assert gad.graph.n == 2 * p + 4
            assert gad.graph.m == p * p + 2 * p + 2
            assert gad.k_delta == 2 * p - 2

    @pytest.mark.parametrize("p", range(3, 10))
    def test_y_size_matches_the_built_gadget(self, p):
        g = build_gadget("Y", p).graph
        assert y_size(p) == (g.n, g.m)

    @pytest.mark.parametrize("ham, msg", [
        ((3, 2, 1, 0), "ham_path must run from x to y"),
        ((0, 1, 3), "ham_path must visit every vertex once"),
        ((0, 2, 1, 3), r"ham_path uses a non-edge \(1, 3\)"),
    ], ids=["reversed", "missing-vertex", "non-edge"])
    def test_ham_path_refusals(self, ham, msg):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 2)])
        with pytest.raises(GraphError, match=f"^{msg}$"):
            Gadget("R", None, g, 0, 3, ham, 1)

    def test_y_needs_p(self):
        with pytest.raises(GraphError, match="p must be >= 3"):
            build_gadget("Y")
        with pytest.raises(GraphError, match="p must be >= 3"):
            build_gadget("Y", 2)

    def test_unknown_kind(self):
        with pytest.raises(GraphError, match="unknown gadget kind"):
            build_gadget("Q")

    def test_ham_path_spans(self):
        for kind, p in (("R", None), ("L", None), ("D", None), ("Y", 5)):
            gad = build_gadget(kind, p)
            assert gad.ham_path[0] == gad.x and gad.ham_path[-1] == gad.y
            assert set(gad.ham_path) == gad.graph.vertices

    @pytest.mark.parametrize("ham, extra", [((0, 1, 2, 4), [(0, 4)]), ((0, 2, 1, 4), []),
                                            ((0, 1, 4), [])],
                             ids=["adjacent", "crossed", "common-neighbour"])
    def test_ports_keep_host_rows_sorted(self, ham, extra):
        # an insert only appends fresh ids to the host's rows, x's before
        # y's when both land on one vertex
        g = Graph.from_edges([*zip(ham, ham[1:]), *extra])
        with pytest.raises(GraphError, match="neighbours must come before y's"):
            Gadget("R", None, g, 0, 4, ham, 1)


class TestCertification:
    def test_reports(self):
        for kind, p, cost, planar in (
            ("R", None, 3, True),
            ("L", None, 4, True),
            ("D", None, 6, True),
            ("Y", 3, 4, True),
            ("Y", 4, 6, False),
        ):
            rep = certify_gadget(build_gadget(kind, p))
            assert rep.min_fvs == cost
            assert rep.excludes_x and rep.excludes_y
            assert rep.separating and rep.ham_xy
            assert rep.planar == planar

    def test_json_keys(self):
        d = certify_gadget(build_gadget("R")).to_json()
        assert set(d) == {
            "kind", "min_fvs", "excludes_x", "excludes_y",
            "separating", "ham_xy", "planar",
        }

    def test_a_deleted_end_is_not_separated(self):
        g = cycle_graph(4)
        assert _separates(g, {2, 4}, 1, 3)
        assert not _separates(g, {1}, 1, 3)
        assert not _separates(g, {3, 4}, 1, 3)

    def test_wrong_cost_raises(self):
        bad = dataclasses.replace(build_gadget("R"), k_delta=2)
        with pytest.raises(GraphError, match="certified optimum"):
            certify_gadget(bad)


class TestInsertion:
    def test_degree_effect_r(self):
        # R contributes one new edge at each attachment vertex
        g = cycle_graph(4)
        g2, idm = insert_gadget_graph(g, build_gadget("R"), 1, 3)
        assert g2.degree(1) == 3 and g2.degree(3) == 3
        assert g2.n == 4 + 7

    def test_degree_effect_l(self):
        # L contributes two new edges at each attachment vertex
        g = cycle_graph(4)
        g2, _ = insert_gadget_graph(g, build_gadget("L"), 1, 3)
        assert g2.degree(1) == 4 and g2.degree(3) == 4

    def test_same_vertex_r(self):
        g = cycle_graph(4)
        g2, _ = insert_gadget_graph(g, build_gadget("R"), 2, 2)
        assert g2.degree(2) == 4
        assert g2.n == 4 + 7

    def test_same_vertex_other_kinds_rejected(self):
        with pytest.raises(GraphError, match="only defined for kind R"):
            insert_gadget_graph(cycle_graph(4), build_gadget("L"), 2, 2)

    def test_missing_attachment(self):
        with pytest.raises(GraphError, match="must be present"):
            insert_gadget_graph(cycle_graph(3), build_gadget("R"), 1, 9)

    def test_instance_budget_and_step(self):
        b = Builder(cycle_graph(5), 2, "insert")
        b.insert(build_gadget("L"), 1, 3)
        assert b.k == 6
        (step,) = b.steps
        assert (step.op, step.gadget, step.attach) == ("insert", "L", (1, 3))

    def test_interior_path_is_host_path(self):
        gad = build_gadget("D")
        g2, idm = insert_gadget_graph(cycle_graph(4), gad, 1, 3)
        path = [1] + interior_path(gad, idm) + [3]
        for a, b in zip(path, path[1:]):
            assert g2.has_edge(a, b)
        assert len(path) == gad.graph.n


class TestEquivalence:
    def test_r_same_vertex_on_triangle(self):
        g = cycle_graph(3)
        assert opt(g) == 1
        g2, _ = insert_gadget_graph(g, build_gadget("R"), 1, 1)
        assert opt(g2) == 4

    def test_l_between_triangles(self):
        g = Graph.from_edges([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        assert verify_insertion_equivalence(g, build_gadget("L"), 3, 4)

    def test_d_on_single_edge(self):
        g = Graph.from_edges([(1, 2)])
        assert opt(g) == 0
        assert verify_insertion_equivalence(g, build_gadget("D"), 1, 2)

    def test_y3_on_cycle(self):
        assert verify_insertion_equivalence(cycle_graph(5), build_gadget("Y", 3), 2, 4)

    def test_size_overflow(self):
        with pytest.raises(SolverError, match="size overflow"):
            verify_insertion_equivalence(cycle_graph(20), build_gadget("D"), 1, 10)


class TestYRemainder:
    @pytest.mark.parametrize("p", [4, 5, 6])
    def test_optimal_remainder_is_2k2_plus_2k1(self, p):
        # delete both ports, all but two matched vertices of the first
        # clique, and all but two unmatched vertices of the second
        gad = build_gadget("Y", p)
        g = gad.graph
        a = list(range(2, p + 2))
        b = list(range(p + 2, 2 * p + 2))
        deleted = {1, 2 * p + 2} | set(a[2:]) | set(b[:2]) | set(b[4:])
        assert len(deleted) == gad.k_delta
        assert is_fvs(g, deleted)
        rem = remainder_after(g, deleted)
        model = nx.Graph()
        model.add_nodes_from(range(6))
        model.add_edges_from([(0, 1), (2, 3)])
        assert nx.is_isomorphic(rem, model)

    def test_p3_has_no_such_remainder(self):
        # with p = 3 every optimal deletion keeps a vertex of degree >= 1
        # incident to the perfect matching, so 2K2 + 2K1 cannot appear
        from fvskit.solvers import enumerate_min_fvs

        gad = build_gadget("Y", 3)
        model = nx.Graph()
        model.add_nodes_from(range(6))
        model.add_edges_from([(0, 1), (2, 3)])
        _, sols = enumerate_min_fvs(gad.graph)
        assert not any(
            nx.is_isomorphic(remainder_after(gad.graph, s), model) for s in sols
        )
