from fractions import Fraction

import pytest

from fvskit.geometry import (
    GeometryError,
    GridEmbedding,
    crossings_on,
    find_crossings,
    grid_embed,
    pick_epsilon,
    route_connection,
    segment_relation,
)
from fvskit.graph import Graph

from conftest import complete_graph, cycle_graph

F = Fraction


class TestSegmentRelation:
    def test_proper(self):
        kind, pt, t = segment_relation((0, 0), (2, 2), (0, 2), (2, 0))
        assert kind == "proper"
        assert pt == (1, 1) and t == F(1, 2)

    def test_none(self):
        assert segment_relation((0, 0), (1, 0), (0, 1), (1, 1))[0] == "none"

    def test_touch_endpoint(self):
        kind, pt, _ = segment_relation((0, 0), (2, 0), (1, 0), (1, 2))
        assert kind == "touch" and pt == (1, 0)

    def test_touch_collinear(self):
        assert segment_relation((0, 0), (1, 0), (1, 0), (2, 0))[0] == "touch"

    def test_overlap(self):
        assert segment_relation((0, 0), (2, 0), (1, 0), (3, 0))[0] == "overlap"

    def test_collinear_disjoint(self):
        assert segment_relation((0, 0), (1, 0), (2, 0), (3, 0))[0] == "none"


class TestGridEmbed:
    def test_triangle_fixed_layout(self):
        emb = grid_embed(cycle_graph(3))
        assert sorted(emb.coords.values()) == [(0, 0), (1, 1), (2, 0)]

    def test_bounds_and_verify(self):
        for g in (complete_graph(4), cycle_graph(6)):
            emb = grid_embed(g)
            assert emb.verify()
            w, h = 2 * g.n - 4, g.n - 2
            for x, y in emb.coords.values():
                assert 0 <= x <= w and 0 <= y <= h

    def test_not_planar(self):
        with pytest.raises(GeometryError, match="graph not planar"):
            grid_embed(complete_graph(5))

    def test_verify_catches_crossing(self):
        g = Graph.from_edges([(1, 2), (3, 4)])
        emb = GridEmbedding(g, {1: (0, 0), 2: (2, 2), 3: (0, 2), 4: (2, 0)})
        with pytest.raises(GeometryError, match="cross"):
            emb.verify()

    def test_verify_catches_duplicate_coords(self):
        g = Graph.from_edges([(1, 2)])
        emb = GridEmbedding(g, {1: (0, 0), 2: (0, 0)})
        with pytest.raises(GeometryError, match="distinct"):
            emb.verify()


def _bare(coords):
    return GridEmbedding(Graph(coords.keys(), []), coords)


class TestRouting:
    def test_distinct_columns(self):
        emb = _bare({1: (2, 1), 2: (5, 3)})
        r = route_connection(emb, 1, 2, F(1, 100))
        e = F(1, 100)
        assert r.waypoints == (
            (F(2), F(1)),
            (F(2) + F(1, 3) - e, F(1, 2)),
            (F(2) + F(1, 3) - e, F(5, 2)),
            (F(5) - F(1, 3) + e, F(5, 2)),
            (F(5), F(3)),
        )

    def test_same_column(self):
        emb = _bare({1: (4, 1), 2: (4, 3)})
        r = route_connection(emb, 1, 2, F(1, 100))
        e = F(1, 100)
        assert r.waypoints == (
            (F(4), F(1)),
            (F(4) - F(1, 3) - e, F(3, 2)),
            (F(4) - F(1, 3) - e, F(5, 2)),
            (F(4), F(3)),
        )

    def test_scan_order_normalized(self):
        emb = _bare({1: (2, 1), 2: (5, 3)})
        assert route_connection(emb, 2, 1, F(1, 100)) == route_connection(emb, 1, 2, F(1, 100))

    def test_epsilon_range(self):
        emb = _bare({1: (0, 0), 2: (3, 2)})
        for eps in (F(0), F(1, 3), F(1, 2)):
            with pytest.raises(GeometryError, match="between 0 and 1/3"):
                route_connection(emb, 1, 2, eps)

    def test_vertex_on_route_rejected(self):
        blocker = (F(2) + F(1, 3) - F(1, 100), F(1, 2))
        emb = _bare({1: (2, 1), 2: (5, 3), 3: blocker})
        with pytest.raises(GeometryError, match="re-pick"):
            route_connection(emb, 1, 2, F(1, 100))


class TestPickEpsilon:
    def test_default_candidate(self):
        emb = _bare({1: (0, 0), 2: (4, 2)})
        assert pick_epsilon(emb) == F(1, 4)

    def test_skips_colliding_slope(self):
        # drawn slope 6 equals a slanted slope at eps = 1/4, so 1/5 is next
        g = Graph.from_edges([(1, 2)])
        emb = GridEmbedding(g, {1: (0, 0), 2: (1, 6)})
        assert pick_epsilon(emb) == F(1, 5)


class TestFindCrossings:
    def test_no_routes(self):
        emb = grid_embed(complete_graph(4))
        assert find_crossings(emb, []) == []

    def test_single_crossing_exact_point(self):
        g = Graph([1, 2, 3, 4], [(3, 4)])
        emb = GridEmbedding(g, {1: (2, 0), 2: (2, 2), 3: (0, 1), 4: (3, 1)})
        eps = F(1, 100)
        route = route_connection(emb, 1, 2, eps)
        crossings = find_crossings(emb, [route])
        assert len(crossings) == 1
        c = crossings[0]
        assert c.owner_a == ("edge", (3, 4))
        assert c.owner_b == ("route", 0)
        assert c.point == (F(5, 3) - eps, F(1))
        assert crossings_on(crossings, ("route", 0)) == [(c.param_b, c)]

    def test_degenerate_touch_raises(self):
        # a route corner landing on a drawn edge's interior is degenerate
        from fvskit.geometry import RoutedConnection

        g = Graph([1, 2, 3, 4], [(1, 2)])
        emb = GridEmbedding(g, {1: (0, 0), 2: (2, 0), 3: (0, 1), 4: (2, 1)})
        route = RoutedConnection(
            (3, 4), ((F(0), F(1)), (F(1), F(0)), (F(2), F(1))), F(1, 4)
        )
        with pytest.raises(GeometryError, match="epsilon regime violated"):
            find_crossings(emb, [route])

