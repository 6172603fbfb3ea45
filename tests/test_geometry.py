import itertools
from fractions import Fraction

import pytest

from fvskit.geometry import (
    Crossing,
    GeometryError,
    GridEmbedding,
    RoutedConnection,
    _primes,
    _slanted_slopes,
    _slope,
    crossings_on,
    find_crossings,
    grid_embed,
    pick_epsilon,
    route_connection,
    segment_relation,
)
from fvskit.graph import Graph

from conftest import (
    complete_graph,
    cycle_graph,
    grid_graph,
    medial_graph,
    octahedron_graph,
    prism_graph,
)

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



def reference_find_crossings(emb, routes):
    """All-pairs crossing detection in Fraction arithmetic: the kernel that
    find_crossings replaced, kept as its oracle."""
    segs = []
    for e in sorted(emb.graph.edges):
        a = tuple(F(c) for c in emb.coords[e[0]])
        b = tuple(F(c) for c in emb.coords[e[1]])
        segs.append((a, b, ("edge", e)))
    for ri, r in enumerate(routes):
        for si, (a, b) in enumerate(r.segments()):
            segs.append((a, b, ("route", ri, si)))

    def param(owner, t):
        return (0, t) if owner[0] == "edge" else (owner[2], t)

    def param_on(p, a, b):
        if a[0] != b[0]:
            return F(p[0] - a[0], b[0] - a[0])
        return F(p[1] - a[1], b[1] - a[1])

    out = []
    seen_points = set()
    for x in range(len(segs)):
        a1, a2, oa = segs[x]
        for y in range(x + 1, len(segs)):
            b1, b2, ob = segs[y]
            if oa[0] == "edge" and ob[0] == "edge":
                continue
            if oa[0] == "route" and ob[0] == "route" and oa[1] == ob[1]:
                continue
            kind, pt, t = segment_relation(a1, a2, b1, b2)
            if kind == "none":
                continue
            if kind == "touch" and pt in {a1, a2} & {b1, b2}:
                continue
            if kind != "proper" or pt in seen_points:
                raise GeometryError("epsilon regime violated")
            seen_points.add(pt)
            out.append(Crossing(oa[:2], ob[:2], pt, param(oa, t), param(ob, param_on(pt, b1, b2))))
    out.sort(key=lambda c: (c.owner_a, c.owner_b, c.point))
    return out


def _slope_filtered_epsilons(emb, count):
    drawn = {_slope(emb.coords[u], emb.coords[v]) for u, v in emb.graph.edges}
    out = []
    for eps in itertools.chain([F(1, 4)], (F(1, q) for q in _primes())):
        if not _slanted_slopes(eps) & drawn:
            out.append(eps)
            if len(out) == count:
                return out


ORACLE_GRAPHS = {
    "grid3x3": lambda: grid_graph(3, 3),
    "grid4x4": lambda: grid_graph(4, 4),
    "grid5x5": lambda: grid_graph(5, 5),
    "prism": prism_graph,
    "octahedron": octahedron_graph,
    "medial_prism": lambda: medial_graph(prism_graph()),
}


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_crossings_match_fraction_oracle(name):
    """Every vertex is routed to its scan-order successor, so routes cross
    drawn edges and each other; the integer kernel must return the oracle's
    crossings, Fractions included, or raise where the oracle raises."""
    emb = grid_embed(ORACLE_GRAPHS[name]())
    order = sorted(emb.coords, key=emb.coords.__getitem__)
    for eps in _slope_filtered_epsilons(emb, 3):
        routes = []
        for a, b in zip(order, order[1:]):
            try:
                routes.append(route_connection(emb, a, b, eps))
            except GeometryError:
                continue
        try:
            expected = reference_find_crossings(emb, routes)
        except GeometryError:
            with pytest.raises(GeometryError, match="epsilon regime violated"):
                find_crossings(emb, routes)
            continue
        got = find_crossings(emb, routes)
        assert got == expected
        assert all(type(c) is F for cr in got for c in cr.point)


def _degenerate(edges, coords, *polylines):
    emb = GridEmbedding(Graph(coords.keys(), edges), coords)
    routes = [RoutedConnection((0, 0), tuple((F(x), F(y)) for x, y in pl), F(1, 4))
              for pl in polylines]
    return emb, routes


DEGENERATE = {
    # a route corner on the interior of a vertical edge, at the right end of
    # the route segment's bounding box and the left end of the edge's
    "t_junction": _degenerate([(1, 2)], {1: (2, 0), 2: (2, 2)}, [(0, 1), (2, 1), (4, 3)]),
    "overlap": _degenerate([(1, 2)], {1: (0, 0), 2: (4, 0)}, [(1, 0), (3, 0), (3, 2)]),
    "shared_point": _degenerate([(1, 2)], {1: (0, 1), 2: (4, 1)},
                                [(2, 0), (2, 2)], [(1, 0), (3, 2)]),
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_degeneracies_raise_like_the_oracle(name):
    emb, routes = DEGENERATE[name]
    for kernel in (reference_find_crossings, find_crossings):
        with pytest.raises(GeometryError, match="epsilon regime violated"):
            kernel(emb, routes)
