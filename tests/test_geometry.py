import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fvskit.geometry import (
    Crossing,
    GeometryError,
    GridEmbedding,
    RoutedConnection,
    _box_pairs,
    _primes,
    _slanted_slopes,
    _slope,
    find_crossings,
    grid_embed,
    pick_epsilon,
    route_connection,
    segment_relation,
)
from fvskit.graph import Graph, Instance
from fvskit.pipeline import eliminate_degree_two
from fvskit.solvers import check_planarity

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


def reference_segment_relation(p1, p2, p3, p4):
    """The four-cross-product classification that segment_relation
    replaced, kept as its oracle."""
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def on_segment(p, a, b):
        return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))

    d1, d2 = cross(p3, p4, p1), cross(p3, p4, p2)
    d3, d4 = cross(p1, p2, p3), cross(p1, p2, p4)
    if d1 == d2 == 0:
        hits = sorted({p for p in (p1, p2) if on_segment(p, p3, p4)}
                      | {p for p in (p3, p4) if on_segment(p, p1, p2)})
        if not hits:
            return ("none", None, None)
        if len(hits) == 1:
            return ("touch", hits[0], None)
        return ("overlap", None, None)
    if (d1 < 0 < d2 or d2 < 0 < d1) and (d3 < 0 < d4 or d4 < 0 < d3):
        t = F(d1, d1 - d2)
        return ("proper", (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1])), t)
    for p, a, b in ((p1, p3, p4), (p2, p3, p4), (p3, p1, p2), (p4, p1, p2)):
        if cross(a, b, p) == 0 and on_segment(p, a, b):
            return ("touch", p, None)
    return ("none", None, None)


SMALL_POINTS = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=2000, derandomize=True)
@given(st.lists(SMALL_POINTS, min_size=4, max_size=4), st.sampled_from([
    # which ends coincide: none, a zero-length segment, a shared end, both
    (), ((1, 0),), ((3, 2),), ((2, 0),), ((3, 1),), ((2, 0), (3, 1)), ((2, 1), (3, 0)),
]), st.booleans())
def test_segment_relation_matches_four_products(points, same, collinear):
    """Kind, point and t agree with the four-cross-product oracle on small
    integer segments, including collinear, touching and zero-length ones."""
    for i, j in same:
        points[i] = points[j]
    if collinear:
        # put p3 and p4 on the line through p1 and p2
        (x1, y1), (x2, y2) = points[0], points[1]
        for k, step in ((2, points[2][0]), (3, points[3][0])):
            points[k] = (x1 + step * (x2 - x1), y1 + step * (y2 - y1))
    got = segment_relation(*points)
    assert got == reference_segment_relation(*points)
    assert got[0] != "proper" or all(type(c) is F for c in (*got[1], got[2]))


def _first_clockwise(origin, ahead, points):
    """The key of points (key -> point) whose ray from origin comes first
    clockwise after the ray through ahead, no two rays collinear: a ray is
    within half a turn clockwise of another when their cross product is < 0."""
    def cross(a, b):
        return (a[0] - origin[0]) * (b[1] - origin[1]) - (a[1] - origin[1]) * (b[0] - origin[0])

    best = None
    for name, p in points.items():
        half = cross(ahead, p) > 0
        if best is None or (half, cross(p, best[1])) < (best[0], 0):
            best = (half, p, name)
    return best[2]


class TestGridEmbed:
    @pytest.mark.parametrize("make", [lambda: grid_graph(5, 5), prism_graph, octahedron_graph,
                                      lambda: medial_graph(prism_graph())])
    def test_rotation_is_the_lr_tests_and_the_drawings(self, make):
        # the rotation is the LR test's, and each vertex's neighbours lie
        # in that clockwise order around it in the drawing
        g = make()
        emb = grid_embed(g)
        assert emb.rotation == check_planarity(g)[1]
        for v, order in emb.rotation.items():
            for i, w in enumerate(order):
                rest = {t: emb.coords[t] for t in order if t != w}
                if rest:
                    after = _first_clockwise(emb.coords[v], emb.coords[w], rest)
                    assert after == order[(i + 1) % len(order)]

    def test_triangle_fixed_layout(self):
        emb = grid_embed(cycle_graph(3))
        assert sorted(emb.coords.values()) == [(0, 0), (1, 1), (2, 0)]

    def test_not_planar(self):
        with pytest.raises(GeometryError, match="graph not planar"):
            grid_embed(complete_graph(5))


def _edges_meet_only_at_shared_ends(coords, edges):
    """No two edges of a straight-line drawing meet but at a shared end: a
    sweep over the edges sorted by left end, each classified by the oracle
    against every later one whose x range overlaps it."""
    segs = sorted((min(coords[u], coords[v]), max(coords[u], coords[v]), (u, v))
                  for u, v in edges)
    for i, (a, b, e) in enumerate(segs):
        for c, d, f in segs[i + 1:]:
            if c[0] > b[0]:
                break
            kind, pt, _ = reference_segment_relation(a, b, c, d)
            if kind == "none":
                continue
            if not (kind == "touch" and any(coords[w] == pt for w in set(e) & set(f))):
                return False
    return True


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


# the first candidates pick_epsilon tries
FIRST_EPSILONS = [F(1, 4)] + [F(1, q) for q in itertools.islice(_primes(), 7)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.tuples(st.integers(0, 12), st.integers(0, 8)),
       st.tuples(st.integers(0, 12), st.integers(0, 8)),
       st.sampled_from(FIRST_EPSILONS))
def test_route_meets_no_lattice_point_but_its_ends(p, q, eps):
    """route_connection does not look for vertices on a route: on an integer
    drawing no point of a route but its two ends is a lattice point."""
    assume(p != q)
    route = route_connection(_bare({1: p, 2: q}), 1, 2, eps)
    ends = {route.waypoints[0], route.waypoints[-1]}
    assert ends == {p, q}
    for a, b in route.segments():
        (xlo, xhi), (ylo, yhi) = sorted((a[0], b[0])), sorted((a[1], b[1]))
        for x in range(math.ceil(xlo), math.floor(xhi) + 1):
            for y in range(math.ceil(ylo), math.floor(yhi) + 1):
                on = (b[0] - a[0]) * (y - a[1]) == (b[1] - a[1]) * (x - a[0])
                assert not on or (x, y) in ends


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
            kind, pt, t = reference_segment_relation(a1, a2, b1, b2)
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


@settings(max_examples=200, derandomize=True)
@given(st.lists(st.tuples(*[st.integers(0, 12)] * 4), max_size=40), st.integers(0, 40))
def test_box_pairs_are_the_brute_force_pairs_from_first(coords, first):
    segs = [((a, b), (c, d)) for a, b, c, d in coords]
    boxes = [(min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]))
             for a, b in segs]
    assert _box_pairs(segs, first) == [
        (i, j) for i, j in itertools.combinations(range(len(segs)), 2)
        if j >= first
        and boxes[i][0] <= boxes[j][1] and boxes[j][0] <= boxes[i][1]
        and boxes[i][2] <= boxes[j][3] and boxes[j][2] <= boxes[i][3]]


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


def test_grid_embed_draws_on_distinct_lattice_points_without_crossings(pipeline_corpus):
    """grid_embed does not re-check networkx's drawing. On every oracle
    graph and pipeline corpus input, and on the degree2 output of each,
    which is what pairing draws, the drawing puts every vertex on a
    distinct lattice point of the (2n-4) x (n-2) grid and no two edges
    meet but at a shared end."""
    graphs = [make() for make in ORACLE_GRAPHS.values()] + list(pipeline_corpus.values())
    graphs += [eliminate_degree_two(Instance(g, 1)).instance.graph for g in graphs]
    for g in graphs:
        coords = grid_embed(g).coords
        assert set(coords) == set(g.vertices)
        assert all(type(c) is int for p in coords.values() for c in p)
        assert len(set(coords.values())) == g.n
        w, h = max(2 * g.n - 4, 2), max(g.n - 2, 1)
        assert all(0 <= x <= w and 0 <= y <= h for x, y in coords.values())
        assert _edges_meet_only_at_shared_ends(coords, g.edges)


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
