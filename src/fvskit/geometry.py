"""Exact planar geometry: integer-grid straight-line embeddings, channel
routing of new connections between grid vertices, and crossing detection
in integer arithmetic on a grid scaled by the coordinates' common
denominator. No floating point anywhere."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx

from .graph import Graph, sorted_edges, to_networkx


class GeometryError(ValueError):
    pass


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p, a, b):
    """Collinear p within the bounding box of segment ab."""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segment_relation(p1, p2, p3, p4):
    """Classify how segments p1p2 and p3p4 meet.

    Returns (kind, point, t) with kind in {none, proper, touch, overlap};
    for proper crossings t is the parameter of the point along p1p2.
    """
    d1 = _cross(p3, p4, p1)
    d2 = _cross(p3, p4, p2)
    d3 = _cross(p1, p2, p3)
    d4 = _cross(p1, p2, p4)
    if d1 == d2 == 0:
        # collinear: distinguish disjoint, single shared point, and overlap
        hits = [p for p in (p1, p2) if _on_segment(p, p3, p4)]
        hits += [p for p in (p3, p4) if _on_segment(p, p1, p2)]
        hits = sorted(set(hits))
        if not hits:
            return ("none", None, None)
        if len(hits) == 1:
            return ("touch", hits[0], None)
        return ("overlap", None, None)
    if (d1 < 0 < d2 or d2 < 0 < d1) and (d3 < 0 < d4 or d4 < 0 < d3):
        t = Fraction(d1, d1 - d2)
        pt = (
            p1[0] + t * (p2[0] - p1[0]),
            p1[1] + t * (p2[1] - p1[1]),
        )
        return ("proper", pt, t)
    # at least one endpoint lies on the other segment
    for p, a, b in ((p1, p3, p4), (p2, p3, p4)):
        if _cross(a, b, p) == 0 and _on_segment(p, a, b):
            return ("touch", p, None)
    for p, a, b in ((p3, p1, p2), (p4, p1, p2)):
        if _cross(a, b, p) == 0 and _on_segment(p, a, b):
            return ("touch", p, None)
    return ("none", None, None)


def _scale(points):
    """Least common multiple of the coordinate denominators; multiplying by
    it puts every point on the integer grid (6q for epsilon = 1/q)."""
    return math.lcm(*(c.denominator for p in points for c in p))


def _scaled(p, s):
    return (p[0].numerator * (s // p[0].denominator), p[1].numerator * (s // p[1].denominator))


def _box_pairs(segs, first=0):
    """Index pairs (i, j), i < j, in increasing order, of the segments whose
    bounding boxes meet, leaving out pairs of two segments before index
    first; no other two segments can share a point. A sweep over the
    segments sorted by left end stops at the first one that starts right
    of the current segment's right end. A segment before first sweeps only
    the segments from first on."""
    boxes = [(min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]))
             for a, b in segs]
    by_x = sorted(range(len(segs)), key=lambda i: (boxes[i][0], i))
    late = [i for i in by_x if i >= first]
    late_starts = [(boxes[i][0], i) for i in late]
    pairs = []
    for pos, i in enumerate(by_x):
        xlo, xhi, ylo, yhi = boxes[i]
        seq, start = (by_x, pos + 1) if i >= first else (late, bisect_right(late_starts, (xlo, i)))
        for k in range(start, len(seq)):
            j = seq[k]
            jxlo, _, jylo, jyhi = boxes[j]
            if jxlo > xhi:
                break
            if jylo <= yhi and ylo <= jyhi:
                pairs.append((min(i, j), max(i, j)))
    pairs.sort()
    return pairs


def _param_on(p, a, b):
    """Parameter of collinear point p along segment ab."""
    if a[0] != b[0]:
        return Fraction(p[0] - a[0], b[0] - a[0])
    return Fraction(p[1] - a[1], b[1] - a[1])


@dataclass(frozen=True)
class GridEmbedding:
    """Straight-line crossing-free drawing on the (2n-4) x (n-2) integer
    grid (for n >= 4; tiny graphs use a fixed 2 x 1 layout). Every vertex is
    a lattice point, which route_connection relies on. rotation, if known,
    lists each vertex's neighbours in their clockwise order in the drawing."""

    graph: Graph
    coords: dict
    rotation: dict | None = None

    def verify(self):
        g = self.graph
        n = g.n
        if set(self.coords) != g.vertices:
            raise GeometryError("coords must cover exactly the vertex set")
        w, h = max(2 * n - 4, 2), max(n - 2, 1)
        for v, (x, y) in self.coords.items():
            if not (isinstance(x, int) and isinstance(y, int)):
                raise GeometryError(f"vertex {v} at ({x}, {y}) is not a lattice point")
            if not (0 <= x <= w and 0 <= y <= h):
                raise GeometryError(f"vertex {v} at ({x}, {y}) outside grid")
        if len(set(self.coords.values())) != n:
            raise GeometryError("coords must be pairwise distinct")
        edges = sorted_edges(g)
        segs = [(self.coords[u], self.coords[v]) for u, v in edges]
        for i, j in _box_pairs(segs):
            e, f = edges[i], edges[j]
            shared = set(e) & set(f)
            kind, pt, _ = segment_relation(*segs[i], *segs[j])
            if kind == "none":
                continue
            if kind == "touch" and shared and pt == self.coords[next(iter(shared))]:
                continue
            raise GeometryError(f"edges {e} and {f} cross in the drawing")
        return True


def grid_embed(g: Graph) -> GridEmbedding:
    """Deterministic integer-grid drawing of the rotation one LR test of g finds."""
    if g.n < 3:
        raise GeometryError("need at least 3 vertices")
    ok, emb = nx.check_planarity(to_networkx(g))
    if not ok:
        raise GeometryError("graph not planar")
    rotation = {v: tuple(emb.neighbors_cw_order(v)) for v in g.vertices}
    raw = nx.combinatorial_embedding_to_pos(emb, fully_triangulate=True)
    pos = {v: (int(p[0]), int(p[1])) for v, p in raw.items()}
    out = GridEmbedding(g, pos, rotation)
    out.verify()
    return out


def first_clockwise(origin, ahead, points):
    """The key of points (key -> point) whose ray from origin comes first
    clockwise after the ray through ahead, no two rays collinear: a ray is
    within half a turn clockwise of another when their cross product is < 0."""
    best = None
    for name, p in points.items():
        half = _cross(origin, ahead, p) > 0
        if best is None or (half, _cross(origin, p, best[1])) < (best[0], 0):
            best = (half, p, name)
    return best[2]


@dataclass(frozen=True)
class RoutedConnection:
    """A polyline realizing a new edge {v, v'} through the half-integer
    channels between grid rows and the epsilon-shifted channels between
    grid columns."""

    endpoints: tuple
    waypoints: tuple
    epsilon: Fraction

    def segments(self):
        return [
            (self.waypoints[i], self.waypoints[i + 1])
            for i in range(len(self.waypoints) - 1)
        ]


def route_connection(emb: GridEmbedding, v, vp, eps: Fraction) -> RoutedConnection:
    """Waypoints of the channel route from v to v'. Endpoints are normalized
    into scan order so the two case formulas apply as stated.

    No route point but its two ends is a lattice point, so on a verified
    drawing a route meets no other vertex. For 0 < eps < 1/3 each inner
    waypoint has x = i + 1/3 - eps, i - 1/3 - eps or i' - 1/3 + eps, off the
    lattice, and y = j or j' +- 1/2; the inner segments run straight between
    such points, and the two end segments change y by exactly 1/2."""
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 3):
        raise GeometryError("epsilon must lie strictly between 0 and 1/3")
    if emb.coords[v] > emb.coords[vp]:
        v, vp = vp, v
    (i, j), (ip, jp) = emb.coords[v], emb.coords[vp]
    h = Fraction(1, 2)
    third = Fraction(1, 3)
    if i == ip:
        pts = [
            (Fraction(i), Fraction(j)),
            (i - third - eps, j + h),
            (i - third - eps, jp - h),
            (Fraction(ip), Fraction(jp)),
        ]
    else:
        pts = [
            (Fraction(i), Fraction(j)),
            (i + third - eps, j - h),
            (i + third - eps, jp - h),
            (ip - third + eps, jp - h),
            (Fraction(ip), Fraction(jp)),
        ]
    dedup = [pts[0]]
    for p in pts[1:]:
        if p != dedup[-1]:
            dedup.append(p)
    return RoutedConnection((v, vp), tuple(dedup), eps)


def _slope(a, b):
    if a[0] == b[0]:
        return None  # vertical
    return Fraction(b[1] - a[1]) / Fraction(b[0] - a[0])


def _slanted_slopes(eps):
    h = Fraction(1, 2)
    third = Fraction(1, 3)
    vals = {
        h / (third - eps),
        -h / (third - eps),
        h / (third + eps),
        -h / (third + eps),
    }
    return vals


def _drawn_segments(emb: GridEmbedding):
    return [(emb.coords[e[0]], emb.coords[e[1]], ("edge", e)) for e in sorted_edges(emb.graph)]


def _route_segments(routes):
    out = []
    for ri, r in enumerate(routes):
        for si, (a, b) in enumerate(r.segments()):
            out.append((a, b, ("route", ri, si)))
    return out


def _primes():
    yield from (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    q = 53
    while True:
        q += 2
        if all(q % d for d in range(3, int(q**0.5) + 1, 2)):
            yield q


def pick_epsilon(emb: GridEmbedding, pairs=()) -> Fraction:
    """Smallest candidate epsilon = 1/4, 1/5, 1/7, 1/11, ... for which the
    slanted channel slopes avoid every drawn slope and the routing of the
    given connection pairs validates with distinct crossings."""
    drawn = _drawn_segments(emb)
    drawn_slopes = {_slope(a, b) for a, b, _ in drawn}

    def candidates():
        yield Fraction(1, 4)
        for q in _primes():
            yield Fraction(1, q)

    for eps in candidates():
        if _slanted_slopes(eps) & drawn_slopes:
            continue
        try:
            routes = [route_connection(emb, a, b, eps) for a, b in pairs]
            find_crossings(emb, routes)
        except GeometryError:
            continue
        return eps
    raise AssertionError("unreachable: forbidden set is finite")


@dataclass(frozen=True)
class Crossing:
    """One proper crossing between two distinct drawn objects, with exact
    parameters locating the point along each."""

    owner_a: tuple
    owner_b: tuple
    point: tuple
    param_a: tuple
    param_b: tuple


def _owner_param(owner, t):
    # param orders crossings along an edge or along a route polyline
    if owner[0] == "edge":
        return (0, t)
    return (owner[2], t)


def find_crossings(emb: GridEmbedding, routes) -> list:
    """All proper crossings among drawn edges and routed connections.

    The epsilon regime guarantees every crossing involves exactly two
    segments at a distinct point; any degeneracy raises. Segments are
    compared in integer arithmetic on the grid scaled by their common
    denominator, and only pairs whose bounding boxes meet are classified."""
    drawn = _drawn_segments(emb)
    segs = drawn + _route_segments(routes)
    s = _scale(p for a, b, _ in segs for p in (a, b))
    ends = [(_scaled(a, s), _scaled(b, s)) for a, b, _ in segs]
    out = []
    seen_points = set()
    # the base drawing is already crossing-free: no pair of drawn edges
    for x, y in _box_pairs(ends, first=len(drawn)):
        oa, ob = segs[x][2], segs[y][2]
        if oa[0] == "route" and ob[0] == "route" and oa[1] == ob[1]:
            continue  # consecutive segments of one polyline share corners
        (a1, a2), (b1, b2) = ends[x], ends[y]
        kind, pt, t = segment_relation(a1, a2, b1, b2)
        if kind == "none":
            continue
        if kind == "touch" and pt in {a1, a2} & {b1, b2}:
            continue
        if kind != "proper":
            raise GeometryError("epsilon regime violated")
        point = (pt[0] / s, pt[1] / s)
        if point in seen_points:
            raise GeometryError("epsilon regime violated")
        seen_points.add(point)
        out.append(Crossing(
            owner_a=oa[:2],
            owner_b=ob[:2],
            point=point,
            param_a=_owner_param(oa, t),
            param_b=_owner_param(ob, _param_on(pt, b1, b2)),
        ))
    out.sort(key=lambda c: (c.owner_a, c.owner_b, c.point))
    return out


def crossing_index(crossings) -> dict:
    """Each owner's crossings, sorted along the owner's geometry by their
    param on it. The two owners of a crossing are distinct objects."""
    hits = {}
    for c in crossings:
        hits.setdefault(c.owner_a, []).append((c.param_a, c))
        hits.setdefault(c.owner_b, []).append((c.param_b, c))
    return {owner: [c for _, c in sorted(h, key=lambda pc: pc[0])] for owner, h in hits.items()}


def emit_svg(emb: GridEmbedding, routes, path):
    """Debug-only drawing dump; floats appear here and nowhere else."""
    s = 40
    xs = [c[0] for c in emb.coords.values()] or [0]
    ys = [c[1] for c in emb.coords.values()] or [0]
    w, h = (max(xs) + 1) * s, (max(ys) + 1) * s

    def pt(p):
        return f"{float(p[0]) * s + s / 2:.2f},{h - float(p[1]) * s + s / 2:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w + s}" height="{h + s}">'
    ]
    for e in sorted_edges(emb.graph):
        a, b = emb.coords[e[0]], emb.coords[e[1]]
        parts.append(
            f'<line x1="{pt(a).split(",")[0]}" y1="{pt(a).split(",")[1]}" '
            f'x2="{pt(b).split(",")[0]}" y2="{pt(b).split(",")[1]}" '
            'stroke="black" stroke-width="1.5"/>'
        )
    for r in routes:
        pts = " ".join(pt(p) for p in r.waypoints)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="1"/>'
        )
    for v, c in sorted(emb.coords.items()):
        x, y = pt(c).split(",")
        parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="navy"/>')
        parts.append(f'<text x="{float(x) + 4:.2f}" y="{float(y) - 4:.2f}" font-size="9">{v}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")

