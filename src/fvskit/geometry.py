"""Exact planar geometry: grid_embed's integer-grid drawing, which only the
pairing audit reads, and emit_svg, the one place floats appear.

The channel routing and crossing detection of the earlier routed pairing
(pick_epsilon, route_connection, find_crossings and their helpers) serve
no stage. They stay because perfbench/tracing.py resolves them by name, as
tests/test_bench_hooks.py pins; segment_relation also checks the audit's
drawing in the acceptance tests.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx

from .graph import Graph, sorted_edges, to_networkx


class GeometryError(ValueError):
    pass


def _on_segment(p, a, b):
    """Collinear p within the bounding box of segment ab."""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


_NONE = ("none", None, None)


def segment_relation(p1, p2, p3, p4):
    """Classify how segments p1p2 and p3p4 meet.

    Returns (kind, point, t) with kind in {none, proper, touch, overlap};
    for proper crossings t is the parameter of the point along p1p2. Two
    cross products settle most pairs: when both ends of one segment lie
    strictly on one side of the other's line, the segments do not meet.
    """
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = p1, p2, p3, p4
    fx, fy = x4 - x3, y4 - y3
    d1 = fx * (y1 - y3) - fy * (x1 - x3)  # side of p1 from p3p4
    d2 = fx * (y2 - y3) - fy * (x2 - x3)
    if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
        return _NONE
    if d1 == d2 == 0:
        # collinear: distinguish disjoint, single shared point, and overlap
        hits = [p for p in (p1, p2) if _on_segment(p, p3, p4)]
        hits += [p for p in (p3, p4) if _on_segment(p, p1, p2)]
        hits = sorted(set(hits))
        if not hits:
            return _NONE
        if len(hits) == 1:
            return ("touch", hits[0], None)
        return ("overlap", None, None)
    ex, ey = x2 - x1, y2 - y1
    d3 = ex * (y3 - y1) - ey * (x3 - x1)  # side of p3 from p1p2
    d4 = ex * (y4 - y1) - ey * (x4 - x1)
    if (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0):
        return _NONE
    # neither pair of ends lies strictly on one side, and neither segment
    # is a point on the other's line: a zero product puts that end on the
    # other segment, and four nonzero ones make the crossing proper
    for d, p in ((d1, p1), (d2, p2), (d3, p3), (d4, p4)):
        if d == 0:
            return ("touch", p, None)
    den = d1 - d2
    pt = (Fraction(x1 * den + d1 * ex, den), Fraction(y1 * den + d1 * ey, den))
    return ("proper", pt, Fraction(d1, den))


def _box_pairs(segs, first):
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


def grid_embed(g: Graph) -> GridEmbedding:
    """Deterministic integer-grid drawing of the rotation one LR test of g
    finds: networkx's Chrobak-Payne drawing, on distinct lattice points and
    with no two edges crossing. It is not re-checked (see the module
    docstring for why)."""
    if g.n < 3:
        raise GeometryError("need at least 3 vertices")
    ok, emb = nx.check_planarity(to_networkx(g))
    if not ok:
        raise GeometryError("graph not planar")
    rotation = {v: tuple(emb.neighbors_cw_order(v)) for v in g.vertices}
    raw = nx.combinatorial_embedding_to_pos(emb, fully_triangulate=True)
    pos = {v: (int(p[0]), int(p[1])) for v, p in raw.items()}
    return GridEmbedding(g, pos, rotation)


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

    No route point but its two ends is a lattice point, and every vertex of
    grid_embed's lattice drawing is one, so a route meets no other vertex
    and routing reads only the two end coordinates. The drawing is not
    re-checked at run time (see the module docstring for why). For
    0 < eps < 1/3 each inner waypoint has x = i + 1/3 - eps, i - 1/3 - eps
    or i' - 1/3 + eps, off the lattice, and y = j or j' +- 1/2; the inner
    segments run straight between such points, and the two end segments
    change y by exactly 1/2."""
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
    """The slope of segment ab between lattice points, as its reduced
    integer direction pointing right, or up when vertical."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    g = math.gcd(dx, dy)
    if dx < 0 or (dx == 0 and dy < 0):
        g = -g
    return (dx // g, dy // g)


def _slanted_slopes(eps):
    """The slopes of the route segments that change y by 1/2 over
    x by 1/3 -+ eps, as _slope gives them."""
    a, q = eps.numerator, eps.denominator
    return {_slope((0, 0), (2 * (q + c * 3 * a), t * 3 * q)) for c in (-1, 1) for t in (-1, 1)}


def _drawn_segments(emb: GridEmbedding):
    return [(emb.coords[e[0]], emb.coords[e[1]], ("edge", e)) for e in sorted_edges(emb.graph)]


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
    segments at a distinct point; any degeneracy raises. A route at
    epsilon = a/q has its waypoints on the grid of pitch 1/(6q), so
    segments are compared in integer arithmetic on the grid scaled by 6q,
    and only pairs whose bounding boxes meet are classified."""
    drawn = _drawn_segments(emb)
    s = 6 * math.lcm(*(r.epsilon.denominator for r in routes))
    owners = [o for _, _, o in drawn]
    ends = [((a[0] * s, a[1] * s), (b[0] * s, b[1] * s)) for a, b, _ in drawn]
    for ri, r in enumerate(routes):
        pts = [(x.numerator * (s // x.denominator), y.numerator * (s // y.denominator))
               for x, y in r.waypoints]
        owners += [("route", ri, si) for si in range(len(pts) - 1)]
        ends += zip(pts, pts[1:])
    out = []
    seen_points = set()
    # the base drawing is already crossing-free: no pair of drawn edges
    for x, y in _box_pairs(ends, first=len(drawn)):
        oa, ob = owners[x], owners[y]
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


def emit_svg(coords: dict, edges, routes) -> str:
    """Debug-only SVG text: edges as lines between their ends' coords, and
    each route, a chain of vertices, as a polyline through theirs."""
    s = 40
    xs = [c[0] for c in coords.values()] or [0]
    ys = [c[1] for c in coords.values()] or [0]
    w, h = (max(xs) + 1) * s, (max(ys) + 1) * s

    def pt(p):
        return f"{float(p[0]) * s + s / 2:.2f},{h - float(p[1]) * s + s / 2:.2f}"

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w + s}" height="{h + s}">']
    for e in edges:
        (x1, y1), (x2, y2) = (pt(coords[v]).split(",") for v in e)
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                     'stroke="black" stroke-width="1.5"/>')
    for r in routes:
        pts = " ".join(pt(coords[v]) for v in r)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="1"/>')
    for v, c in sorted(coords.items()):
        x, y = pt(c).split(",")
        parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="navy"/>')
        parts.append(f'<text x="{float(x) + 4:.2f}" y="{float(y) - 4:.2f}" font-size="9">{v}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
