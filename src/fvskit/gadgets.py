"""The gadget toolbox: four reusable subgraphs (R, L, D, and the Y family)
with attachment points x and y, canonical Hamiltonian x-y paths, and
exhaustive certification of their deletion costs. Insertion into a host is
Builder.insert."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .graph import (Builder, GadgetPlane, GadgetRows, Graph, GraphError, embeds, quoted,
                    reachable)
from .solvers import (
    EXHAUSTIVE_LIMIT,
    SolverError,
    check_planarity,
    enumerate_min_fvs,
    fvs_exact_exhaustive,
)


def build_core_wheel() -> Graph:
    """C4 joined to one apex: rim 0..3 in a cycle, apex 4; its minimum FVS
    has two vertices. R's core and each of L's two cores are this wheel,
    written out in their own edge lists, so the gadget builders do not call
    it."""
    rim = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return Graph.from_edges(rim + [(4, i) for i in range(4)])


@dataclass(frozen=True)
class Gadget:
    """A pluggable subgraph with boundary (x, y) and a fixed insertion cost.

    ham_path runs from x to y through every gadget vertex. k_delta is the
    certified minimum FVS size of the gadget, i.e. the exact amount the
    deletion budget must grow per insertion. rows, how Builder.insert adds
    the gadget's rows, is built with it. plane, how PlaneBuilder.insert
    lays the gadget plus the edge xy into a face, is None for Y (non-planar).
    """

    kind: str  # R | L | D | Y
    p: int | None
    graph: Graph
    x: int
    y: int
    ham_path: tuple
    k_delta: int
    plane: GadgetPlane | None = field(default=None, compare=False, repr=False)
    rows: GadgetRows = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        hp = self.ham_path
        g = self.graph
        if hp[0] != self.x or hp[-1] != self.y:
            raise GraphError("ham_path must run from x to y")
        if len(hp) != g.n or set(hp) != g.vertices:
            raise GraphError("ham_path must visit every vertex once")
        for a, b in zip(hp, hp[1:]):
            if not g.has_edge(a, b):
                raise GraphError(f"ham_path uses a non-edge ({a}, {b})")
        object.__setattr__(self, "rows", GadgetRows(g, self.x, self.y))


@dataclass(frozen=True)
class GadgetReport:
    """Certified gadget facts; nothing here is taken on faith. ham_xy is
    the gadget's checked ham_path, the others come from exhaustive search."""

    kind: str
    min_fvs: int
    excludes_x: bool
    excludes_y: bool
    separating: bool
    ham_xy: bool
    planar: bool

    def to_json(self):
        return asdict(self)


def _with_plane(kind, g: Graph, x, y, ham, k_delta) -> Gadget:
    """The gadget with the plane of an LR embedding of g plus the edge xy."""
    rot = check_planarity(Graph(g.vertices, [*g.edges, (x, y)]))[1]
    return Gadget(kind, None, g, x, y, ham, k_delta, GadgetPlane(rot, x, y))


def _build_r() -> Gadget:
    # wheel core on rim 2,3,4,5 with apex 6; ports 1 and 7 each cover two
    # adjacent rim vertices so every interior vertex ends up with degree 4
    edges = [
        (2, 3), (3, 4), (4, 5), (5, 2),
        (6, 2), (6, 3), (6, 4), (6, 5),
        (1, 2), (1, 3),
        (7, 4), (7, 5),
        (1, 7),
        (0, 1), (7, 8),
    ]
    g = Graph.from_edges(edges)
    ham = (0, 1, 2, 5, 6, 3, 4, 7, 8)
    return _with_plane("R", g, 0, 8, ham, 3)


def _build_l() -> Gadget:
    # two wheel cores bridged rim-to-rim; x and y attach with two edges each
    edges = [
        (1, 2), (2, 3), (3, 4), (4, 1),
        (5, 1), (5, 2), (5, 3), (5, 4),
        (6, 7), (7, 8), (8, 9), (9, 6),
        (10, 6), (10, 7), (10, 8), (10, 9),
        (1, 6), (2, 7),
        (0, 3), (0, 4),
        (11, 8), (11, 9),
    ]
    g = Graph.from_edges(edges)
    ham = (0, 4, 3, 2, 5, 1, 6, 10, 7, 8, 9, 11)
    return _with_plane("L", g, 0, 11, ham, 4)


def _build_d() -> Gadget:
    # hexagon 2..7 with an inner triangle 8,9,10, a hub 11, and ports 1, 12
    edges = [
        (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 2),
        (8, 9), (9, 10), (8, 10),
        (8, 2), (8, 3), (8, 7),
        (9, 3), (9, 4), (9, 5),
        (10, 5), (10, 6), (10, 7),
        (11, 4), (11, 5), (11, 6),
        (1, 0), (1, 11), (1, 2), (1, 3), (1, 4),
        (12, 13), (12, 11), (12, 2), (12, 6), (12, 7),
    ]
    g = Graph.from_edges(edges)
    ham = (0, 1, 3, 2, 8, 7, 6, 10, 5, 9, 4, 11, 12, 13)
    return _with_plane("D", g, 0, 13, ham, 6)


def _build_y(p: int | None) -> Gadget:
    if p is None or p < 3:
        raise GraphError("p must be >= 3")
    a = list(range(2, p + 2))
    b = list(range(p + 2, 2 * p + 2))
    xp, yp = 1, 2 * p + 2
    edges = []
    for i in range(p):
        for j in range(i + 1, p):
            edges.append((a[i], a[j]))
            edges.append((b[i], b[j]))
        edges.append((a[i], b[i]))
        edges.append((xp, a[i]))
        edges.append((yp, b[i]))
    edges.append((0, xp))
    edges.append((yp, 2 * p + 3))
    g = Graph.from_edges(edges)
    ham = (0, xp, *a, *reversed(b), yp, 2 * p + 3)
    return Gadget("Y", p, g, 0, 2 * p + 3, ham, 2 * p - 2)


def y_size(p: int) -> tuple:
    """(order, edge count) of build_gadget("Y", p), known before it is
    built: 2p + 4 vertices and p^2 + 2p + 2 edges."""
    return 2 * p + 4, p * p + 2 * p + 2


def build_gadget(kind: str, p: int | None = None) -> Gadget:
    if kind == "R":
        return _build_r()
    if kind == "L":
        return _build_l()
    if kind == "D":
        return _build_d()
    if kind == "Y":
        return _build_y(p)
    raise GraphError(f"unknown gadget kind {quoted(kind)}")


def insert_gadget_graph(g: Graph, gadget: Gadget, u, v):
    """Insert one gadget into g; see Builder.insert. Returns (graph, id_map)."""
    b = Builder(g)
    id_map = b.insert(gadget, u, v)
    return b.freeze(), id_map


def interior_path(gadget: Gadget, id_map) -> list:
    """The gadget's Hamiltonian x-y path restricted to interior vertices and
    mapped into the host; used to splice host cycle witnesses through an
    inserted gadget."""
    return [id_map[w] for w in gadget.ham_path[1:-1]]


def refuse_uncertifiable(n: int) -> None:
    """Raise SolverError if a gadget of n vertices is too large for
    certify_gadget's exhaustive search."""
    if n > EXHAUSTIVE_LIMIT:
        raise SolverError(
            f"gadget has {n} vertices; exhaustive certification handles at most {EXHAUSTIVE_LIMIT}"
        )


def certify_gadget(gadget: Gadget) -> GadgetReport:
    """Recompute every claimed gadget property from scratch by exhaustive
    search; a disagreement with the stored k_delta raises. The Hamiltonian
    x-y path is the gadget's ham_path, which Gadget.__post_init__ checks,
    and planar holds only if faces() accepts the LR test's rotation."""
    g = gadget.graph
    refuse_uncertifiable(g.n)
    opt, solutions = enumerate_min_fvs(g)
    excludes_x = all(gadget.x not in s for s in solutions)
    excludes_y = all(gadget.y not in s for s in solutions)
    separating = any(_separates(g, s, gadget.x, gadget.y) for s in solutions)
    planar = embeds(g, check_planarity(g)[1])
    if opt != gadget.k_delta:
        raise GraphError(
            f"gadget {gadget.kind}: certified optimum {opt} != stored k_delta {gadget.k_delta}"
        )
    return GadgetReport(
        kind=gadget.kind if gadget.p is None else f"Y{gadget.p}",
        min_fvs=opt,
        excludes_x=excludes_x,
        excludes_y=excludes_y,
        separating=separating,
        ham_xy=True,
        planar=planar,
    )


def _separates(g: Graph, deleted, s, t) -> bool:
    kept = g.vertices - set(deleted)
    if s not in kept or t not in kept:
        return False
    return t not in reachable({v: kept.intersection(g.adjacency[v]) for v in kept}, s)


def verify_insertion_equivalence(host: Graph, gadget: Gadget, u, v) -> bool:
    """Check opt(G') = opt(G) + k_delta with the exhaustive oracle."""
    combined = host.n + gadget.graph.n - 2
    if combined > EXHAUSTIVE_LIMIT:
        raise SolverError("size overflow")
    before = len(fvs_exact_exhaustive(host).deleted)
    g2, _ = insert_gadget_graph(host, gadget, u, v)
    after = len(fvs_exact_exhaustive(g2).deleted)
    return after == before + gadget.k_delta

