"""The gadget toolbox: four reusable subgraphs (R, L, D, and the Y family)
with attachment points x and y, canonical Hamiltonian x-y paths, and
exhaustive certification of their deletion costs. Insertion into a host is
Builder.insert."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .graph import Builder, Graph, GraphError, reachable
from .solvers import (
    EXHAUSTIVE_LIMIT,
    SolverError,
    check_planarity,
    enumerate_min_fvs,
    find_hamiltonian_cycle,
    fvs_exact_exhaustive,
)


def build_core_wheel() -> Graph:
    """C4 joined to one apex: rim 0..3 in a cycle, apex 4. The cycle-rich
    core reused by the two smaller gadgets."""
    rim = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return Graph.from_edges(rim + [(4, i) for i in range(4)])


@dataclass(frozen=True)
class Gadget:
    """A pluggable subgraph with boundary (x, y) and a fixed insertion cost.

    ham_path runs from x to y through every gadget vertex. k_delta is the
    certified minimum FVS size of the gadget, i.e. the exact amount the
    deletion budget must grow per insertion.
    """

    kind: str  # R | L | D | Y
    p: int | None
    graph: Graph
    x: int
    y: int
    ham_path: tuple
    k_delta: int

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


@dataclass(frozen=True)
class GadgetReport:
    """Exhaustively certified gadget facts; nothing here is taken on faith."""

    kind: str
    min_fvs: int
    excludes_x: bool
    excludes_y: bool
    separating: bool
    ham_xy: bool
    planar: bool

    def to_json(self):
        return asdict(self)


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
    return Gadget("R", None, g, 0, 8, ham, 3)


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
    return Gadget("L", None, g, 0, 11, ham, 4)


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
    return Gadget("D", None, g, 0, 13, ham, 6)


def _build_y(p: int) -> Gadget:
    if p < 3:
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


def build_gadget(kind: str, p: int | None = None) -> Gadget:
    if kind == "R":
        return _build_r()
    if kind == "L":
        return _build_l()
    if kind == "D":
        return _build_d()
    if kind == "Y":
        if p is None or p < 3:
            raise GraphError("p must be >= 3")
        return _build_y(p)
    raise GraphError(f"unknown gadget kind {kind!r}")


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


def certify_gadget(gadget: Gadget) -> GadgetReport:
    """Recompute every claimed gadget property from scratch by exhaustive
    search; a disagreement with the stored k_delta raises."""
    g = gadget.graph
    if g.n > EXHAUSTIVE_LIMIT:
        raise SolverError(
            f"gadget has {g.n} vertices; exhaustive certification handles at most {EXHAUSTIVE_LIMIT}"
        )
    opt, solutions = enumerate_min_fvs(g)
    excludes_x = all(gadget.x not in s for s in solutions)
    excludes_y = all(gadget.y not in s for s in solutions)
    separating = any(_separates(g, s, gadget.x, gadget.y) for s in solutions)
    # a fresh vertex joined to x and y only: its Hamiltonian cycles are the
    # Hamiltonian x-y paths closed through it
    z = g.next_id
    closed = Graph(g.vertices | {z}, g.edges | {(gadget.x, z), (gadget.y, z)})
    ham_xy = find_hamiltonian_cycle(closed) is not None
    planar, _ = check_planarity(g)
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
        ham_xy=ham_xy,
        planar=planar,
    )


def _separates(g: Graph, deleted, s, t) -> bool:
    kept = g.vertices - set(deleted)
    if s not in kept or t not in kept:
        return False
    return t not in reachable({v: g.neighbors(v) & kept for v in kept}, s)


def verify_insertion_equivalence(host: Graph, gadget: Gadget, u, v) -> bool:
    """Check opt(G') = opt(G) + k_delta with the exhaustive oracle."""
    combined = host.n + gadget.graph.n - 2
    if combined > EXHAUSTIVE_LIMIT:
        raise SolverError("size overflow")
    before = len(fvs_exact_exhaustive(host).deleted)
    g2, _ = insert_gadget_graph(host, gadget, u, v)
    after = len(fvs_exact_exhaustive(g2).deleted)
    return after == before + gadget.k_delta

