"""Immutable simple-graph data model, the mutable Builder that every
reduction stage and trace replay edits it through (subdivision, gadget
insertion, copy, lift, low-degree stripping), rotation systems with face
traversal, and Hamiltonian-cycle witnesses."""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx


class GraphError(ValueError):
    """Structurally invalid graph state or operation."""


def _norm_edge(u, v):
    return (u, v) if u < v else (v, u)


def _checked_edges(edges, vs):
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at {u}")
        if u not in vs or v not in vs:
            raise GraphError(f"edge ({u}, {v}) has endpoint outside vertex set")
        yield (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph with stable opaque integer vertex ids.

    Instances are immutable; every operation returns a new graph. Fresh ids
    come from a monotone counter so that traces replay deterministically.
    """

    __slots__ = ("vertices", "edges", "next_id", "_adj")

    def __init__(self, vertices=(), edges=(), next_id=None):
        vs = frozenset(vertices)
        es = frozenset(_checked_edges(edges, vs))
        if next_id is None:
            next_id = max(vs, default=-1) + 1
        elif vs and next_id <= max(vs):
            raise GraphError("next_id collides with existing vertex ids")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "next_id", next_id)
        object.__setattr__(self, "_adj", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    @classmethod
    def from_edges(cls, edges, extra_vertices=()):
        vs = set(extra_vertices)
        for u, v in edges:
            vs.add(u)
            vs.add(v)
        return cls(vs, edges)

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self.edges)

    @property
    def adjacency(self):
        adj = object.__getattribute__(self, "_adj")
        if adj is None:
            tmp = {v: [] for v in self.vertices}
            for u, v in self.edges:
                tmp[u].append(v)
                tmp[v].append(u)
            adj = {v: frozenset(ns) for v, ns in tmp.items()}
            object.__setattr__(self, "_adj", adj)
        return adj

    def neighbors(self, v):
        return self.adjacency[v]

    def degree(self, v):
        return len(self.adjacency[v])

    def has_edge(self, u, v):
        return _norm_edge(u, v) in self.edges


class Builder:
    """The one mutable construction engine, shared by the compiler stages
    and trace replay. It holds a mutable adjacency, the fresh-id counter,
    the running budget k and the steps recorded so far. Each op applies its
    edit in time proportional to the edit, derives its own budget delta and
    appends its TraceStep; freeze() returns a validated immutable Graph.
    Between ops it answers the read-only queries n, vertices, degree and
    has_edge like a Graph does."""

    def __init__(self, g: Graph, k: int = 0, stage: str = ""):
        self._adj = {v: set(ns) for v, ns in g.adjacency.items()}
        self.next_id = g.next_id
        self.k = k
        self.stage = stage
        self.steps = []

    @property
    def vertices(self):
        return self._adj.keys()

    @property
    def n(self):
        return len(self._adj)

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return v in self._adj.get(u, ())

    def freeze(self) -> Graph:
        adj = self._adj
        return Graph(adj, ((u, w) for u, ns in adj.items() for w in ns if u < w), self.next_id)

    def _record(self, op, k_delta=0, **fields):
        self.k += k_delta
        self.steps.append(TraceStep(self.stage, op, k_delta, **fields))

    def subdivide(self, e) -> int:
        """Replace edge e by a path through one fresh vertex; the FVS optimum
        is unchanged (every cycle through e survives, one vertex longer).
        Budget +0."""
        u, v = e
        adj = self._adj
        if v not in adj.get(u, ()):
            raise GraphError("edge not present")
        w = self.next_id
        self.next_id += 1
        adj[u].remove(v)
        adj[v].remove(u)
        adj[u].add(w)
        adj[v].add(w)
        adj[w] = {u, v}
        self._record("subdivide", edge=tuple(e))
        return w

    def insert(self, gadget, u, v) -> dict:
        """Add a fresh copy of the gadget, fusing its x with u and its y with
        v. Budget +gadget.k_delta, its certified minimum FVS size. Returns the
        map from gadget-local ids to host ids (x -> u, y -> v, interior ->
        fresh)."""
        adj = self._adj
        if u not in adj or v not in adj:
            raise GraphError("attachment vertices must be present")
        if u == v and gadget.kind != "R":
            raise GraphError("same-vertex insertion is only defined for kind R")
        id_map = {gadget.x: u, gadget.y: v}
        for w in sorted(gadget.graph.vertices):
            if w not in id_map:
                id_map[w] = self.next_id
                adj[self.next_id] = set()
                self.next_id += 1
        for a, b in gadget.graph.edges:
            ma, mb = id_map[a], id_map[b]
            if ma != mb:  # u=v R-insertion: the x and y pendant edges both land on u
                adj[ma].add(mb)
                adj[mb].add(ma)
        self._record("insert", gadget.k_delta, gadget=gadget.kind, p=gadget.p, attach=(u, v))
        return id_map

    def copy(self) -> dict:
        """Add a disjoint second copy of the graph on fresh ids. Budget +k,
        i.e. it doubles. Returns the map from old ids to their copies."""
        adj = self._adj
        mapping = {}
        for v in sorted(adj):
            mapping[v] = self.next_id
            self.next_id += 1
        for v, ns in list(adj.items()):
            adj[mapping[v]] = {mapping[w] for w in ns}
        self._record("copy", self.k)
        return mapping

    def lift(self):
        """Join a K_{3n} onto the graph plus a dominating adjacent pair
        {x, y}. Budget +3n. Returns (clique, x, y)."""
        adj = self._adj
        n = len(adj)
        hosts = list(adj)
        clique = list(range(self.next_id, self.next_id + 3 * n))
        x, y = self.next_id + 3 * n, self.next_id + 3 * n + 1
        self.next_id = y + 1
        for v in hosts:
            adj[v].update(clique)
        joined = set(hosts).union(clique, (x, y))
        for h in clique:
            adj[h] = joined - {h}
        adj[x] = {*clique, y}
        adj[y] = {*clique, x}
        self._record("lift", 3 * n)
        return clique, x, y

    def strip(self):
        """Iteratively delete degree-zero and degree-one vertices. Budget +0."""
        _strip_adjacency(self._adj)
        self._record("strip")


def _strip_adjacency(adj):
    """Iteratively delete degree-zero and degree-one vertices from a mutable
    adjacency dict (vertex -> set of neighbours), in place."""
    queue = [v for v, ns in adj.items() if len(ns) <= 1]
    while queue:
        v = queue.pop()
        if v not in adj or len(adj[v]) > 1:
            continue
        for w in adj.pop(v):
            adj[w].discard(v)
            if len(adj[w]) <= 1:
                queue.append(w)


def subdivide_edge(g: Graph, e) -> tuple[Graph, int]:
    """Subdivide edge e of g once; see Builder.subdivide."""
    b = Builder(g)
    w = b.subdivide(e)
    return b.freeze(), w


def check_regular(g: Graph, r: int) -> bool:
    return all(g.degree(v) == r for v in g.vertices)


def regularity(g: Graph):
    """The common degree of g's vertices, or None if they differ or g is empty."""
    r = next((g.degree(v) for v in g.vertices), None)
    return r if r is not None and check_regular(g, r) else None


def reachable(adj, start) -> set:
    """The vertices reachable from start in an adjacency dict (vertex ->
    iterable of neighbours)."""
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(reachable(g.adjacency, next(iter(g.vertices)))) == g.n


def to_networkx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(sorted(g.vertices))
    G.add_edges_from(sorted(g.edges))
    return G


@dataclass(frozen=True, eq=False)
class PlaneGraph:
    """Graph plus a rotation system."""

    graph: Graph
    rotation: dict

    def __post_init__(self):
        adj = self.graph.adjacency
        if set(self.rotation) != self.graph.vertices:
            raise GraphError("rotation must cover exactly the vertex set")
        for v, order in self.rotation.items():
            if set(order) != set(adj[v]) or len(order) != len(adj[v]):
                raise GraphError(f"rotation at {v} does not match incident edges")


def faces(pg: PlaneGraph):
    """All face boundary walks of a connected embedded graph, via
    next-edge-in-rotation traversal; checks Euler's formula."""
    g = pg.graph
    if not is_connected(g):
        raise GraphError("faces require connected graph")
    if g.m == 0:
        return [sorted(g.vertices)]
    rot = pg.rotation
    index = {
        (v, u): i for v, order in rot.items() for i, u in enumerate(order)
    }
    darts = sorted(d for u, v in g.edges for d in ((u, v), (v, u)))
    visited = set()
    out = []
    # each walk starts at the smallest dart not yet on a face
    for u0, v0 in darts:
        if (u0, v0) in visited:
            continue
        walk = []
        u, v = u0, v0
        while True:
            walk.append(u)
            visited.add((u, v))
            order = rot[v]
            i = index[(v, u)]
            u, v = v, order[(i + 1) % len(order)]
            if (u, v) == (u0, v0):
                break
        out.append(walk)
    if g.n - g.m + len(out) != 2:
        raise GraphError("rotation system is not a planar embedding")
    return out


def face_edge_sets(pg: PlaneGraph):
    """Faces as frozensets of undirected edges, for co-facial queries."""
    out = []
    for walk in faces(pg):
        es = set()
        for i, u in enumerate(walk):
            v = walk[(i + 1) % len(walk)]
            if u != v:
                es.add(_norm_edge(u, v))
        out.append(frozenset(es))
    return out


@dataclass(frozen=True)
class HamCycleWitness:
    """A Hamiltonian cycle given as the vertex order it visits."""

    order: tuple

    def is_valid_for(self, g: Graph) -> bool:
        order = self.order
        if len(order) != g.n or set(order) != g.vertices:
            return False
        if len(order) < 3:
            return False
        return all(
            g.has_edge(order[i], order[(i + 1) % len(order)])
            for i in range(len(order))
        )

    def edge_set(self):
        n = len(self.order)
        return frozenset(
            _norm_edge(self.order[i], self.order[(i + 1) % n]) for i in range(n)
        )


@dataclass(frozen=True)
class Instance:
    """An FVS instance: graph, deletion budget, optional cycle witness."""

    graph: Graph
    k: int
    witness: HamCycleWitness | None = None

    def __post_init__(self):
        if self.k < 0:
            raise GraphError("budget k must be non-negative")
        if self.witness is not None and not self.witness.is_valid_for(self.graph):
            raise GraphError("witness is not a Hamiltonian cycle of the graph")


def strip_low_degree(inst: Instance) -> Instance:
    """Iteratively delete degree-zero and degree-one vertices; equivalent
    instance with identical budget."""
    b = Builder(inst.graph)
    b.strip()
    return Instance(b.freeze(), inst.k, None)


@dataclass(frozen=True)
class TraceStep:
    """One replayable reduction event with its budget delta."""

    stage: str
    op: str  # subdivide | insert | strip | copy | lift
    k_delta: int = 0
    gadget: str | None = None
    p: int | None = None
    attach: tuple = ()
    edge: tuple | None = None

    def to_json(self):
        return {
            "op": self.op,
            "gadget": self.gadget,
            "p": self.p,
            "attach": list(self.attach),
            "subdivided": list(self.edge) if self.edge else [],
            "k_delta": self.k_delta,
        }

    @classmethod
    def from_json(cls, stage, d):
        """Parse one serialized step; a missing or mistyped field raises
        ValueError naming it."""
        if not isinstance(d, dict):
            raise ValueError("step is not a JSON object")
        for key in ("op", "k_delta"):
            if key not in d:
                raise ValueError(f"step lacks {key!r}")
        op, k_delta, gadget, p = d["op"], d["k_delta"], d.get("gadget"), d.get("p")
        attach, edge = d.get("attach", []), d.get("subdivided", [])
        if not isinstance(op, str) or not _is_int(k_delta):
            raise ValueError("op must be a string and k_delta an integer")
        if not (gadget is None or isinstance(gadget, str)) or not (p is None or _is_int(p)):
            raise ValueError("gadget must be a string and p an integer, or null")
        for key, val in (("attach", attach), ("subdivided", edge)):
            if not (isinstance(val, list) and len(val) in (0, 2) and all(map(_is_int, val))):
                raise ValueError(f"{key} must list zero or two integers")
        return cls(stage, op, k_delta, gadget, p, tuple(attach), tuple(edge) or None)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class ReductionTrace:
    """Ordered ledger of reduction steps; the sum of k deltas certifies the
    budget of the output instance."""

    steps: tuple

    @property
    def total_k_delta(self):
        return sum(s.k_delta for s in self.steps)

    def stage_names(self):
        seen = []
        for s in self.steps:
            if not seen or seen[-1] != s.stage:
                seen.append(s.stage)
        return seen
