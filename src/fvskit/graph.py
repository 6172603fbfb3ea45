"""Immutable simple-graph data model, the mutable Builder that every
reduction stage and trace replay edits it through (subdivision, gadget
insertion, copy, lift, low-degree stripping), rotation systems with face
traversal, and the one check of a cycle cover behind Hamiltonian-cycle
witnesses and 2-factors."""

from __future__ import annotations

import reprlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass


class GraphError(ValueError):
    """Structurally invalid graph state or operation."""


_SHORT = reprlib.Repr()  # cuts long strings and deep nesting short
_SHORT.maxstring = _SHORT.maxother = 80


def quoted(value) -> str:
    """repr(value) for an error message: at most 80 characters, with an ellipsis."""
    text = _SHORT.repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _norm_edge(u, v):
    return (u, v) if u < v else (v, u)


class _Rows:
    """The read-only queries that a Graph and a Builder answer alike from
    adjacency, each vertex's neighbours as a sorted sequence."""

    __slots__ = ("adjacency",)

    @property
    def vertices(self):
        return self.adjacency.keys()

    @property
    def n(self):
        return len(self.adjacency)

    def degree(self, v):
        return len(self.adjacency[v])

    def has_edge(self, u, v):
        row = self.adjacency.get(u, ())
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v


class Graph(_Rows):
    """Simple undirected graph with stable opaque integer vertex ids, stored
    as its adjacency rows (each vertex's neighbours as a sorted tuple), m and
    next_id; vertices and edges are derived from the rows.

    Instances are immutable; every operation returns a new graph. Fresh ids
    come from a monotone counter so that traces replay deterministically.
    """

    __slots__ = ("m", "next_id")

    def __init__(self, vertices=(), edges=()):
        rows = {v: set() for v in frozenset(vertices)}
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at {u}")
            if u not in rows or v not in rows:
                raise GraphError(f"edge ({u}, {v}) has endpoint outside vertex set")
            rows[u].add(v)
            rows[v].add(u)
        adj = {v: tuple(sorted(ns)) for v, ns in rows.items()}
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "m", sum(map(len, adj.values())) // 2)
        object.__setattr__(self, "next_id", max(rows, default=-1) + 1)

    @classmethod
    def _unchecked(cls, rows: dict, m: int, next_id: int) -> Graph:
        """A Graph on rows its caller has already checked: sorted, symmetric
        and loop-free, m counting their edges, next_id above every vertex.
        It skips the per-edge checks of Graph(...), which on a dense output
        cost about as much as building the rows. Only Builder.freeze, whose
        ops keep the adjacency symmetric, loop-free and closed, and
        textio.parse_graph, which checks each edge line as it reads it, call
        it; tests/test_graph.py holds the list."""
        g = object.__new__(cls)
        object.__setattr__(g, "adjacency", rows)
        object.__setattr__(g, "m", m)
        object.__setattr__(g, "next_id", next_id)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adjacency == other.adjacency

    def __hash__(self):
        return hash((frozenset(self.adjacency), self.m))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    @classmethod
    def from_edges(cls, edges):
        return cls({v for e in edges for v in e}, edges)

    @property
    def edges(self) -> frozenset:
        return frozenset((u, w) for u, row in self.adjacency.items() for w in row if u < w)


def sorted_edges(g: Graph):
    """g's edges (u, w), u < w, in sorted order: each vertex's row of larger
    neighbours, in sorted vertex order."""
    adj = g.adjacency
    return [(u, w) for u in sorted(adj) for w in adj[u][bisect_right(adj[u], u):]]


class Builder(_Rows):
    """The one mutable construction engine, shared by the compiler stages
    and trace replay. It holds the adjacency as sorted lists, the fresh-id
    counter, the running budget k and the steps recorded so far. Each op
    applies its edit in time proportional to the edit, derives its own
    budget delta and appends its TraceStep. A fresh id exceeds every id the
    graph has held, so an op builds a row in order, appends fresh ids to it
    or removes from it: rows stay sorted, symmetric, loop-free and closed,
    and freeze() copies them into its Graph without sorting or checking
    them. Between ops it answers a Graph's read-only queries n, vertices,
    degree and has_edge from the same rows."""

    def __init__(self, g: Graph, k: int = 0, stage: str = ""):
        self.adjacency = {v: list(ns) for v, ns in g.adjacency.items()}
        self.next_id = g.next_id
        self.k = k
        self.stage = stage
        self.steps = []

    def freeze(self) -> Graph:
        rows = {v: tuple(ns) for v, ns in self.adjacency.items()}
        return Graph._unchecked(rows, sum(map(len, rows.values())) // 2, self.next_id)

    def _record(self, op, k_delta=0, **fields):
        self.k += k_delta
        self.steps.append(TraceStep(self.stage, op, **fields))

    def subdivide(self, e) -> int:
        """Replace edge e by a path through one fresh vertex; the FVS optimum
        is unchanged (every cycle through e survives, one vertex longer).
        Budget +0."""
        u, v = e
        adj = self.adjacency
        if not self.has_edge(u, v):
            raise GraphError("edge not present")
        w = self.next_id
        self.next_id += 1
        adj[u].remove(v)
        adj[v].remove(u)
        adj[u].append(w)
        adj[v].append(w)
        adj[w] = [u, v] if u < v else [v, u]
        self._record("subdivide", edge=tuple(e))
        return w

    def insert(self, gadget, u, v, dart=None) -> dict:
        """Add a fresh copy of the gadget, fusing its x with u and its y with
        v. Budget +gadget.k_delta, its certified minimum FVS size. Returns the
        map from gadget-local ids to host ids (x -> u, y -> v, interior ->
        fresh). dart, a PlaneBuilder's face, must name corners (u, q) or (u,
        q, v, q2), q and q2 neighbours of u and v; a Builder only records it."""
        self._check_insert(gadget, u, v, dart)
        return self._add(gadget, u, v, dart)

    def _check_insert(self, gadget, u, v, dart):
        adj = self.adjacency
        if u not in adj or v not in adj:
            raise GraphError("attachment vertices must be present")
        if u == v and gadget.kind != "R":
            raise GraphError("same-vertex insertion is only defined for kind R")
        if dart is not None and not (dart[0] == u and self.has_edge(u, dart[1]) and (
                len(dart) == 2 or dart[2] == v and self.has_edge(v, dart[3]))):
            raise GraphError(f"face dart {list(dart)} names no face at {u} (and {v})")

    def _add(self, gadget, u, v, dart):
        adj, rows = self.adjacency, gadget.rows
        # one int object per fresh id, shared by its key and every row
        fresh = list(range(self.next_id, self.next_id + len(rows.inner)))
        self.next_id += len(fresh)
        # at u == v (an R insert) y's fresh neighbours follow x's
        adj[u] += [fresh[i] for i in rows.x_row]
        adj[v] += [fresh[i] for i in rows.y_row]
        ports = ([], [u], [v])
        for f, (port, row) in zip(fresh, rows.inner_rows):
            adj[f] = ports[port] + [fresh[j] for j in row]
        id_map = {gadget.x: u, gadget.y: v, **dict(zip(rows.inner, fresh))}
        self._record("insert", gadget.k_delta, gadget=gadget.kind, p=gadget.p, attach=(u, v),
                     face=dart)
        return id_map

    def copy(self) -> dict:
        """Add a disjoint second copy of the graph on fresh ids. Budget +k,
        i.e. it doubles. Returns the map from old ids to their copies."""
        adj = self.adjacency
        mapping = {}
        for v in sorted(adj):
            mapping[v] = self.next_id
            self.next_id += 1
        # the renaming is monotone, so each copied row stays sorted
        for v, ns in list(adj.items()):
            adj[mapping[v]] = [mapping[w] for w in ns]
        self._record("copy", self.k)
        return mapping

    def lift(self):
        """Join a K_{3n} onto the graph plus a dominating adjacent pair
        {x, y}. Budget +3n. Returns (clique, x, y)."""
        adj = self.adjacency
        n = len(adj)
        hosts = sorted(adj)
        clique = list(range(self.next_id, self.next_id + 3 * n))
        x, y = self.next_id + 3 * n, self.next_id + 3 * n + 1
        self.next_id = y + 1
        for v in hosts:
            adj[v] += clique
        joined = hosts + clique + [x, y]
        for i, h in enumerate(clique, n):
            adj[h] = joined[:i] + joined[i + 1:]
        adj[x] = clique + [y]
        adj[y] = clique + [x]
        self._record("lift", 3 * n)
        return clique, x, y

    def strip(self):
        """Iteratively delete degree-zero and degree-one vertices. Budget +0."""
        _strip_adjacency(self.adjacency)
        self._record("strip")


def _strip_adjacency(adj, queue=None):
    """Iteratively delete degree-zero and degree-one vertices from a mutable
    adjacency dict (vertex -> set or list of neighbours), in place. queue
    holds the vertices that may have degree <= 1, by default all of them;
    every other vertex must have degree >= 2."""
    if queue is None:
        queue = [v for v, ns in adj.items() if len(ns) <= 1]
    while queue:
        v = queue.pop()
        if v not in adj or len(adj[v]) > 1:
            continue
        for w in adj.pop(v):
            # rows are symmetric, so v is in w's row
            adj[w].remove(v)
            if len(adj[w]) <= 1:
                queue.append(w)


class PlaneBuilder(Builder):
    """A Builder that also keeps a rotation system (each vertex's neighbours
    in cyclic order), each dart's face under _face_walk, and n_faces, above
    every face id. The constructor walks the rotation with faces(), so one
    that is not a plane embedding fails there, and keeps each walk: until
    the first edit, face f is walks[f], its darts from its smallest one on.
    subdivide, insert and copy keep the rotation plane."""

    def __init__(self, g: Graph, rotation, k: int = 0, stage: str = ""):
        super().__init__(g, k, stage)
        self.walks = [list(zip(w, w[1:] + w[:1])) for w in faces(g, rotation)] if g.m else []
        self.rotation = {v: list(order) for v, order in rotation.items()}
        self.face = {d: f for f, w in enumerate(self.walks) for d in w}
        self.n_faces = len(self.walks) or 1
        self.split = None  # after a copy, the copy's lowest face id

    def subdivide(self, e) -> int:
        """Builder.subdivide; the fresh vertex takes the edge's place in both
        rotations, and each half of a dart stays on the dart's face."""
        u, v = e
        w = super().subdivide(e)
        rot, face = self.rotation, self.face
        rot[u][rot[u].index(v)] = w
        rot[v][rot[v].index(u)] = w
        rot[w] = [u, v]
        face[(u, w)] = face[(w, v)] = face.pop((u, v))
        face[(v, w)] = face[(w, u)] = face.pop((v, u))
        return w

    def copy(self) -> dict:
        """Builder.copy; the copy's rotation and faces are the copied ones,
        under face ids from split on. The next insert must join the halves."""
        if self.split is not None:
            raise GraphError("a plane builder copies only a connected graph")
        mapping = super().copy()
        rot = self.rotation
        rot.update({c: [mapping[w] for w in rot[v]] for v, c in mapping.items()})
        self.split = base = self.n_faces
        self.face.update({(mapping[a], mapping[b]): base + f for (a, b), f in self.face.items()})
        self.n_faces = 2 * base
        return mapping

    def insert(self, gadget, u, v, dart=None) -> dict:
        """Builder.insert, laying gadget.plane into face f: dart's, else the
        lowest that u and v share. x fills u's corner before q, dart's or its
        first on f; y v's before q2, or its first on f's one walk from x, and
        the step keeps q2 only if that first is another. The walked side and
        xy's x-to-y side get a new face id. After a copy, the insert must join
        u's lowest face f in one half to v's: v's face and xy's sides become f."""
        rot, face, plane = self.rotation, self.face, gadget.plane
        if plane is None or u == v or not rot.get(u) or not rot.get(v):
            raise GraphError(f"no plane insert of {gadget.kind} joins {u} and {v}")
        self._check_insert(gadget, u, v, dart)
        if join := self.split is not None:
            # each end's first corner on its lowest face
            q, qv = (min(rot[t], key=lambda w, t=t: face[(t, w)]) for t in (u, v))
            f, fv = face[(u, q)], face[(v, qv)]
            if dart is not None or (f < self.split) == (fv < self.split):
                raise GraphError(f"the insert after a copy must join its halves at {u} and {v}")
            walk, iv = _face_walk(rot, (v, qv)), rot[v].index(qv)
            self.split = None
        else:
            if dart is None:
                shared = {face[(u, t)] for t in rot[u]} & {face[(v, t)] for t in rot[v]}
                if not shared:
                    raise GraphError(f"vertices {u} and {v} share no face")
                f = min(shared)
                q, q2 = next(t for t in rot[u] if face[(u, t)] == f), None
            else:
                f, q, q2 = face[dart[:2]], dart[1], dart[3] if len(dart) == 4 else None
            walk = _face_walk(rot, (u, q), v, q2)
            iv = rot[v].index(walk[-1][0]) + 1
            if q2 is not None and all(b != v for _, b in walk[:-1]):
                dart = dart[:2]  # q2's corner is v's first on the walk
        iu = rot[u].index(q)
        id_map = self._add(gadget, u, v, dart)
        rot[u][iu:iu] = [id_map[w] for w in plane.x_fan]
        rot[v][iv:iv] = [id_map[w] for w in plane.y_fan]
        for w, order in plane.inner_rotation.items():
            rot[id_map[w]] = [id_map[t] for t in order]
        base, self.n_faces = self.n_faces, self.n_faces + plane.n_new
        seam = f if join else base  # the face of the walk and of xy's x-to-y side
        for d in walk:
            face[d] = seam
        for (a, b), i in plane.face.items():
            face[(id_map[a], id_map[b])] = f if i < 0 else seam if i == 0 else base + i
        return id_map

    def _unsupported(self, *args):
        raise GraphError("a plane builder has no lift or strip")

    lift = strip = _unsupported


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


def to_networkx(g: Graph):
    """g as a networkx Graph, for vertex_connectivity_at_least."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(sorted(g.vertices))
    G.add_edges_from(sorted_edges(g))
    return G


def _face_walk(rot, d, stop=None, then=None):
    """The darts of d's face under rotation rot from d on, (v, w) after
    (u, v) for the w after u in v's rotation: round to d, or up to the first
    dart that ends at stop and, if then is given, goes on to (stop, then)."""
    walk = [d]
    while True:
        a, b = walk[-1]
        nxt = (b, rot[b][(rot[b].index(a) + 1) % len(rot[b])])
        if b == stop and then in (None, nxt[1]):
            return walk
        if nxt == d:
            if stop is None:
                return walk
            raise GraphError(f"the face walked from {d[0]} never reaches {stop}")
        walk.append(nxt)


def _walk_faces(rot):
    """The face boundary walks of a rotation system, each a list of darts
    starting at the smallest dart not yet on a face."""
    seen = set()
    out = []
    for d in sorted((v, u) for v, order in rot.items() for u in order):
        if d not in seen:
            out.append(_face_walk(rot, d))
            seen.update(out[-1])
    return out


class GadgetRows:
    """How Builder.insert adds a gadget's rows: interior vertex inner[i]
    lands on fresh id base + i, x_row and y_row list the offsets i of x's
    and y's neighbours, and inner_rows gives each interior vertex its port
    (1 for x, 2 for y, else 0) and its interior neighbours' offsets. x and
    y are not adjacent and x's neighbours come before y's, so a host row
    gains only fresh ids, in order even when x and y land on one vertex."""

    __slots__ = ("inner", "x_row", "y_row", "inner_rows")

    def __init__(self, g: Graph, x, y):
        self.inner = tuple(w for w in sorted(g.vertices) if w != x and w != y)
        offset = {w: i for i, w in enumerate(self.inner)}

        def offsets(w):
            return tuple(offset[t] for t in g.adjacency[w] if t in offset)

        self.x_row, self.y_row = offsets(x), offsets(y)
        if g.has_edge(x, y) or self.x_row[-1] >= self.y_row[0]:
            raise GraphError("a gadget's x must not be adjacent to y, and its neighbours "
                             "must come before y's")
        self.inner_rows = tuple((g.has_edge(w, x) + 2 * g.has_edge(w, y), offsets(w))
                                for w in self.inner)


class GadgetPlane:
    """How PlaneBuilder.insert lays a gadget into a face: a planar rotation
    system of the gadget's graph plus its edge xy, walked into faces once.
    x_fan and y_fan are x's and y's neighbours in rotation order, starting
    after y and after x; inner_rotation is every other vertex's rotation.
    face maps each dart except (x, y) and (y, x) to -1 if it lies on the face
    on the y-to-x side of xy, which the insertion merges with the host face,
    else to the offset of its new face: 0 for the x-to-y side of xy, 1, 2,
    ... for the inner faces in walk order. n_new counts the new faces."""

    __slots__ = ("x_fan", "y_fan", "inner_rotation", "face", "n_new")

    def __init__(self, rot, x, y):
        def fan(t, other):
            order = list(rot[t])
            i = order.index(other)
            return tuple(order[i + 1:] + order[:i])

        walks = _walk_faces(rot)
        where = {d: i for i, w in enumerate(walks) for d in w}
        fa, fb = where[(y, x)], where[(x, y)]
        inner = [i for i in range(len(walks)) if i != fa and i != fb]
        offset = {fa: -1, fb: 0, **{i: 1 + j for j, i in enumerate(inner)}}
        self.x_fan, self.y_fan = fan(x, y), fan(y, x)
        self.inner_rotation = {w: tuple(order) for w, order in rot.items() if w != x and w != y}
        self.face = {d: offset[i] for d, i in where.items() if {*d} != {x, y}}
        self.n_new = 1 + len(inner)


def faces(g: Graph, rotation):
    """All face boundary walks of the connected graph g embedded by
    rotation (each vertex's neighbours in cyclic order). Checks that
    rotation lists exactly g's edges at every vertex and that the walks
    satisfy Euler's formula, so the walks prove g itself planar."""
    if rotation.keys() != g.vertices:
        raise GraphError("rotation must cover exactly the vertex set")
    for v, order in rotation.items():
        if tuple(sorted(order)) != g.adjacency[v]:
            raise GraphError(f"rotation at {v} does not match incident edges")
    if not is_connected(g):
        raise GraphError("faces require connected graph")
    if g.m == 0:
        return [sorted(g.vertices)]
    walks = _walk_faces(rotation)
    if g.n - g.m + len(walks) != 2:
        raise GraphError("rotation system is not a planar embedding")
    return [[u for u, _ in walk] for walk in walks]


def embeds(g: Graph, rotation) -> bool:
    """Whether rotation (None for none) is a plane embedding of g: whether
    faces() accepts it."""
    try:
        return rotation is not None and bool(faces(g, rotation))
    except GraphError:
        return False


def cycle_cover_error(g: Graph, cycles) -> str | None:
    """Why cycles, a list of vertex orders, are not disjoint cycles of g,
    each of length at least 3, that together cover g's vertices; None if
    they are. The one check of a cycle certificate: a HamCycleWitness is
    one such cycle, a 2-factor several."""
    seen = set()
    for cyc in cycles:
        if len(cyc) < 3:
            return "cycle shorter than 3"
        for i, v in enumerate(cyc):
            if v in seen:
                return "cycles are not disjoint"
            seen.add(v)
            if not g.has_edge(v, cyc[i - 1]):
                return "uses a non-edge"
    # every vertex seen lies on an edge of g, so counting them suffices
    if len(seen) != g.n:
        return "does not span all vertices"
    return None


@dataclass(frozen=True)
class HamCycleWitness:
    """A Hamiltonian cycle given as the vertex order it visits."""

    order: tuple

    def is_valid_for(self, g: Graph) -> bool:
        return cycle_cover_error(g, (self.order,)) is None


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
    """One replayable reduction event, a plain record; textio writes and
    reads its JSON form. Its budget delta is not recorded: Builder derives
    it from the op whenever the step is applied."""

    stage: str
    op: str  # subdivide | insert | strip | copy | lift
    gadget: str | None = None
    p: int | None = None
    attach: tuple = ()
    edge: tuple | None = None
    face: tuple | None = None  # a pairing insert's dart(s); see PlaneBuilder.insert
