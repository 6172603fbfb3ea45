"""The staged reduction compiler. Each stage consumes an Instance and
produces an equivalent one on a more restricted class, together with a
replayable trace of subdivisions and gadget insertions whose budget deltas
sum to the output budget. Stages and replay edit graphs only through
Builder, so every delta is derived in one place."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .gadgets import build_gadget, interior_path, y_size
from .geometry import grid_embed
from .graph import (
    Builder,
    Graph,
    GraphError,
    HamCycleWitness,
    Instance,
    PlaneBuilder,
    check_regular,
    cycle_cover_error,
    embeds,
    is_connected,
    quoted,
    regularity,
    sorted_edges,
    _norm_edge,
)
from .solvers import check_ore_condition, check_planarity, find_hamiltonian_cycle

# the gadgets that carry a plane, which PlaneBuilder.insert lays into a face
GADGETS = {kind: build_gadget(kind) for kind in ("R", "L", "D")}
_L = GADGETS["L"]

# the most edges a Y round or a lift may build; a target beyond it is refused
# before its first round
MAX_OUTPUT_EDGES = 2_000_000


class PipelineError(ValueError):
    pass


class CertificationError(PipelineError):
    """A trace or artifact failed re-verification."""


@dataclass(frozen=True)
class ClassCertificate:
    """Structural facts about a stage output: its common degree, if any,
    and whether the stage keeps a planar input planar. What a run's output
    must satisfy is its target's, which certify checks."""

    regular: int | None
    planar: bool


@dataclass(frozen=True)
class TwoFactor:
    """Spanning disjoint cycle cover; merging its cycles one by one yields
    the Hamiltonian witness."""

    components: tuple

    def validate(self, g: Graph):
        why = cycle_cover_error(g, self.components)
        if why is not None:
            raise PipelineError(f"2-factor {why}")
        return True


@dataclass(frozen=True)
class StageResult:
    name: str
    instance: Instance
    steps: tuple
    audit: object = None
    # the rotation system of the output that a planar stage's PlaneBuilder kept
    rotation: dict | None = None

    @property
    def certificate(self) -> ClassCertificate:
        """Derived when read; the clique-building stages give up planarity."""
        return _certificate(self.instance, self.name not in ("pregular", "lift"))


def _certificate(inst: Instance, claim_planar: bool) -> ClassCertificate:
    """The certificate of a stage output."""
    return ClassCertificate(regularity(inst.graph), claim_planar)


def _finish(b: Builder, witness=None, audit=None) -> StageResult:
    """The result of stage b.stage, whose output b built: b's graph, frozen,
    with b's budget and with witness (a vertex order, or None) as its
    Hamiltonian cycle; b's steps; audit; and b's rotation if it has one.
    Every StageResult is built here."""
    out = Instance(b.freeze(), b.k, None if witness is None else HamCycleWitness(tuple(witness)))
    return StageResult(b.stage, out, tuple(b.steps), audit,
                       b.rotation if isinstance(b, PlaneBuilder) else None)


class Plane(NamedTuple):
    """A planarity proof of a chain's last graph: a rotation system (or None)
    of graph, the last graph or one that 2-sums take to it, and its stage."""

    name: str
    graph: Graph
    rotation: dict | None

    def failed(self) -> bool:
        """Whether the proof fails: no rotation, or faces(), which checks it
        against graph's edges and Euler's formula, refuses it."""
        return not embeds(self.graph, self.rotation)


def _two_sums(g: Graph, steps) -> bool:
    """Whether every step is a 2-sum: a gadget with a plane across an edge of g."""
    return all(s.op == "insert" and s.gadget in GADGETS and len(s.attach) == 2
               and g.has_edge(*s.attach) for s in steps)


def _require(cond, msg):
    if not cond:
        raise PipelineError(msg)


def eliminate_degree_two(inst: Instance) -> StageResult:
    """Remove degree-2 vertices from the class by attaching one R gadget at
    (v, v) per such vertex, raising each to degree four."""
    g = inst.graph
    _require(is_connected(g), "precondition: connected graph required")
    for v in sorted(g.vertices):
        if not 2 <= g.degree(v) <= 4:
            raise PipelineError(f"precondition: vertex {v} has degree {g.degree(v)}, need 2..4")
    b = Builder(g, inst.k, "degree2")
    for v in sorted(v for v in g.vertices if g.degree(v) == 2):
        b.insert(GADGETS["R"], v, v)
    return _finish(b)


@dataclass(frozen=True)
class PairingAudit:
    """What pairing decided: routes, the maximal chains of R inserts, which
    run through the subdivision vertices (dissolution_vertices, each on its
    edge of graph, the stage input, in subdivided); pairs, their ends. The
    drawing is derived when first read: grid_embed's of graph, with each
    subdivision vertex at its edge's midpoint."""

    graph: Graph
    pairs: tuple
    routes: tuple
    dissolution_vertices: tuple
    subdivided: tuple
    crossings = ()  # chords of consecutive points on one face walk cross nothing

    @cached_property
    def embedding(self):
        return grid_embed(self.graph)

    @cached_property
    def coords_after(self) -> dict:
        coords = dict(self.embedding.coords)
        for w, (u, v) in zip(self.dissolution_vertices, self.subdivided):
            (x0, y0), (x1, y1) = coords[u], coords[v]
            coords[w] = (Fraction(x0 + x1, 2), Fraction(y0 + y1, 2))
        return coords

    @cached_property
    def drawn_edges_after(self) -> tuple:
        split = set(self.subdivided)
        edges = [e for e in sorted_edges(self.graph) if e not in split]
        for w, (u, v) in zip(self.dissolution_vertices, self.subdivided):
            edges += [(u, w), (v, w)]  # w is fresh: above u and v
        return tuple(sorted(edges))


def pair_degree_three(inst: Instance) -> StageResult:
    """Raise every degree-3 vertex to degree four by a T-join in the
    vertex-face graph of the input's LR rotation. A degree-3 vertex's point
    is its corner on its face of least depth (the lowest such face) in a
    BFS tree of the dual from the face of the smallest dart. From the
    leaves up, a face with an odd number of points subdivides the edge of
    its tree edge, and the fresh vertex gets a point on each side. Each
    face pairs its points consecutively along its walk from its smallest
    dart, one R gadget per pair laid through both corners' darts: such
    chords never cross, and no tree edge is a bridge, so no vertex has two
    points on one face."""
    g = inst.graph
    _require(is_connected(g), "precondition: connected graph required")
    for v in sorted(g.vertices):
        if not 3 <= g.degree(v) <= 4:
            raise PipelineError(f"precondition: vertex {v} has degree {g.degree(v)}, need 3..4")
    planar, rotation = check_planarity(g)
    _require(planar, "precondition: planar graph required")
    b = PlaneBuilder(g, rotation, inst.k, "pairing")
    face, walks = b.face, b.walks
    at = {d: i for walk in walks for i, d in enumerate(walk)}
    # the dual's BFS tree, each face's neighbours visited in face order: each
    # face's depth and its tree edge's dart on its parent's side, the last
    # on the parent's walk that the two faces share
    depth, up, order = {0: 0}, {}, [0]
    for f in order:
        across = {face[(w, u)]: (u, w) for u, w in walks[f]}
        for h in sorted(across):
            if h not in depth:
                depth[h], up[h] = depth[f] + 1, across[h]
                order.append(h)
    # each face's points as (place on its walk, corner dart): a corner before
    # dart d at 2 at[d], a subdivision vertex on dart d at 2 at[d] + 1
    points = [[] for _ in walks]
    for v in g.vertices:
        if g.degree(v) == 3:
            d = v, min(rotation[v], key=lambda q: (depth[face[(v, q)]], face[(v, q)]))
            points[face[d]].append((2 * at[d], d))
    dissolution, subdivided = [], []
    mid = {}  # each subdivided dart's subdivision vertex
    for h in reversed(order[1:]):
        if len(points[h]) % 2:
            u, w = up[h]
            z = mid[(u, w)] = mid[(w, u)] = b.subdivide((u, w))
            points[h].append((2 * at[(w, u)] + 1, (z, u)))
            points[face[(u, z)]].append((2 * at[(u, w)] + 1, (z, w)))
            dissolution.append(z)
            subdivided.append(_norm_edge(u, w))
    links = {}
    for pts in points:
        pts.sort()
        for (_, (x, qx)), (_, (y, qy)) in zip(pts[::2], pts[1::2]):
            # a corner before a subdivided dart lies before its first half
            dart = (x, mid.get((x, qx), qx), y, mid.get((y, qy), qy))
            b.insert(GADGETS["R"], x, y, dart)
            links.setdefault(x, []).append(y)
            links.setdefault(y, []).append(x)
    routes = []  # the chains of inserts, each from its smaller end
    for v in sorted(w for w, ns in links.items() if len(ns) == 1):
        chain = [v, *links[v]]
        while len(links[chain[-1]]) == 2:
            a, c = links[chain[-1]]
            chain.append(c if a == chain[-2] else a)
        if v < chain[-1]:
            routes.append(tuple(chain))
    return _finish(b, audit=PairingAudit(g, tuple((r[0], r[-1]) for r in routes), tuple(routes),
                                         tuple(dissolution), tuple(subdivided)))


def _find(parent, v):
    """v's root in the union-find forest parent, halving its path."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def _euler_arcs(adj, start) -> dict:
    """Each vertex's out-neighbours once every edge of a connected graph with
    even degrees is oriented the way an Euler circuit from start runs it:
    Hierholzer's walk, on an explicit stack. Every vertex gets as many
    out-neighbours as in-neighbours."""
    rest = {v: list(row) for v, row in adj.items()}
    out = {v: [] for v in adj}
    stack = [start]
    while stack:
        v = stack[-1]
        if rest[v]:
            w = rest[v].pop(0)
            rest[w].remove(v)
            out[v].append(w)
            stack.append(w)
        else:
            stack.pop()
    return out


def _alternations(out: dict):
    """The cycles of the out/in bipartite graph of an orientation that gives
    every vertex two out- and two in-neighbours. That graph is 2-regular, so
    each of its cycles has exactly two perfect matchings, its alternations;
    yields each cycle's pair as lists of (vertex, successor) arcs."""
    ins = {v: [] for v in out}
    for v, ws in out.items():
        for w in ws:
            ins[w].append(v)
    seen = set()
    for v in sorted(out):
        if v in seen:
            continue
        alt = ([], [])
        u, w = v, out[v][0]
        while True:
            seen.add(u)
            alt[0].append((u, w))
            a, b = ins[w]
            u = b if a == u else a
            alt[1].append((u, w))
            if u == v:
                break
            a, b = out[u]
            w = b if a == w else a
        yield alt


def _closes(parent, arcs) -> int:
    """How many cycles arcs would close if added to the union-find parent."""
    local = {}
    closed = 0
    for u, w in arcs:
        a, b = _find(parent, u), _find(parent, w)
        while a in local:
            a = local[a]
        while b in local:
            b = local[b]
        if a == b:
            closed += 1
        else:
            local[a] = b
    return closed


def _switch_at(adj, nb, parent, a) -> bool:
    """Make a free 4-cycle switch at a, if one exists: a 2-factor edge ac, a
    spare edge ab, a 2-factor edge bd on another cycle and a spare edge dc
    become spare ac and bd and 2-factor ab and cd, which joins the cycles."""
    for c in nb[a]:
        for b in adj[a]:
            if b in nb[a] or _find(parent, a) == _find(parent, b):
                continue
            for d in nb[b]:
                if d in adj[c] and d not in nb[c]:
                    for x, old, new in ((a, c, b), (b, d, a), (c, a, d), (d, b, c)):
                        nb[x][nb[x].index(old)] = new
                    parent[_find(parent, a)] = _find(parent, b)
                    return True
    return False


def compute_two_factor(g: Graph) -> TwoFactor:
    """2-factor of a 4-regular connected graph with few cycles, in linear
    time and without recursion, as in Petersen's 2-factor theorem. Orient an Euler circuit; each
    cycle of the out/in bipartite graph then offers two alternations, and
    the one that closes fewer cycles is kept, tracked by a union-find over
    the 2-factor's cycles. Free 4-cycle switches then join cycles in sweeps
    until a sweep makes none."""
    _require(check_regular(g, 4), "precondition: 4-regular graph required")
    _require(is_connected(g) and g.n > 0, "connected required")
    adj = g.adjacency
    parent = {v: v for v in adj}
    nb = {v: [] for v in adj}
    for alt in _alternations(_euler_arcs(adj, min(adj))):
        for u, w in min(alt, key=lambda arcs: _closes(parent, arcs)):
            nb[u].append(w)
            nb[w].append(u)
            parent[_find(parent, u)] = _find(parent, w)
    order = sorted(adj)
    while sum(_switch_at(adj, nb, parent, a) for a in order):
        pass  # another sweep: the last one made a switch
    comps = []
    seen = set()
    for v in order:
        if v not in seen:
            comps.append(_walk_cycle(nb, v, min(nb[v])))
            seen.update(comps[-1])
    tf = TwoFactor(tuple(comps))
    tf.validate(g)
    return tf


def _walk_cycle(nb, start, nxt) -> tuple:
    """The cycle through start of nb, a map from each vertex to its two
    neighbours on a cycle, walked from start towards nxt."""
    cyc = [start]
    prev, cur = start, nxt
    while cur != start:
        cyc.append(cur)
        a, b = nb[cur]
        prev, cur = cur, (b if a == prev else a)
    return tuple(cyc)


def _cycle_long_way(cycle, frm, to):
    """Walk the whole cycle from frm to to, its neighbour on the cycle,
    avoiding their direct edge."""
    L = len(cycle)
    i = cycle.index(frm)
    step = -1 if cycle[(i + 1) % L] == to else 1
    return [cycle[(i + step * t) % L] for t in range(L)]


class MergeState:
    """The hamiltonize stage between merges: one PlaneBuilder that every
    merge edits in place, the 2-factor as each vertex's two cycle neighbours,
    a union-find parent over its cycles, each rooted at its first vertex, the
    count of cycles left, and a heap of the edges that join two cycles. Heap
    entries go stale when their edge is subdivided or its cycles merge and
    are dropped when popped, so the heap yields the smallest connecting edge."""

    def __init__(self, inst: Instance, tf: TwoFactor, rotation):
        g = inst.graph
        self.builder = PlaneBuilder(g, rotation, inst.k, "hamiltonize")
        self.nb = {}
        self.parent = parent = {}
        for cyc in tf.components:
            for i, v in enumerate(cyc):
                self.nb[v] = [cyc[i - 1], cyc[(i + 1) % len(cyc)]]
                parent[v] = cyc[0]
        self.cycles = len(tf.components)
        # the latest merged cycle's first two vertices: where cycle() starts
        # its walk and which way it goes
        self.head = tuple(tf.components[0][:2])
        self.heap = [e for e in sorted_edges(g) if _find(parent, e[0]) != _find(parent, e[1])]

    def cycle_edges(self, u):
        return sorted(_norm_edge(u, w) for w in self.nb[u])

    def cofacial(self, e1, e2):
        face = self.builder.face
        return not {face[e1], face[e1[::-1]]}.isdisjoint((face[e2], face[e2[::-1]]))

    def case1(self, u, v):
        """(e, ep): the first cycle edges at u and at v, in sorted order,
        that share a face; None if there are none."""
        at_u, at_v = self.cycle_edges(u), self.cycle_edges(v)
        return next(((e, ep) for e in at_u for ep in at_v if self.cofacial(e, ep)), None)

    def case2(self, u, v):
        """(e, et, ep): the first spare edge et at u and cycle edges e at u
        and ep at v, in sorted order, such that et shares a face with each;
        None if there are none."""
        at_u, at_v = self.cycle_edges(u), self.cycle_edges(v)
        spare = sorted(_norm_edge(u, w) for w in self.builder.rotation[u]
                       if w != v and w not in self.nb[u])
        return next(((e, et, ep) for et in spare for e in at_u for ep in at_v
                     if self.cofacial(e, et) and self.cofacial(et, ep)), None)

    def cycle(self) -> tuple:
        """The merged cycle, walked from its head; once one cycle is left,
        the Hamiltonian cycle of the builder's graph."""
        return _walk_cycle(self.nb, *self.head)

    def join(self, u, v, u2, v2, path, head):
        """Re-thread the cycles of u and v into one: drop the cycle edges
        (u, u2) and (v, v2) and add (u, v) and the path between u2 and v2
        whose inner vertices are the merge's new ones. head is the merged
        cycle's first two vertices."""
        nb = self.nb
        new_vertices = path[1:-1]
        for a, b in ((u, u2), (v, v2)):
            nb[a].remove(b)
            nb[b].remove(a)
        nb[u].append(v)
        nb[v].append(u)
        for w in new_vertices:
            nb[w] = []
        for a, b in zip(path, path[1:]):
            nb[a].append(b)
            nb[b].append(a)
        parent = self.parent
        root = _find(parent, v)
        parent[_find(parent, u)] = root
        for w in new_vertices:
            parent[w] = root
        self.cycles -= 1
        self.head = head
        rot = self.builder.rotation
        for w in new_vertices:
            for t in rot[w]:
                if _find(parent, t) != root:
                    heapq.heappush(self.heap, _norm_edge(w, t))


def merge_step(state: MergeState):
    """Merge two 2-factor cycles joined by an edge {u, v} into one, keeping
    4-regularity and planarity. Case 1: a cycle edge at u and one at v lie
    on a common face, which one L gadget bridges (budget +4). Case 2: the
    spare edge at u shares a face with a cycle edge at u and with one at v,
    and is threaded through two L gadgets (budget +8). The merge takes the
    smallest connecting edge that admits case 1 or, if none does, the
    smallest that admits case 2. Edits state in place. Returns (u, v, the
    steps recorded, the case)."""
    _require(state.cycles > 1, "already Hamiltonian")
    held = []  # live connecting edges without a case 1, in sorted order
    found = None
    while state.heap and found is None:
        u, v = heapq.heappop(state.heap)
        if _find(state.parent, u) == _find(state.parent, v) or not state.builder.has_edge(u, v):
            continue  # stale: its cycles are merged or it is subdivided
        found = state.case1(u, v)
        if found is None:
            held.append((u, v))
    if found is None:
        for i, (u, v) in enumerate(held):
            found = state.case2(u, v)
            if found is not None:
                del held[i]
                break
    for e in held:
        heapq.heappush(state.heap, e)
    _require(found is not None, "no mergeable configuration found")
    b = state.builder
    n_steps = len(b.steps)
    (_merge_case1 if len(found) == 2 else _merge_case2)(state, u, v, *found)
    return u, v, tuple(b.steps[n_steps:]), len(found) - 1


def _other_end(e, v):
    return e[0] if e[1] == v else e[1]


def _merge_case1(state, u, v, e, ep):
    b = state.builder
    u2 = _other_end(e, u)
    v2 = _other_end(ep, v)
    z = b.subdivide(e)
    zp = b.subdivide(ep)
    interior = interior_path(_L, b.insert(_L, z, zp))
    # merged cycle: z, u2 .. u, v .. v2, zp, the interior backwards
    state.join(u, v, u2, v2, [v2, zp, *reversed(interior), z, u2], (z, u2))


def _merge_case2(state, u, v, e, et, ep):
    b = state.builder
    u2 = _other_end(e, u)
    wt = _other_end(et, u)
    v2 = _other_end(ep, v)
    z = b.subdivide(e)
    zt1 = b.subdivide(et)
    zt2 = b.subdivide(_norm_edge(zt1, wt))
    zp = b.subdivide(ep)
    int1 = interior_path(_L, b.insert(_L, z, zt1))
    int2 = interior_path(_L, b.insert(_L, zt2, zp))
    # merged cycle: z, the first interior, zt1, zt2, the second, zp, v2 .. v, u .. u2
    state.join(u, v, u2, v2, [u2, z, *int1, zt1, zt2, *int2, zp, v2], (z, int1[0]))


def hamiltonize(inst: Instance, rotation) -> StageResult:
    """Merge the 2-factor down to a single spanning cycle, each merge joining
    two of its at most n/3 cycles or raising. All merges edit one plane builder
    started from rotation, a rotation system of inst.graph; audit counts them."""
    state = MergeState(inst, compute_two_factor(inst.graph), rotation)
    merges = state.cycles - 1
    while state.cycles > 1:
        merge_step(state)
    return _finish(state.builder, state.cycle(), merges)


def evenize(inst: Instance, rotation) -> StageResult:
    """Force an even vertex count: duplicate the instance, doubly subdivide
    one witness edge in each copy, and bridge the copies with two L gadgets.
    Budget doubles plus 8; the order becomes 2n + 24. A plane builder started
    from rotation, a rotation system of inst.graph, copies it too."""
    _require(inst.witness is not None, "precondition: witness required")
    C = inst.witness.order
    b = PlaneBuilder(inst.graph, rotation, inst.k, "evenize")
    if b.n % 2 == 0:
        return _finish(b, C)
    a, c = min(map(_norm_edge, C, C[1:] + C[:1]))
    cmap = b.copy()
    ap, cp = cmap[a], cmap[c]
    v1 = b.subdivide((a, c))
    w1 = b.subdivide((v1, c))
    v2 = b.subdivide((ap, cp))
    w2 = b.subdivide((v2, cp))
    idm1 = b.insert(_L, v1, v2)
    idm2 = b.insert(_L, w1, w2)
    # splice: original cycle from c around to a, through the first L into the
    # copy, around it, and back through the second L
    return _finish(b, [*_cycle_long_way(C, c, a), v1, *interior_path(_L, idm1), v2,
                       *(cmap[x] for x in _cycle_long_way(C, a, c)),
                       w2, *reversed(interior_path(_L, idm2)), w1])


def _gadget_round(b: Builder, gadget, order) -> tuple:
    """Insert one gadget across every second edge of the Hamiltonian cycle
    order, (order[0], order[1]), (order[2], order[3]), ...; returns the cycle
    threaded through each gadget's interior."""
    new_order = []
    for i in range(0, len(order), 2):
        x, y = order[i], order[i + 1]
        new_order += [x] + interior_path(gadget, b.insert(gadget, x, y)) + [y]
    return tuple(new_order)


def five_regularize(inst: Instance) -> StageResult:
    """One D gadget across every second witness edge lifts the whole graph
    from 4-regular to 5-regular; budget grows by 3n."""
    g = inst.graph
    _require(inst.witness is not None, "precondition: witness required")
    _require(check_regular(g, 4), "precondition: 4-regular graph required")
    _require(g.n % 2 == 0, "evenize first")
    b = Builder(g, inst.k, "5regular")
    return _finish(b, _gadget_round(b, GADGETS["D"], inst.witness.order))


def p_regularize(inst: Instance, target_p: int) -> StageResult:
    """Repeated rounds of Y gadget insertions across a witness matching: a
    Y_q round multiplies n by q + 2, which keeps it even, and raises the
    regularity from q to q + 1. certify checks that the output is
    target_p-regular."""
    g = inst.graph
    _require(inst.witness is not None, "precondition: witness required")
    r = regularity(g)
    _require(r is not None, "precondition: regular graph required")
    _require(r >= 4, "precondition: regularity >= 4 required")
    _require(r <= target_p, f"already {r}-regular, beyond target {target_p}")
    _require(g.n % 2 == 0, "evenize first")
    n = g.n
    for q in range(r, target_p):
        n *= q + 2  # a Y_q round multiplies n by q + 2 and makes the graph (q + 1)-regular
        _require(n * (q + 1) // 2 <= MAX_OUTPUT_EDGES,
                 f"preg-ham:{target_p} would build more than {MAX_OUTPUT_EDGES} edges")
    b = Builder(g, inst.k, "pregular")
    order = inst.witness.order
    for q in range(r, target_p):
        order = _gadget_round(b, build_gadget("Y", q), order)
    return _finish(b, order)


def ham_ordered_lift(inst: Instance, target_p: int) -> StageResult:
    """Lift a Hamiltonian instance (3-Hamiltonian-ordered by definition) to
    target_p-Hamiltonian-ordered via target_p - 3 join steps. Each join
    keeps the graph Hamiltonian, grows the budget by 3n and, the one for p,
    meets the degree-sum sufficiency condition for p, which certify checks
    of the output at target_p."""
    _require(inst.witness is not None, "precondition: witness required")
    _require(target_p >= 3, "precondition: target p >= 3 required")
    n, m = inst.graph.n, inst.graph.m
    for _ in range(4, target_p + 1):
        m += _lift_edges(n)
        n = 4 * n + 2
        _require(m <= MAX_OUTPUT_EDGES,
                 f"ham-ordered:{target_p} would build more than {MAX_OUTPUT_EDGES} edges")
    b = Builder(inst.graph, inst.k, "lift")
    order = list(inst.witness.order)
    for _ in range(4, target_p + 1):
        clique, x, y = b.lift()
        order += [clique[0], x, y] + clique[1:]
    return _finish(b, order)


def _lift_edges(n):
    """The edges a lift adds to n vertices: a K_3n joined to them and a pair
    joined to it and to each other."""
    return 3 * n * n + 3 * n * (3 * n - 1) // 2 + 6 * n + 1


PLANAR_TARGETS = ("4reg-planar", "4reg-planar-ham", "5reg-planar-ham")
# every name a stage result, and so a trace stage, carries
STAGE_NAMES = ("strip", "degree2", "pairing", "hamiltonize", "evenize", "5regular",
               "pregular", "lift")


def parse_target(target: str):
    """(kind, p) of a target name; p is None for the planar targets, and
    spelled as str(p) writes it. Any other value, a string or not, is
    refused."""
    if target in PLANAR_TARGETS:
        return target, None
    for prefix in ("preg-ham:", "ham-ordered:"):
        if isinstance(target, str) and target.startswith(prefix):
            spelled = target[len(prefix):]
            try:
                p = int(spelled)
            except ValueError:
                p = None
            if p is None or spelled != str(p):
                raise PipelineError(f"malformed target {quoted(target)}")
            if prefix == "preg-ham:" and p < 4:
                raise PipelineError("preg-ham requires p >= 4")
            if prefix == "ham-ordered:" and p < 3:
                raise PipelineError("ham-ordered requires p >= 3")
            return prefix[:-1], p
    raise PipelineError(f"unknown target {quoted(target)}")


def target_class(target: str) -> tuple:
    """What target's outputs must be, as (regular, planar, witness, ore):
    regular of that degree (None: any degrees), planar, carrying a
    Hamiltonian witness, and meeting the degree-sum condition for that p
    (None: no condition). The only map from a target to the properties
    that certify checks."""
    kind, p = parse_target(target)
    if kind in PLANAR_TARGETS:
        return 5 if kind == "5reg-planar-ham" else 4, True, kind != "4reg-planar", None
    if kind == "preg-ham":
        return p, False, True, None
    # every Hamiltonian graph is 3-Hamiltonian-ordered
    return None, False, True, p if p >= 4 else None


def certify(target: str, inst: Instance, plane: Plane) -> None:
    """Raise CertificationError naming target and the property that fails
    unless inst, the last graph of a chain, lies in target's class, for
    run_pipeline and verify_trace alike; plane is read for a planar target."""
    regular, planar, witness, ore = target_class(target)
    g = inst.graph
    why = None
    if regular is not None and not check_regular(g, regular):
        why = f"output is not {regular}-regular"
    elif planar and plane.failed():
        why = f"stage {plane.name}: planarity claim fails"
    elif witness and inst.witness is None:
        why = "output carries no Hamiltonian witness"
    elif ore is not None and not (ore <= g.n and check_ore_condition(g, ore)):
        why = f"output fails the degree-sum condition for p={ore}"
    if why is not None:
        raise CertificationError(f"target {target}: {why}")


@dataclass(frozen=True)
class PipelineResult:
    input: Instance
    stages: tuple
    instance: Instance
    target: str


def run_pipeline(inst: Instance, target: str) -> PipelineResult:
    """Compile inst onto the target class, and certify the output as verify_trace
    does: by the last stage's rotation, or by its input's and the 2-sum rule."""
    stages = _run_stages(inst, target)
    last, before = stages[-1], stages[max(len(stages) - 2, 0)]
    g, rotation = last.instance.graph, last.rotation
    if rotation is None and _two_sums(before.instance.graph, last.steps):
        g, rotation = before.instance.graph, before.rotation
    certify(target, last.instance, Plane(last.name, g, rotation))
    return PipelineResult(inst, tuple(stages), last.instance, target)


def _run_stages(inst: Instance, target: str) -> list:
    kind, p = parse_target(target)
    stages = []

    def push(sr):
        stages.append(sr)
        return sr

    if kind == "ham-ordered":
        cur = inst
        if cur.witness is None:
            w = find_hamiltonian_cycle(cur.graph)
            _require(w is not None, "precondition: Hamiltonian input required")
            cur = Instance(cur.graph, cur.k, w)
        push(ham_ordered_lift(cur, p))
        return stages

    b = Builder(inst.graph, inst.k, "strip")
    b.strip()
    _require(b.n > 0, "precondition: graph empty after stripping")
    cur = inst
    if b.n < inst.graph.n:  # strip only deletes vertices: it changed the graph
        cur = push(_finish(b)).instance
    sr = push(eliminate_degree_two(cur))
    sr = push(pair_degree_three(sr.instance))
    if kind == "4reg-planar":
        return stages
    sr = push(hamiltonize(sr.instance, sr.rotation))
    if kind == "4reg-planar-ham" or (kind == "preg-ham" and p == 4):
        return stages
    if sr.instance.graph.n % 2:
        sr = push(evenize(sr.instance, sr.rotation))
    sr = push(five_regularize(sr.instance))
    if kind == "5reg-planar-ham" or (kind == "preg-ham" and p == 5):
        return stages
    # only preg-ham with p >= 6 remains
    push(p_regularize(sr.instance, p))
    return stages


def replay_trace(g: Graph, steps, k: int = 0, *, out: tuple, rotation=None) -> tuple:
    """Re-execute recorded steps on g, whose budget is k, through the same
    Builder ops the compiler used, on a PlaneBuilder started from rotation
    if given, with fresh ids from the same counter; returns the graph, the
    derived delta and the rotation (or None). A step that differs from its
    replay in any field, cannot be applied, or would grow the graph beyond
    out, the output's (n, m), raises CertificationError naming the stage
    and step index."""
    b = Builder(g, k) if rotation is None else PlaneBuilder(g, rotation, k)
    ys = {}
    m = g.m
    for i, s in enumerate(steps):
        b.stage = s.stage
        try:
            m = _replay_step(b, s, ys, m, *out)
        except (GraphError, PipelineError) as exc:
            raise CertificationError(f"stage {s.stage} step {i}: {exc}") from None
        derived = b.steps[-1]
        if derived != s:
            diff = ", ".join(
                f"{f} recorded {quoted(getattr(s, f))}, "
                f"replay derives {quoted(getattr(derived, f))}"
                for f in ("op", "gadget", "p", "attach", "edge", "face")
                if getattr(s, f) != getattr(derived, f)
            )
            raise CertificationError(f"stage {s.stage} step {i}: {diff}")
    return b.freeze(), b.k - k, None if rotation is None else b.rotation


def replay_stages(target: str, g: Graph, k: int, stages, out: tuple) -> tuple:
    """Replay a trace's stages, each (name, steps, k_after), on its input g
    of budget k, checking the ledger at each k_after; out bounds the graph
    as in replay_trace; returns the last graph, its budget and its Plane.
    For a planar target one LR test runs on the input of the first stage
    with a step other than strip or a same-vertex insert (pairing's), and
    later stages but a last one of 2-sums replay on PlaneBuilders, as in the
    compiler."""
    lr_test, rotation, plane = target_class(target)[1], None, Plane("input", g, None)
    for i, (name, steps, k_after) in enumerate(stages):
        if lr_test and any(s.op not in ("strip", "insert") or s.attach[:1] != s.attach[1:2]
                           for s in steps):
            lr_test, rotation = False, check_planarity(g)[1]
        two_sums = rotation is not None and i == len(stages) - 1 and _two_sums(g, steps)
        plane = Plane(name, g, rotation)  # the last stage's, if two_sums
        try:  # the PlaneBuilder refuses a rotation of a disconnected graph
            g, dk, rotation = replay_trace(g, steps, k, out=out,
                                           rotation=None if two_sums else rotation)
        except GraphError as exc:
            raise CertificationError(f"stage {name}: {exc}") from None
        k += dk
        if k != k_after:
            raise CertificationError(f"stage {name}: ledger k={k} disagrees with recorded "
                                     f"{k_after}")
        if not two_sums:
            plane = Plane(name, g, rotation)
    if lr_test:
        plane = plane._replace(rotation=check_planarity(g)[1])
    return g, k, plane


def _replay_step(b: Builder, s, ys, m, n_out, m_out) -> int:
    """Apply step s to b, which has m edges; returns the edges after it."""
    # Strip runs first and only shrinks the graph; every other op only grows
    # it, by a size known before the op runs, so a faithful trace never
    # needs more than the output's n vertices and m edges for them.
    def room(dn, dm):
        _require(b.n + dn <= n_out and m + dm <= m_out,
                 f"{s.op} would grow the graph to {b.n + dn} vertices and {m + dm} "
                 f"edges, beyond the output's {n_out} and {m_out}")
        return m + dm

    if s.op == "subdivide":
        _require(s.edge is not None, "subdivide names no edge")
        m = room(1, 1)
        b.subdivide(s.edge)
    elif s.op == "insert":
        _require(len(s.attach) == 2, "insert names no attachment pair")
        if s.gadget == "Y":
            # a Y_p insertion only ever lands in a p-regular graph, so p < n
            p = s.p
            _require(p is not None and p < b.n, f"Y_p with p={p} on {b.n} vertices")
            gn, gm = y_size(p)
            m = room(gn - 2, gm)
            gadget = ys[p] = ys.get(p) or build_gadget("Y", p)
        else:
            gadget = GADGETS.get(s.gadget) or build_gadget(s.gadget)
            m = room(gadget.graph.n - 2, gadget.graph.m)
        b.insert(gadget, *s.attach, s.face)
    elif s.op == "copy":
        m = room(b.n, m)
        b.copy()
    elif s.op == "lift":
        m = room(3 * b.n + 2, _lift_edges(b.n))
        b.lift()
    elif s.op == "strip":
        b.strip()
        m = sum(map(b.degree, b.vertices)) // 2
    else:
        raise PipelineError(f"unknown trace op {quoted(s.op)}")
    return m
