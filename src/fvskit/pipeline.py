"""The staged reduction compiler. Each stage consumes an Instance and
produces an equivalent one on a more restricted class, together with a
replayable trace of subdivisions and gadget insertions whose budget deltas
sum to the output budget. Stages and replay edit graphs only through
Builder, so every delta is derived in one place."""

from __future__ import annotations

from dataclasses import dataclass

from .gadgets import build_gadget, interior_path
from .geometry import (
    crossings_on,
    find_crossings,
    grid_embed,
    pick_epsilon,
    route_connection,
    scan_key,
)
from .graph import (
    Builder,
    Graph,
    GraphError,
    HamCycleWitness,
    Instance,
    PlaneGraph,
    ReductionTrace,
    check_regular,
    face_edge_sets,
    is_connected,
    _norm_edge,
)
from .solvers import check_ore_condition, check_planarity, find_hamiltonian_cycle

GADGETS = {kind: build_gadget(kind) for kind in ("R", "L", "D")}


class PipelineError(ValueError):
    pass


class CertificationError(PipelineError):
    """A trace or artifact failed re-verification."""


@dataclass(frozen=True)
class ClassCertificate:
    """Structural facts about a stage output, re-verified from scratch."""

    regular: int | None
    planar: bool
    witness: bool
    even: bool

    def to_json(self):
        return {
            "regular": self.regular,
            "planar": self.planar,
            "witness": self.witness,
            "even": self.even,
        }


@dataclass(frozen=True)
class TwoFactor:
    """Spanning disjoint cycle cover; merging its cycles one by one yields
    the Hamiltonian witness."""

    components: tuple

    def validate(self, g: Graph):
        seen = set()
        for cyc in self.components:
            if len(cyc) < 3:
                raise PipelineError("2-factor cycle shorter than 3")
            for i, v in enumerate(cyc):
                if v in seen:
                    raise PipelineError("2-factor cycles are not disjoint")
                seen.add(v)
                if not g.has_edge(v, cyc[(i + 1) % len(cyc)]):
                    raise PipelineError("2-factor uses a non-edge")
        if seen != g.vertices:
            raise PipelineError("2-factor does not span all vertices")
        return True


@dataclass(frozen=True)
class StageResult:
    name: str
    instance: Instance
    steps: tuple
    certificate: ClassCertificate
    audit: object = None


def _certificate(inst: Instance, claim_planar=True) -> ClassCertificate:
    g = inst.graph
    reg = None
    if g.n:
        degs = {g.degree(v) for v in g.vertices}
        if len(degs) == 1:
            reg = degs.pop()
    planar = check_planarity(g)[0] if claim_planar else False
    wit = inst.witness is not None and inst.witness.is_valid_for(g)
    return ClassCertificate(reg, planar, wit, g.n % 2 == 0)


def _require(cond, msg):
    if not cond:
        raise PipelineError(msg)


def eliminate_degree_two(inst: Instance) -> StageResult:
    """Remove degree-2 vertices from the class by attaching one R gadget at
    (v, v) per such vertex, raising each to degree four."""
    g = inst.graph
    _require(is_connected(g), "precondition: connected graph required")
    _require(check_planarity(g)[0], "precondition: planar graph required")
    for v in sorted(g.vertices):
        if not 2 <= g.degree(v) <= 4:
            raise PipelineError(f"precondition: vertex {v} has degree {g.degree(v)}, need 2..4")
    b = Builder(g, inst.k, "degree2")
    for v in sorted(v for v in g.vertices if g.degree(v) == 2):
        b.insert(GADGETS["R"], v, v)
    out = Instance(b.freeze(), b.k)
    _require(all(3 <= out.graph.degree(v) <= 4 for v in out.graph.vertices) or not b.steps,
             "degree bounds violated after insertion")
    return StageResult("degree2", out, tuple(b.steps), _certificate(out))


@dataclass(frozen=True)
class PairingAudit:
    """Geometry evidence for the degree-3 pairing stage: the grid drawing,
    the routed chains, their crossings, and the final drawn fragments."""

    embedding: object
    pairs: tuple
    routes: tuple
    crossings: tuple
    coords_after: dict
    drawn_edges_after: tuple
    dissolution_vertices: tuple


def pair_degree_three(inst: Instance) -> StageResult:
    """Raise every degree-3 vertex to degree four by routing connections
    between scan-order pairs and realizing each routed fragment as an R
    gadget; crossings with drawn edges become degree-4 vertices."""
    g = inst.graph
    _require(is_connected(g), "precondition: connected graph required")
    for v in sorted(g.vertices):
        if not 3 <= g.degree(v) <= 4:
            raise PipelineError(f"precondition: vertex {v} has degree {g.degree(v)}, need 3..4")
    emb = grid_embed(g)
    deg3 = sorted((v for v in g.vertices if g.degree(v) == 3), key=lambda v: scan_key(emb, v))
    if len(deg3) % 2:
        raise PipelineError("handshake violation")
    if not deg3:
        out = Instance(g, inst.k)
        audit = PairingAudit(emb, (), (), (), dict(emb.coords), tuple(sorted(g.edges)), ())
        return StageResult("pairing", out, (), _certificate(out), audit)
    pairs = tuple((deg3[i], deg3[i + 1]) for i in range(0, len(deg3), 2))
    eps = pick_epsilon(emb, pairs)
    routes = [route_connection(emb, a, b, eps) for a, b in pairs]
    crossings = find_crossings(emb, routes)
    for c in crossings:
        if c.owner_a[0] == "route" and c.owner_b[0] == "route":
            raise PipelineError("routed connections cross each other")

    b = Builder(g, inst.k, "pairing")
    coords = {v: tuple(map(int, p)) for v, p in emb.coords.items()}
    # split every crossed drawn edge at its crossing points
    point_vertex = {}
    for e in sorted(g.edges):
        hits = crossings_on(crossings, ("edge", e))
        tail = e
        for _, c in hits:
            w = b.subdivide(tail)
            coords[w] = c.point
            point_vertex[c.point] = w
            tail = _norm_edge(w, e[1])
    # realize each route as a chain of R gadgets through its crossing points
    dissolution = []
    for ri, route in enumerate(routes):
        hits = crossings_on(crossings, ("route", ri))
        chain = [route.endpoints[0]]
        for _, c in hits:
            chain.append(point_vertex[c.point])
        chain.append(route.endpoints[1])
        dissolution.extend(chain[1:-1])
        for x, y in zip(chain, chain[1:]):
            b.insert(GADGETS["R"], x, y)
    g = b.freeze()
    out = Instance(g, b.k)
    _require(check_regular(g, 4), "output not 4-regular")
    _require(all(g.degree(d) == 4 for d in dissolution), "dissolution vertex degree != 4")
    drawn_after = tuple(e for e in sorted(g.edges) if e[0] in coords and e[1] in coords)
    audit = PairingAudit(emb, pairs, tuple(routes), tuple(crossings), coords,
                         drawn_after, tuple(dissolution))
    return StageResult("pairing", out, tuple(b.steps), _certificate(out), audit)


def compute_two_factor(g: Graph) -> TwoFactor:
    """2-factor of a 4-regular connected graph: orient an Euler circuit and
    take a perfect matching in the resulting out/in bipartite graph."""
    import networkx as nx

    _require(check_regular(g, 4), "precondition: 4-regular graph required")
    _require(is_connected(g) and g.n > 0, "connected required")
    G = nx.Graph()
    G.add_nodes_from(sorted(g.vertices))
    G.add_edges_from(sorted(g.edges))
    circuit = list(nx.eulerian_circuit(G, source=min(g.vertices)))
    # bipartite out/in copies encoded as even/odd integers so every internal
    # iteration order is hash-stable across processes
    B = nx.Graph()
    outs = {v: 2 * v for v in g.vertices}
    ins = {v: 2 * v + 1 for v in g.vertices}
    B.add_nodes_from(sorted(outs.values()))
    B.add_nodes_from(sorted(ins.values()))
    for a, b in circuit:
        B.add_edge(outs[a], ins[b])
    match = nx.bipartite.hopcroft_karp_matching(B, top_nodes=sorted(outs.values()))
    succ = {v: match[outs[v]] // 2 for v in g.vertices}
    comps = []
    seen = set()
    for v in sorted(g.vertices):
        if v in seen:
            continue
        cyc = [v]
        seen.add(v)
        w = succ[v]
        while w != v:
            cyc.append(w)
            seen.add(w)
            w = succ[w]
        comps.append(tuple(cyc))
    tf = TwoFactor(tuple(comps))
    tf.validate(g)
    return tf


def _cycle_long_way(cycle, frm, to):
    """Walk the whole cycle from frm to to, avoiding their direct edge."""
    L = len(cycle)
    i = cycle.index(frm)
    if cycle[(i + 1) % L] == to:
        return [cycle[(i - t) % L] for t in range(L)]
    if cycle[(i - 1) % L] == to:
        return [cycle[(i + t) % L] for t in range(L)]
    raise PipelineError("vertices not adjacent on the cycle")


def merge_step(inst: Instance, tf: TwoFactor, rot=None):
    """Merge two 2-factor cycles joined by an edge {u, v} into one, keeping
    4-regularity and planarity. Co-facial cycle edges at u and v allow a
    single bridging L gadget (budget +4); otherwise the spare edge at u is
    threaded through two L gadgets (budget +8). rot is a planar rotation
    system of inst.graph, as the previous merge returned it; without one,
    the graph is tested for planarity here. Returns the merged instance, the
    2-factor, the steps, the case and the rotation of the merged graph."""
    g = inst.graph
    if len(tf.components) == 1:
        raise PipelineError("already Hamiltonian")
    if rot is None:
        planar, rot = check_planarity(g)
        _require(planar, "merge requires a planar graph")
    faces_of = {}
    for fi, f in enumerate(face_edge_sets(PlaneGraph(g, rot))):
        for e in f:
            faces_of.setdefault(e, set()).add(fi)
    cyc_of = {}
    cyc_edges = []
    for ci, cyc in enumerate(tf.components):
        es = set()
        for i, v in enumerate(cyc):
            cyc_of[v] = ci
            es.add(_norm_edge(v, cyc[(i + 1) % len(cyc)]))
        cyc_edges.append(es)

    def cofacial(e1, e2):
        return not faces_of[e1].isdisjoint(faces_of[e2])

    connecting = sorted(e for e in g.edges if cyc_of[e[0]] != cyc_of[e[1]])
    for u, v in connecting:
        Qi = tf.components[cyc_of[u]]
        Qj = tf.components[cyc_of[v]]
        at_u = sorted(_norm_edge(u, w) for w in g.neighbors(u))
        at_v = sorted(_norm_edge(v, w) for w in g.neighbors(v))
        u_edges = [e for e in at_u if e in cyc_edges[cyc_of[u]]]
        v_edges = [e for e in at_v if e in cyc_edges[cyc_of[v]]]
        for e in u_edges:
            for ep in v_edges:
                if cofacial(e, ep):
                    return _merge_case1(inst, tf, u, v, Qi, Qj, e, ep)
        spare = [f for f in at_u if f not in cyc_edges[cyc_of[u]] and f != _norm_edge(u, v)]
        for et in spare:
            for e in u_edges:
                for ep in v_edges:
                    if cofacial(e, et) and cofacial(et, ep):
                        return _merge_case2(inst, tf, u, v, Qi, Qj, e, et, ep)
    raise PipelineError("no mergeable configuration found")


def _other_end(e, v):
    return e[0] if e[1] == v else e[1]


def _replace_components(tf, drop, merged):
    comps = tuple(c for c in tf.components if c not in drop) + (tuple(merged),)
    return TwoFactor(comps)


def _merge_case1(inst, tf, u, v, Qi, Qj, e, ep):
    b = Builder(inst.graph, inst.k, "merge")
    u2 = _other_end(e, u)
    v2 = _other_end(ep, v)
    z = b.subdivide(e)
    zp = b.subdivide(ep)
    L = GADGETS["L"]
    interior = interior_path(L, b.insert(L, z, zp))
    merged = [z] + _cycle_long_way(Qi, u2, u) + _cycle_long_way(Qj, v, v2) + [zp]
    merged += list(reversed(interior))
    return _finish_merge(b, tf, {Qi, Qj}, merged, 1)


def _merge_case2(inst, tf, u, v, Qi, Qj, e, et, ep):
    b = Builder(inst.graph, inst.k, "merge")
    u2 = _other_end(e, u)
    wt = _other_end(et, u)
    v2 = _other_end(ep, v)
    z = b.subdivide(e)
    zt1 = b.subdivide(et)
    zt2 = b.subdivide(_norm_edge(zt1, wt))
    zp = b.subdivide(ep)
    L = GADGETS["L"]
    int1 = interior_path(L, b.insert(L, z, zt1))
    int2 = interior_path(L, b.insert(L, zt2, zp))
    merged = [z] + int1 + [zt1, zt2] + int2 + [zp]
    merged += _cycle_long_way(Qj, v2, v) + _cycle_long_way(Qi, u, u2)
    return _finish_merge(b, tf, {Qi, Qj}, merged, 2)


def _finish_merge(b, tf, drop, merged, case):
    """Freeze the merge's builder once and re-check the merged 2-factor,
    4-regularity and planarity on the result, whose rotation the next merge
    reuses."""
    g = b.freeze()
    tf2 = _replace_components(tf, drop, merged)
    tf2.validate(g)
    _require(check_regular(g, 4), "merge broke 4-regularity")
    planar, rot = check_planarity(g)
    _require(planar, "merge broke planarity")
    return Instance(g, b.k), tf2, tuple(b.steps), case, rot


def hamiltonize(inst: Instance) -> StageResult:
    """Merge the 2-factor down to a single spanning cycle; at most n/3
    merges since every cycle has length at least 3."""
    g = inst.graph
    tf = compute_two_factor(g)
    budget = g.n // 3
    steps = []
    merges = 0
    rot = None
    while len(tf.components) > 1:
        if merges >= budget:
            raise PipelineError("merge budget n/3 exceeded")
        inst, tf, st, _case, rot = merge_step(inst, tf, rot)
        steps.extend(st)
        merges += 1
    witness = HamCycleWitness(tuple(tf.components[0]))
    out = Instance(inst.graph, inst.k, witness)
    return StageResult("hamiltonize", out, tuple(steps), _certificate(out), audit=merges)


def evenize(inst: Instance) -> StageResult:
    """Force an even vertex count: duplicate the instance, doubly subdivide
    one witness edge in each copy, and bridge the copies with two L gadgets.
    Budget doubles plus 8; the order becomes 2n + 24."""
    _require(inst.witness is not None, "precondition: witness required")
    g = inst.graph
    if g.n % 2 == 0:
        return StageResult("evenize", inst, (), _certificate(inst))
    C = inst.witness.order
    a, c = min(inst.witness.edge_set())
    b = Builder(g, inst.k, "evenize")
    cmap = b.copy()
    ap, cp = cmap[a], cmap[c]
    v1 = b.subdivide((a, c))
    w1 = b.subdivide((v1, c))
    v2 = b.subdivide((ap, cp))
    w2 = b.subdivide((v2, cp))
    L = GADGETS["L"]
    idm1 = b.insert(L, v1, v2)
    idm2 = b.insert(L, w1, w2)
    # splice: original cycle from c around to a, through the first L into the
    # copy, around it, and back through the second L
    main = _cycle_long_way(C, c, a)
    copy_walk = [cmap[x] for x in _cycle_long_way(C, a, c)]
    order = (
        main
        + [v1] + interior_path(L, idm1) + [v2]
        + copy_walk
        + [w2] + list(reversed(interior_path(L, idm2))) + [w1]
    )
    witness = HamCycleWitness(tuple(order))
    out = Instance(b.freeze(), b.k, witness)
    _require(out.graph.n == 2 * g.n + 24, "evenize size mismatch")
    _require(out.k == 2 * inst.k + 8, "budget ledger mismatch")
    _require(check_regular(out.graph, 4), "evenize broke 4-regularity")
    return StageResult("evenize", out, tuple(b.steps), _certificate(out))


def five_regularize(inst: Instance) -> StageResult:
    """One D gadget across every second witness edge lifts the whole graph
    from 4-regular to 5-regular; budget grows by 3n."""
    g = inst.graph
    _require(inst.witness is not None, "precondition: witness required")
    _require(check_regular(g, 4), "precondition: 4-regular graph required")
    if g.n % 2:
        raise PipelineError("evenize first")
    D = GADGETS["D"]
    order = inst.witness.order
    n = g.n
    b = Builder(g, inst.k, "5regular")
    new_order = []
    for i in range(0, n, 2):
        x, y = order[i], order[i + 1]
        new_order += [x] + interior_path(D, b.insert(D, x, y)) + [y]
    g = b.freeze()
    out = Instance(g, b.k, HamCycleWitness(tuple(new_order)))
    _require(g.n == 7 * n, "5-regularization size mismatch")
    _require(check_regular(g, 5), "output not 5-regular")
    _require(out.k == inst.k + 3 * n, "budget ledger mismatch")
    return StageResult("5regular", out, tuple(b.steps), _certificate(out))


def p_regularize(inst: Instance, target_p: int) -> StageResult:
    """Repeated rounds of Y gadget insertions across a witness matching;
    each round raises regularity by one and keeps the order even."""
    g = inst.graph
    _require(inst.witness is not None, "precondition: witness required")
    degs = {g.degree(v) for v in g.vertices}
    _require(len(degs) == 1, "precondition: regular graph required")
    r = degs.pop()
    _require(r >= 4, "precondition: regularity >= 4 required")
    _require(r <= target_p, f"already {r}-regular, beyond target {target_p}")
    if g.n % 2:
        raise PipelineError("evenize first")
    b = Builder(g, inst.k, "pregular")
    order = inst.witness.order
    while r < target_p:
        Y = build_gadget("Y", r)
        n = b.n
        new_order = []
        for i in range(0, n, 2):
            x, y = order[i], order[i + 1]
            new_order += [x] + interior_path(Y, b.insert(Y, x, y)) + [y]
        order = new_order
        _require(b.n == n * (r + 2), "Y round size mismatch")
        r += 1
        _require(check_regular(b, r), f"Y round did not reach {r}-regularity")
    out = Instance(b.freeze(), b.k, HamCycleWitness(tuple(order)))
    # the clique gadgets rule out planarity from here on
    return StageResult("pregular", out, tuple(b.steps), _certificate(out, claim_planar=False))


def ham_ordered_lift(inst: Instance, target_p: int) -> StageResult:
    """Lift a Hamiltonian instance (3-Hamiltonian-ordered by definition) to
    target_p-Hamiltonian-ordered via target_p - 3 join steps, asserting the
    degree-sum sufficiency condition after each. Each join keeps the graph
    Hamiltonian and grows the budget by exactly 3n."""
    _require(inst.witness is not None, "precondition: witness required")
    _require(target_p >= 3, "precondition: target p >= 3 required")
    b = Builder(inst.graph, inst.k, "lift")
    order = list(inst.witness.order)
    for p in range(4, target_p + 1):
        clique, x, y = b.lift()
        order += [clique[0], x, y] + clique[1:]
        _require(check_ore_condition(b, p), f"degree-sum condition failed for p={p}")
    out = Instance(b.freeze(), b.k, HamCycleWitness(tuple(order))) if b.steps else inst
    return StageResult("lift", out, tuple(b.steps), _certificate(out, claim_planar=False))


PLANAR_TARGETS = ("4reg-planar", "4reg-planar-ham", "5reg-planar-ham")


def parse_target(target: str):
    if target in PLANAR_TARGETS:
        return target, None
    for prefix in ("preg-ham:", "ham-ordered:"):
        if target.startswith(prefix):
            try:
                p = int(target[len(prefix):])
            except ValueError:
                raise PipelineError(f"malformed target {target!r}")
            if prefix == "preg-ham:" and p < 4:
                raise PipelineError("preg-ham requires p >= 4")
            if prefix == "ham-ordered:" and p < 3:
                raise PipelineError("ham-ordered requires p >= 3")
            return prefix[:-1], p
    raise PipelineError(f"unknown target {target!r}")


@dataclass(frozen=True)
class PipelineResult:
    input: Instance
    stages: tuple
    instance: Instance

    @property
    def trace(self) -> ReductionTrace:
        return ReductionTrace(tuple(s for st in self.stages for s in st.steps))


def run_pipeline(inst: Instance, target: str) -> PipelineResult:
    kind, p = parse_target(target)
    stages = []

    def push(sr):
        stages.append(sr)
        return sr.instance

    if kind == "ham-ordered":
        cur = inst
        if cur.witness is None:
            w = find_hamiltonian_cycle(cur.graph)
            _require(w is not None, "precondition: Hamiltonian input required")
            cur = Instance(cur.graph, cur.k, w)
        cur = push(ham_ordered_lift(cur, p))
        return PipelineResult(inst, tuple(stages), cur)

    b = Builder(inst.graph, inst.k, "strip")
    b.strip()
    cur = Instance(b.freeze(), inst.k)
    if cur.graph != inst.graph:
        stages.append(StageResult("strip", cur, tuple(b.steps), _certificate(cur)))
    _require(cur.graph.n > 0, "precondition: graph empty after stripping")
    cur = push(eliminate_degree_two(cur))
    cur = push(pair_degree_three(cur))
    if kind == "4reg-planar":
        return PipelineResult(inst, tuple(stages), cur)
    cur = push(hamiltonize(cur))
    if kind == "4reg-planar-ham" or (kind == "preg-ham" and p == 4):
        return PipelineResult(inst, tuple(stages), cur)
    cur = push(evenize(cur))
    cur = push(five_regularize(cur))
    if kind == "5reg-planar-ham" or (kind == "preg-ham" and p == 5):
        return PipelineResult(inst, tuple(stages), cur)
    # only preg-ham with p >= 6 remains
    cur = push(p_regularize(cur, p))
    return PipelineResult(inst, tuple(stages), cur)


def replay_trace(g: Graph, steps, k: int = 0, *, n_out: int) -> tuple[Graph, int]:
    """Re-execute recorded steps on g, whose budget is k, through the same
    Builder ops the compiler used. Fresh ids come from the same counter, so
    a faithful trace reproduces the output graph exactly. Every budget delta
    is derived from the op; a recorded step that differs from its replay in
    any field, that cannot be applied, or that would grow the graph beyond
    the declared output order n_out raises CertificationError naming the
    stage and step index. Returns the graph and the derived delta."""
    b = Builder(g, k)
    ys = {}
    for i, s in enumerate(steps):
        b.stage = s.stage
        try:
            _replay_step(b, s, ys, n_out)
        except (GraphError, PipelineError) as exc:
            raise CertificationError(f"stage {s.stage} step {i}: {exc}") from None
        derived = b.steps[-1]
        if derived != s:
            diff = ", ".join(
                f"{f} recorded {getattr(s, f)!r}, replay derives {getattr(derived, f)!r}"
                for f in ("op", "k_delta", "gadget", "p", "attach", "edge")
                if getattr(s, f) != getattr(derived, f)
            )
            raise CertificationError(f"stage {s.stage} step {i}: {diff}")
    return b.freeze(), b.k - k


def _replay_step(b: Builder, s, ys, n_out):
    # Strip runs first and only shrinks the graph; every other op only grows
    # it, so a faithful trace never needs more than n_out vertices for them.
    def room(grow):
        _require(b.n + grow <= n_out,
                 f"{s.op} would grow the graph to {b.n + grow} vertices, "
                 f"beyond the declared output n={n_out}")

    if s.op == "subdivide":
        _require(s.edge is not None, "subdivide names no edge")
        room(1)
        b.subdivide(s.edge)
    elif s.op == "insert":
        _require(len(s.attach) == 2, "insert names no attachment pair")
        if s.gadget == "Y":
            # a Y_p insertion only ever lands in a p-regular graph, so p < n
            _require(s.p is not None and s.p < b.n, f"Y_p with p={s.p} on {b.n} vertices")
            if s.p not in ys:
                ys[s.p] = build_gadget("Y", s.p)
            gadget = ys[s.p]
        else:
            gadget = GADGETS.get(s.gadget) or build_gadget(s.gadget)
        room(gadget.graph.n - 2)
        b.insert(gadget, *s.attach)
    elif s.op == "copy":
        room(b.n)
        b.copy()
    elif s.op == "lift":
        room(3 * b.n + 2)
        b.lift()
    elif s.op == "strip":
        b.strip()
    else:
        raise PipelineError(f"unknown trace op {s.op!r}")
