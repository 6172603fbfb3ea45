"""Ground-truth engines: exact FVS by exhaustive subset scan and by
branch-and-reduce, Hamiltonicity and Hamiltonian-ordered checks, planarity,
Ore-type degree condition, and vertex connectivity."""

from __future__ import annotations

import collections
import itertools
import time
from dataclasses import dataclass

import networkx as nx

from .graph import Graph, GraphError, HamCycleWitness, reachable, to_networkx, _strip_adjacency

EXHAUSTIVE_LIMIT = 26
HAM_STATE_CAP = 10**7


class SolverError(RuntimeError):
    pass


class UndecidedError(SolverError):
    """Search exceeded its node or time budget."""


@dataclass(frozen=True)
class FvsSolution:
    deleted: frozenset
    optimal: bool
    method: str


def is_fvs(g: Graph, deleted) -> bool:
    """True iff deleting the given vertices leaves an acyclic graph."""
    deleted = set(deleted)
    if not deleted <= g.vertices:
        raise GraphError("deleted set must be a subset of the vertices")
    kept = g.vertices - deleted
    adj = {v: {w for w in g.neighbors(v) if w in kept} for v in kept}
    # a forest peels away completely under degree <= 1 stripping
    _strip_adjacency(adj)
    return not adj


def _bit_order(g: Graph):
    verts = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    masks = [0] * len(verts)
    for u, v in g.edges:
        masks[idx[u]] |= 1 << idx[v]
        masks[idx[v]] |= 1 << idx[u]
    return verts, masks


def _mask_acyclic(masks, sub):
    """Forest test on the induced subgraph encoded by bitmask sub."""
    edges2 = 0
    nverts = 0
    m = sub
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        nverts += 1
        edges2 += (masks[v] & sub).bit_count()
    if edges2 >= 2 * nverts and nverts:
        return False
    while sub:
        peeled = False
        m = sub
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if (masks[v] & sub).bit_count() <= 1:
                sub &= ~(1 << v)
                peeled = True
        if not peeled:
            return False
    return True


def _until(deadline, items):
    """items, raising UndecidedError once the clock passes deadline; the
    clock is read at the first item and then once per 1 024 items."""
    for i, item in enumerate(items):
        if not i % 1024 and time.monotonic() > deadline:
            raise UndecidedError("undecided within budget")
        yield item


def _forest_deletions(masks, k, deadline=None):
    """Index tuples, in lexicographic order, of the size-k deletions that
    leave a forest in the graph encoded by masks."""
    n = len(masks)
    full = (1 << n) - 1
    combos = itertools.combinations(range(n), k)
    if deadline is not None:
        combos = _until(deadline, combos)
    for combo in combos:
        sub = full
        for i in combo:
            sub &= ~(1 << i)
        if _mask_acyclic(masks, sub):
            yield combo


def fvs_exact_exhaustive(g: Graph, time_budget=None) -> FvsSolution:
    """Minimum FVS by scanning deletion sets in increasing size; returns the
    lexicographically smallest optimal set (over sorted vertex ids)."""
    if g.n > EXHAUSTIVE_LIMIT:
        raise SolverError("use branch-reduce")
    deadline = None if time_budget is None else time.monotonic() + time_budget
    verts, masks = _bit_order(g)
    for k in range(len(verts) + 1):
        for combo in _forest_deletions(masks, k, deadline):
            return FvsSolution(frozenset(verts[i] for i in combo), True, "exhaustive")
    raise AssertionError("unreachable: full deletion is always acyclic")


def enumerate_min_fvs(g: Graph):
    """(optimum, all optimal deletion sets), exhaustively."""
    opt = len(fvs_exact_exhaustive(g).deleted)
    verts, masks = _bit_order(g)
    return opt, [frozenset(verts[i] for i in c) for c in _forest_deletions(masks, opt)]


def _greedy_fvs(adj):
    """Any valid FVS: strip low degree, then repeatedly delete a max-degree
    vertex. Used only as an initial upper bound."""
    adj = {v: set(ns) for v, ns in adj.items()}
    out = set()
    _strip_adjacency(adj)
    while adj:
        v = max(adj, key=lambda u: (len(adj[u]), -u))
        out.add(v)
        for w in adj.pop(v):
            adj[w].discard(v)
        _strip_adjacency(adj)
    return out


def _shortest_cycle(adj):
    """A shortest (or near-shortest) cycle as a vertex list, or None.

    BFS from every root; the first non-tree edge closing two branches gives
    a cycle through the root of length dist(u)+dist(w)+1."""
    best = None
    for root in sorted(adj):
        parent = {root: None}
        dist = {root: 0}
        queue = collections.deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= len(best):
                break
            for w in sorted(adj[u]):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent.get(w) != u:
                    path_u, path_w = [u], [w]
                    while path_u[-1] is not None:
                        path_u.append(parent[path_u[-1]])
                    while path_w[-1] is not None:
                        path_w.append(parent[path_w[-1]])
                    path_u.pop()
                    path_w.pop()
                    # drop the common tail above the lowest common ancestor
                    while (
                        len(path_u) > 1
                        and len(path_w) > 1
                        and path_u[-1] == path_w[-1]
                        and path_u[-2] == path_w[-2]
                    ):
                        path_u.pop()
                        path_w.pop()
                    if path_u[-1] != path_w[-1]:
                        continue  # edge joins two roots' trees oddly; skip
                    cyc = path_u[:-1] + list(reversed(path_w))
                    if len(set(cyc)) == len(cyc) and (best is None or len(cyc) < len(best)):
                        best = cyc
        if best is not None and len(best) == 3:
            return best
    return best


def _cycle_packing_lb(adj):
    """Greedy vertex-disjoint packing of short cycles; each packed cycle
    forces one deletion."""
    adj = {v: set(ns) for v, ns in adj.items()}
    count = 0
    while True:
        cyc = _shortest_cycle(adj)
        if cyc is None:
            return count
        count += 1
        for v in cyc:
            for w in adj.pop(v):
                adj[w].discard(v)


def fvs_branch_reduce(g: Graph, time_budget=None) -> FvsSolution:
    """Exact minimum FVS via branching on the vertices of a shortest cycle,
    with standard reductions and a cycle-packing lower bound."""
    deadline = None if time_budget is None else time.monotonic() + time_budget
    adj0 = {v: set(ns) for v, ns in g.adjacency.items()}

    def check_budget():
        if deadline is not None and time.monotonic() > deadline:
            raise UndecidedError("undecided within budget")

    def reduce_graph(adj, forbidden):
        """Apply degree <=1 removal and safe degree-2 bypasses in place."""
        changed = True
        while changed:
            changed = False
            for v in list(adj):
                if v not in adj:
                    continue
                ns = adj[v]
                if len(ns) <= 1:
                    for w in adj.pop(v):
                        adj[w].discard(v)
                    changed = True
                elif len(ns) == 2:
                    u, w = sorted(ns)
                    if w in adj[u]:
                        continue  # triangle through v: handled by branching
                    if v not in forbidden and u in forbidden and w in forbidden:
                        continue  # v may be the only deletable vertex here
                    adj.pop(v)
                    adj[u].discard(v)
                    adj[w].discard(v)
                    adj[u].add(w)
                    adj[w].add(u)
                    changed = True

    def solve(adj, forbidden, ub):
        """Smallest FVS of adj avoiding forbidden with size < ub, else None."""
        check_budget()
        adj = {v: set(ns) for v, ns in adj.items()}
        reduce_graph(adj, forbidden)
        cyc = _shortest_cycle(adj) if adj else None
        if cyc is None:
            return set()
        if ub <= 0:
            return None
        # component split
        comps = []
        seen = set()
        for v in adj:
            if v not in seen:
                comps.append(reachable(adj, v))
                seen |= comps[-1]
        if len(comps) > 1:
            total = set()
            remaining = ub
            for comp in sorted(comps, key=lambda c: (len(c), min(c))):
                sub = {v: adj[v] & comp for v in comp}
                best = solve(sub, forbidden, remaining)
                if best is None:
                    return None
                total |= best
                remaining -= len(best)
            return total
        lb = _cycle_packing_lb(adj)
        if lb >= ub:
            return None
        # every FVS hits cyc: branch on which of its vertices is deleted,
        # forbidding the earlier ones so branches stay disjoint
        best = None
        extra = set()
        for v in cyc:
            if v in forbidden:
                extra.add(v)
                continue
            adj_in = {u: ns - {v} for u, ns in adj.items() if u != v}
            sub = solve(adj_in, forbidden | extra, ub - 1)
            if sub is not None:
                best = sub | {v}
                ub = len(best)
            extra.add(v)
        return best

    # the greedy set has size < ub, so solve never returns None here
    best = solve(adj0, frozenset(), len(_greedy_fvs(adj0)) + 1)
    assert is_fvs(g, best)
    return FvsSolution(frozenset(best), True, "branch-reduce")


def check_planarity(g: Graph):
    """(is_planar, rotation system or None); the rotation's face audit
    satisfies Euler's formula whenever planar."""
    ok, emb = nx.check_planarity(to_networkx(g))
    if not ok:
        return False, None
    rot = {v: tuple(emb.neighbors_cw_order(v)) for v in g.vertices}
    return True, rot


def _ham_search(adj, start, required):
    """Backtracking search for a Hamiltonian cycle from start that visits the
    vertices of `required` in order. Returns the cycle or None."""
    n = len(adj)
    req_set = set(required)
    states = 0
    path = [start]
    visited = {start}
    # one (idx, nxt, untried options) frame per vertex on the path, so the
    # depth is bounded by memory, not by the interpreter's recursion limit
    frames = []
    idx = 0
    while True:
        states += 1
        if states > HAM_STATE_CAP:
            raise UndecidedError("hamiltonian search exceeded state cap")
        v = path[-1]
        nxt = required[idx] if idx < len(required) else None
        if len(path) == n:
            if idx == len(required) and start in adj[v]:
                return path
            options = []
        else:
            options = sorted(adj[v] - visited)
            if nxt is not None and nxt in adj[v]:
                options.remove(nxt)
                options.insert(0, nxt)
        frames.append((idx, nxt, iter(options)))
        # resume the deepest vertex with an untried option, backtracking
        # over exhausted ones
        while True:
            idx, nxt, untried = frames[-1]
            for w in untried:
                if w not in req_set or w == nxt:
                    break
            else:
                frames.pop()
                visited.discard(path.pop())
                if not frames:
                    return None
                continue
            break
        path.append(w)
        visited.add(w)
        if w == nxt:
            idx += 1


def find_hamiltonian_cycle(g: Graph):
    """Some Hamiltonian cycle as a witness, or None."""
    if g.n < 3:
        return None
    adj = {v: set(ns) for v, ns in g.adjacency.items()}
    start = min(g.vertices)
    order = _ham_search(adj, start, ())
    return HamCycleWitness(tuple(order)) if order else None


def check_ham_ordered(g: Graph, p: int):
    """Whether for every p-tuple of distinct vertices a Hamiltonian cycle
    visits them in order. Returns (ok, counterexample)."""
    verts = sorted(g.vertices)
    if p > len(verts):
        raise SolverError("p exceeds the number of vertices")
    adj = {v: set(ns) for v, ns in g.adjacency.items()}
    cache = {}

    def ordered_ok(tup):
        # a rotation of the tuple describes the same cyclic visiting order
        rots = [tup[i:] + tup[:i] for i in range(len(tup))]
        canon = min(rots)
        if canon not in cache:
            order = _ham_search(adj, canon[0], canon[1:])
            cache[canon] = order is not None
        return cache[canon]

    for tup in itertools.permutations(verts, p):
        if not ordered_ok(tup):
            return False, tup
    return True, None


def check_ore_condition(g: Graph, p: int) -> bool:
    """Degree-sum condition deg(v)+deg(w) >= |V| + 2p - 6 over all
    non-adjacent pairs; it implies the graph is p-Hamiltonian-ordered."""
    if g.n < 3 or not (3 <= p <= g.n):
        raise SolverError("need |V| >= 3 and 3 <= p <= |V|")
    bound = g.n + 2 * p - 6
    verts = sorted(g.vertices)
    for i, v in enumerate(verts):
        for w in verts[i + 1 :]:
            if not g.has_edge(v, w) and g.degree(v) + g.degree(w) < bound:
                return False
    return True


def vertex_connectivity_at_least(g: Graph, c: int) -> bool:
    if c <= 0:
        return True
    if g.n <= c:
        return False
    return nx.node_connectivity(to_networkx(g)) >= c
