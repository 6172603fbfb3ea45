"""Ground-truth engines: exact FVS by an exhaustive induced-forest search
and by branch-and-reduce, Hamiltonicity and Hamiltonian-ordered checks,
planarity, Ore-type degree condition, and vertex connectivity."""

from __future__ import annotations

import collections
import heapq
import itertools
import time
from bisect import bisect_left
from dataclasses import dataclass

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
    adj = {v: kept.intersection(g.adjacency[v]) for v in kept}
    # a forest peels away completely under degree <= 1 stripping
    _strip_adjacency(adj)
    return not adj


def _bit_order(g: Graph):
    verts = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    masks = [sum(1 << idx[w] for w in g.adjacency[v]) for v in verts]
    return verts, masks


class _Progress:
    """A search's one clock, and what UndecidedError reports: the nodes
    searched and the best bounds on the optimum known so far. Under a time
    budget the clock is read once to set the deadline and then by check(),
    which raises once it has passed; tick() counts a node and checks at
    every `every`-th, the first included. Without a budget both do nothing."""

    def __init__(self, time_budget, every, lower=0, upper=0):
        self.every, self.lower, self.upper, self.nodes = every, lower, upper, 0
        if time_budget is None:
            self.check = self.tick = lambda: None
        else:
            self.deadline = time.monotonic() + time_budget

    def check(self):
        if time.monotonic() > self.deadline:
            raise UndecidedError(
                f"undecided within budget: {self.nodes} nodes searched, "
                f"{self.lower} <= opt <= {self.upper}"
            )

    def tick(self):
        if not self.nodes % self.every:
            self.check()
        self.nodes += 1


def _exhaustive_lb(m, n, delta):
    """Deletions that every FVS of a graph with m edges on n vertices and
    maximum degree at most delta needs. Deleting S removes at most
    delta·|S| edges, and a forest on the n − |S| ≥ 1 survivors keeps at most
    n − |S| − 1 of them, so |S|·(delta − 1) ≥ m − n + 1. For S = V this
    follows from m ≤ n·delta/2 once n ≥ 1."""
    if delta <= 1 or not n:
        return 0
    return max(0, -((n - 1 - m) // (delta - 1)))


def _join(comps, nb, i):
    """The kept components after keeping vertex i, whose kept neighbours
    are the bitmask nb: every component i touches merges with it. None if i
    has two neighbours in one component, which would close a cycle."""
    merged = 1 << i
    out = []
    for c in comps:
        hit = nb & c
        if not hit:
            out.append(c)
        elif hit & (hit - 1):
            return None
        else:
            merged |= c
    out.append(merged)
    return out


def _optimal_deletions(masks, k, tick):
    """Index tuples, in lexicographic order, of the deletions of at most k
    vertices that leave a forest in the graph encoded by masks.

    Grows a kept set in index order, trying delete before keep (hence the
    order), with the kept components as bitmasks. The alive graph (kept and
    undecided vertices) is a bitmask with its edge count. A branch is cut
    once its deletions plus those that _exhaustive_lb says the alive graph
    still needs exceed k; such a branch has no leaf."""
    n = len(masks)
    delta = max((nb.bit_count() for nb in masks), default=0)

    def walk(i, deleted, comps, kept_mask, alive, m_alive):
        tick()
        if len(deleted) + _exhaustive_lb(m_alive, n - len(deleted), delta) > k:
            return
        if i == n:
            yield deleted
            return
        if len(deleted) < k:
            cut = masks[i] & alive
            yield from walk(
                i + 1, deleted + (i,), comps, kept_mask, alive & ~(1 << i), m_alive - cut.bit_count()
            )
        joined = _join(comps, masks[i] & kept_mask, i)
        if joined is not None:
            yield from walk(i + 1, deleted, joined, kept_mask | 1 << i, alive, m_alive)

    return walk(0, (), [], 0, (1 << n) - 1, sum(nb.bit_count() for nb in masks) // 2)


def _min_deletions(g: Graph, time_budget):
    """(sorted vertex ids, index tuples of g's minimum FVSs in lexicographic
    order), by iterative deepening: _optimal_deletions runs for k = the
    root bound _exhaustive_lb, k + 1, ... and the first round with a leaf
    has k the optimum. One _Progress serves all rounds: it checks the
    deadline at every 1 024th node, counted across rounds, and once more
    before the answer is returned. A round without a leaf proves k + 1 a
    lower bound, which progress.lower reports; progress.upper is a greedy
    set's size, computed only under a budget and used only in the message."""
    if g.n > EXHAUSTIVE_LIMIT:
        raise SolverError("use branch-reduce")
    progress = _Progress(time_budget, 1024)
    verts, masks = _bit_order(g)
    delta = max((nb.bit_count() for nb in masks), default=0)
    progress.lower = _exhaustive_lb(g.m, g.n, delta)
    progress.upper = g.n if time_budget is None else len(_greedy_fvs(g.adjacency))
    while True:
        leaves = _optimal_deletions(masks, progress.lower, progress.tick)
        first = next(leaves, None)
        if first is not None:
            break
        progress.lower += 1
    progress.check()
    return verts, itertools.chain([first], leaves)


def fvs_exact_exhaustive(g: Graph, time_budget=None) -> FvsSolution:
    """Minimum FVS by an exhaustive search over induced forests: the
    lexicographically smallest optimal set (over sorted vertex ids). Raises
    UndecidedError once time_budget seconds have passed, naming the nodes
    searched and the bounds on the optimum known by then."""
    verts, optima = _min_deletions(g, time_budget)
    return FvsSolution(frozenset(verts[i] for i in next(optima)), True, "exhaustive")


def enumerate_min_fvs(g: Graph):
    """(optimum, all optimal deletion sets), exhaustively."""
    verts, optima = _min_deletions(g, None)
    sets = [frozenset(verts[i] for i in combo) for combo in optima]
    return len(sets[0]), sets


def _greedy_fvs(adj, timeout=None):
    """Any valid FVS: strip low degree, then repeatedly delete a max-degree
    vertex, the smallest on ties, and strip again. Used only as an initial
    upper bound. Degrees only fall, so a heap of (-degree, v) entries stays
    an upper bound: a popped entry whose degree is stale goes back with the
    current one, and the first current entry popped is the vertex to delete.
    Only its neighbours can fall to degree <= 1, so they seed the strip, and
    the run costs O((n + m) log n). timeout runs before each 1 024th deletion."""
    adj = {v: set(ns) for v, ns in adj.items()}
    out = set()
    _strip_adjacency(adj)
    heap = [(-len(ns), v) for v, ns in adj.items()]
    heapq.heapify(heap)
    while adj:
        d, v = heapq.heappop(heap)
        if v not in adj:
            continue
        if -d != len(adj[v]):
            heapq.heappush(heap, (-len(adj[v]), v))
            continue
        if timeout is not None and out and not len(out) % 1024:
            timeout()
        out.add(v)
        nbrs = adj.pop(v)
        for w in nbrs:
            adj[w].discard(v)
        _strip_adjacency(adj, list(nbrs))
    return out


def _shortest_cycle(adj, timeout):
    """A shortest cycle as a vertex list, or None on a forest.

    BFS from every root; a non-tree edge uw closes the cycle of the two tree
    paths from u and w up to their lowest common ancestor, found by one
    climb from the deeper end. The paths are disjoint below it, so no vertex
    repeats, and the cycle has at most dist(u)+dist(w)+1 vertices: from a
    root on a shortest cycle, that is the girth. timeout is called before
    each root and raises once the search's budget is spent."""
    best = None
    for root in sorted(adj):
        timeout()
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
                    a, b, up, down = u, w, [], []
                    while a != b:
                        if dist[a] >= dist[b]:
                            up.append(a)
                            a = parent[a]
                        else:
                            down.append(b)
                            b = parent[b]
                    cyc = up + [a] + down[::-1]
                    if best is None or len(cyc) < len(best):
                        best = cyc
        if best is not None and len(best) == 3:
            return best
    return best


def _cycle_packing(adj, timeout):
    """Greedy vertex-disjoint packing of short cycles, in packing order;
    each packed cycle forces one deletion. The first is
    _shortest_cycle(adj, timeout), which reads adj only through sorted keys
    and rows. timeout is handed to every _shortest_cycle call."""
    adj = {v: set(ns) for v, ns in adj.items()}
    cycles = []
    while True:
        cyc = _shortest_cycle(adj, timeout)
        if cyc is None:
            return cycles
        cycles.append(cyc)
        for v in cyc:
            for w in adj.pop(v):
                adj[w].discard(v)


def _degree_sum_lb(adj):
    """The fewest k whose k largest deg − 1 values sum to at least
    m − n + 1. Deleting an FVS S removes at most the sum of its degrees in
    edges, and the n − |S| ≥ 1 survivors keep at most n − |S| − 1, so the
    deg − 1 values over S sum to at least m − n + 1. S = V needs no bound:
    k ≤ n, as all n values sum to 2m − n ≥ m − n + 1 once m ≥ 1."""
    need = sum(map(len, adj.values())) // 2 - len(adj) + 1
    k = 0
    for d in sorted((len(ns) - 1 for ns in adj.values()), reverse=True):
        if need <= 0:
            break
        need -= d
        k += 1
    return k


def _reduce(adj, forbidden):
    """Reduce a branch-and-reduce node in place: strip the vertices of
    degree <= 1 with _strip_adjacency, then sweep once over the vertices of
    degree 2 and bypass each (delete it and join its two neighbours) unless
    a skip rule keeps it. A bypass joins non-adjacent neighbours, so it
    keeps both their degrees and no vertex falls back to degree <= 1."""
    _strip_adjacency(adj)
    for v in [v for v, ns in adj.items() if len(ns) == 2]:
        u, w = sorted(adj[v])
        if w in adj[u]:
            continue  # triangle through v: handled by branching
        if v not in forbidden and u in forbidden and w in forbidden:
            continue  # v may be the only deletable vertex here
        del adj[v]
        adj[u].remove(v)
        adj[w].remove(v)
        adj[u].add(w)
        adj[w].add(u)


def fvs_branch_reduce(g: Graph, time_budget=None) -> FvsSolution:
    """Exact minimum FVS via branching on the vertices of a shortest cycle.
    Each node is reduced by _reduce and bounded below by the degree-sum
    bound and, where that does not prune, a cycle-packing one. Raises
    UndecidedError once time_budget seconds have passed, naming the nodes
    searched and the bounds on the optimum known at the top level by then.
    Its _Progress checks the deadline at every node and is the timeout of
    the initial greedy and of each node's cycle packing. The search keeps
    its nodes on an explicit stack, so Python's recursion limit does not
    bound its depth. A returned
    set that is not an FVS raises SolverError."""
    progress = _Progress(time_budget, 1, _degree_sum_lb(g.adjacency), g.n)
    greedy = _greedy_fvs(g.adjacency, progress.check)
    progress.upper = len(greedy)

    def solve(adj, forbidden, ub, top=False):
        """Smallest FVS of adj avoiding forbidden with size < ub, else None,
        as a generator: it yields each subproblem as (adj, forbidden, ub) and
        is sent that subproblem's answer. Edits adj, a dict of sets that no
        caller reads again: a branch builds fresh sets, and a component
        split hands each component its own rows. The top call keeps the
        bounds in progress current."""
        progress.tick()
        _reduce(adj, forbidden)
        # reduced, every vertex left has degree >= 2, so a cycle remains
        if not adj:
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
            # a component holds all its vertices' neighbours: no set is shared
            comps.sort(key=lambda c: (len(c), min(c)))
            subs = [{v: adj[v] for v in comp} for comp in comps]
            if top:
                progress.lower = sum(map(_degree_sum_lb, subs))
            total = set()
            remaining = ub
            for sub in subs:
                best = yield sub, forbidden, remaining
                if best is None:
                    return None
                total |= best
                remaining -= len(best)
            return total
        lb = _degree_sum_lb(adj)
        cycles = _cycle_packing(adj, progress.check) if lb < ub else ()
        lb = max(lb, len(cycles))
        if top:
            progress.lower = lb
        if lb >= ub:
            return None
        # lb < ub held before the packing, so it ran on this adj and its
        # first cycle is _shortest_cycle(adj). Every FVS hits that cycle:
        # branch on which of its vertices is deleted, forbidding the earlier
        # ones so branches stay disjoint
        best = None
        extra = set()
        for v in cycles[0]:
            if v in forbidden:
                extra.add(v)
                continue
            adj_in = {u: ns - {v} for u, ns in adj.items() if u != v}
            sub = yield adj_in, forbidden | extra, ub - 1
            if sub is not None:
                best = sub | {v}
                ub = len(best)
                if top:
                    progress.upper = ub
            extra.add(v)
        return best

    # the Graph's rows are tuples: the one copy as sets that solve edits.
    # The greedy set has size < ub, so solve never returns None here. A
    # yielded subproblem pushes its generator; a finished one pops and
    # sends its answer to the one below, and the last answer is the top's
    adj = {v: set(ns) for v, ns in g.adjacency.items()}
    stack, best = [solve(adj, frozenset(), len(greedy) + 1, top=True)], None
    while stack:
        try:
            stack.append(solve(*stack[-1].send(best)))
            best = None
        except StopIteration as done:
            stack.pop()
            best = done.value
    if not is_fvs(g, best):
        raise SolverError("branch-and-reduce self-check failed: its set leaves a cycle")
    return FvsSolution(frozenset(best), True, "branch-reduce")


def check_planarity(g: Graph):
    """(is_planar, rotation system or None) by the left-right planarity test
    of Brandes ("The Left-Right Planarity Test", 2009, after de Fraysseix,
    Ossona de Mendez and Rosenstiehl, "Trémaux trees and planarity", 2006).
    It ports networkx's non-recursive LRPlanarity step for step, so the
    rotation is nx.check_planarity(to_networkx(g))'s: DFS roots in sorted
    vertex order, neighbours in row order, stable sorts by nesting depth,
    add_half_edge's leftmost-neighbour rule, and each rotation read
    clockwise from the leftmost neighbour. No planarity claim rests on the
    port: faces() checks each rotation against Euler's formula."""
    adj, m = g.adjacency, g.m
    if len(adj) > 2 and m > 3 * len(adj) - 6:
        return False, None
    verts = sorted(adj)
    # orientation: edges numbered as the DFS orients them, tail to head; an
    # edge's lowpoints and nesting depth are final once its head's subtree is
    tail, head, lowpt, lowpt2, nesting = [None] * m, [None] * m, [0] * m, [0] * m, [0] * m
    height, parent, out, roots, n_oriented = {}, {}, {v: [] for v in verts}, [], 0
    for root in verts:
        if root in height:
            continue
        height[root], parent[root] = 0, None
        roots.append(root)
        stack, ind = [root], {root: 0}
        while stack:
            v = stack.pop()
            e, hv, row = parent[v], height[v], adj[v]
            for i in range(ind[v], len(row)):
                w = row[i]
                hw = height.get(w)
                if hw is None or hw < hv - 1:  # a tree edge or a back edge
                    vw, n_oriented = n_oriented, n_oriented + 1
                    tail[vw], head[vw], lowpt2[vw] = v, w, hv
                    out[v].append(vw)
                    if hw is None:  # visit w, then come back to vw
                        lowpt[vw] = hv
                        parent[w], height[w], ind[v], ind[w] = vw, hv + 1, i, 0
                        stack += (v, w)
                        break
                    lowpt[vw] = hw
                elif hw > hv and tail[parent[w]] == v:
                    vw = parent[w]  # the tree edge to w, back from w's subtree
                else:
                    continue  # the edge to the parent, or a back edge from below
                lo = lowpt[vw]
                nesting[vw] = 2 * lo + (lowpt2[vw] < hv)
                if e is not None:
                    if lo < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[vw])
                        lowpt[e] = lo
                    elif lo > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], lo)
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[vw])

    # testing: a stack S of conflict pairs [left low, left high, right low,
    # right high] of return edges, None where an interval is empty
    S, bottom, lowpt_edge, side, ref = [], [None] * m, [None] * m, [1] * m, {}

    def conflicting(lo, hi, b):
        return (lo is not None or hi is not None) and lowpt[hi] > lowpt[b]

    def add_constraints(ei, e):
        P = [None, None, None, None]
        while True:  # merge ei's return edges into P's right interval
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q[:] = Q[2], Q[3], Q[0], Q[1]
                if Q[0] is not None or Q[1] is not None:
                    return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] is None and P[3] is None:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:  # align
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom[ei]:
                break
        # merge the conflicting return edges of ei's earlier siblings into P's left
        while True:
            Q = S[-1]
            if not (conflicting(Q[0], Q[1], ei) or conflicting(Q[2], Q[3], ei)):
                break
            S.pop()
            if conflicting(Q[2], Q[3], ei):
                Q[:] = Q[2], Q[3], Q[0], Q[1]
                if conflicting(Q[2], Q[3], ei):
                    return False
            ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P != [None, None, None, None]:
            S.append(P)
        return True

    def lowest(P):
        if P[0] is None and P[1] is None:
            return lowpt[P[2]]
        if P[2] is None and P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e):
        u = tail[e]
        hu = height[u]
        while S and lowest(S[-1]) == hu:
            P = S.pop()
            if P[0] is not None:
                side[P[0]] = -1
        if S:  # trim the left, then the right interval of the next pair
            P = S[-1]
            for lo, hi, other in ((0, 1, 2), (2, 3, 0)):
                while P[hi] is not None and head[P[hi]] == u:
                    P[hi] = ref.get(P[hi])
                if P[hi] is None and P[lo] is not None:  # just emptied
                    ref[P[lo]], side[P[lo]], P[lo] = P[other], -1, None
        if lowpt[e] < hu:  # e's side is that of a highest return edge
            hl, hr = S[-1][1], S[-1][3]
            ref[e] = hl if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]) else hr

    ordered = {v: sorted(out[v], key=nesting.__getitem__) for v in verts}
    for root in roots:
        stack, ind = [root], {root: 0}
        while stack:
            v = stack.pop()
            e, hv, edges = parent[v], height[v], ordered[v]
            for i in range(ind[v], len(edges)):
                ei = edges[i]
                w = head[ei]
                if ei != parent[w]:  # a back edge
                    bottom[ei] = S[-1] if S else None
                    lowpt_edge[ei] = ei
                    S.append([None, None, ei, ei])
                elif w not in ind:  # a tree edge: test w's subtree, then come back
                    bottom[ei] = S[-1] if S else None
                    ind[v], ind[w] = i, 0
                    stack += (v, w)
                    break
                if lowpt[ei] < hv:  # ei has a return edge
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return False, None
            else:
                if e is not None:
                    remove_back_edges(e)

    # sign: each edge's side, relative to its ref edge's, made absolute
    for e in range(m):
        chain = [e]
        while (r := ref.get(chain[-1])) is not None:
            ref[chain[-1]] = None
            chain.append(r)
        s = side[chain[-1]]
        for x in reversed(chain[:-1]):
            s = side[x] = side[x] * s
        nesting[e] *= side[e]

    # embedding: each vertex's neighbours as a cyclic list, clockwise and
    # counterclockwise links, and its leftmost neighbour. Out-edges go in by
    # signed nesting depth, each edge into a vertex as the DFS meets it
    cw, ccw, left = {}, {}, {}
    for v in verts:
        ordered[v] = edges = sorted(out[v], key=nesting.__getitem__)
        order = [head[x] for x in edges]
        cw[v] = dict(zip(order, order[1:] + order[:1]))
        ccw[v] = dict(zip(order, order[-1:] + order[:-1]))
        left[v] = order[0] if order else None

    def link(w, v, a, b):  # v into w's list, between a and b clockwise after it
        cw[w][a] = ccw[w][b] = v
        cw[w][v], ccw[w][v] = b, a

    left_ref, right_ref = {}, {}
    for root in roots:
        stack, ind = [root], {root: 0}
        while stack:
            v = stack.pop()
            edges = ordered[v]
            for i in range(ind[v], len(edges)):
                ei = edges[i]
                w = head[ei]
                if ei == parent[w]:  # v becomes w's leftmost neighbour
                    if left[w] is None:
                        link(w, v, v, v)
                    else:
                        link(w, v, ccw[w][left[w]], left[w])
                    left[w], left_ref[v], right_ref[v] = v, w, w
                    ind[v], ind[w] = i + 1, 0
                    stack += (v, w)
                    break
                if side[ei] == 1:
                    link(w, v, right_ref[w], cw[w][right_ref[w]])
                else:
                    link(w, v, ccw[w][left_ref[w]], left_ref[w])
                    if left[w] == left_ref[w]:
                        left[w] = v
                    left_ref[w] = v

    rotation = {}
    for v, row in adj.items():
        order, w = [], left[v]
        for _ in row:
            order.append(w)
            w = cw[v][w]
        rotation[v] = tuple(order)
    return True, rotation


def _ham_search(adj, start, required):
    """Backtracking search over adj (each vertex's sorted neighbours) for a
    Hamiltonian cycle from start that visits `required` in order, trying
    neighbours in sorted order. Returns the cycle or None."""
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
            options = [w for w in adj[v] if w not in visited]
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
    order = _ham_search(g.adjacency, min(g.vertices), ())
    return HamCycleWitness(tuple(order)) if order else None


def check_ham_ordered(g: Graph, p: int):
    """Whether for every p-tuple of distinct vertices a Hamiltonian cycle
    visits them in order. Returns (ok, counterexample)."""
    verts = sorted(g.vertices)
    if p > len(verts):
        raise SolverError("p exceeds the number of vertices")
    cache = {}

    def ordered_ok(tup):
        # a rotation of the tuple describes the same cyclic visiting order
        rots = [tup[i:] + tup[:i] for i in range(len(tup))]
        canon = min(rots)
        if canon not in cache:
            order = _ham_search(g.adjacency, canon[0], canon[1:])
            cache[canon] = order is not None
        return cache[canon]

    for tup in itertools.permutations(verts, p):
        if not ordered_ok(tup):
            return False, tup
    return True, None


def check_ore_condition(g: Graph, p: int) -> bool:
    """Degree-sum condition deg(v)+deg(w) >= |V| + 2p - 6 over all
    non-adjacent pairs; it implies the graph is p-Hamiltonian-ordered.

    With the vertices sorted by degree, the partners w that v could fail
    with, deg(w) < bound - deg(v), are a prefix of that order. v must be
    adjacent to all of it but itself, so each scan ends within deg(v) + 2
    vertices and the check costs O(n log n + m)."""
    if g.n < 3 or not (3 <= p <= g.n):
        raise SolverError("need |V| >= 3 and 3 <= p <= |V|")
    bound = g.n + 2 * p - 6
    by_degree = sorted(g.vertices, key=g.degree)
    degrees = [g.degree(v) for v in by_degree]
    for v, d in zip(by_degree, degrees):
        for w in by_degree[:bisect_left(degrees, bound - d)]:
            if w != v and not g.has_edge(v, w):
                return False
    return True


def vertex_connectivity_at_least(g: Graph, c: int) -> bool:
    if c <= 0:
        return True
    if g.n <= c:
        return False
    import networkx as nx

    return nx.node_connectivity(to_networkx(g)) >= c
