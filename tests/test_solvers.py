import functools
import inspect
import itertools
import random
import re
import sys
import time

import networkx
import pytest

from fvskit import solvers
from fvskit.graph import Builder, Graph, _strip_adjacency, faces, to_networkx
from fvskit.solvers import (
    SolverError,
    UndecidedError,
    check_ham_ordered,
    check_ore_condition,
    check_planarity,
    enumerate_min_fvs,
    find_hamiltonian_cycle,
    fvs_branch_reduce,
    fvs_exact_exhaustive,
    is_fvs,
    vertex_connectivity_at_least,
)
from fvskit.gadgets import build_core_wheel, build_gadget

from conftest import (
    bull_free_random,
    c4k1,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    prism_graph,
    random_cubic,
    random_regular4,
    wheel_graph,
)


@functools.cache
def reference_exhaustive(g):
    """Every optimal deletion set, in lexicographic order over the sorted
    vertex ids, by testing every deletion subset of each size in turn: the
    scan that the induced-forest search replaced, kept as its oracle."""
    verts = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    masks = [0] * len(verts)
    for u, v in g.edges:
        masks[idx[u]] |= 1 << idx[v]
        masks[idx[v]] |= 1 << idx[u]

    def acyclic(sub):
        # a forest peels away completely under degree <= 1 stripping
        while sub:
            leaves = [i for i, nb in enumerate(masks) if sub >> i & 1 and (nb & sub).bit_count() <= 1]
            if not leaves:
                return False
            for i in leaves:
                sub &= ~(1 << i)
        return True

    full = (1 << len(verts)) - 1
    for k in range(len(verts) + 1):
        found = [
            frozenset(verts[i] for i in combo)
            for combo in itertools.combinations(range(len(verts)), k)
            if acyclic(full & ~sum(1 << i for i in combo))
        ]
        if found:
            return found
    raise AssertionError("unreachable: full deletion is always acyclic")


def _oracle_corpus():
    """Seeded random graphs on 0..16 vertices, forests, disconnected graphs
    and the gadgets small enough for the subset scan."""
    for n in range(17):
        for m in sorted({n - 1, n + n // 2, 2 * n}):
            if m >= 0:
                yield f"random-{n}-{m}", bull_free_random(n, m, 100 * n + m)
    yield "empty", Graph()
    yield "isolated", Graph(range(1, 6))
    yield "path", path_graph(9)
    yield "star+path", Graph(range(1, 9), [(1, 2), (1, 3), (1, 4), (5, 6), (6, 7)])
    yield "k4+c5", Graph.from_edges(
        list(complete_graph(4).edges) + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    )
    yield "wheel5+triangle", Graph.from_edges(
        list(wheel_graph(5).edges) + [(10, 11), (11, 12), (10, 12)]
    )
    yield "core-wheel", build_core_wheel()
    for kind in "RLD":
        yield kind, build_gadget(kind).graph
    for p in range(3, 7):
        yield f"Y{p}", build_gadget("Y", p).graph


class TestIsFvs:
    def test_cycle(self):
        g = cycle_graph(5)
        assert not is_fvs(g, set())
        assert is_fvs(g, {1})
        assert is_fvs(g, {1, 2})

    def test_forest_empty_set(self):
        assert is_fvs(path_graph(6), set())

    def test_k4(self):
        g = complete_graph(4)
        assert not is_fvs(g, {1})
        assert is_fvs(g, {1, 2})

    def test_rejects_foreign_vertices(self):
        with pytest.raises(Exception):
            is_fvs(cycle_graph(3), {99})


class TestExhaustive:
    def test_forest_is_zero(self):
        assert fvs_exact_exhaustive(path_graph(8)).deleted == frozenset()

    def test_cycle_is_one(self):
        sol = fvs_exact_exhaustive(cycle_graph(6))
        assert sol.deleted == frozenset({1})  # lexicographically smallest
        assert vars(sol).keys() == {"deleted"}  # the set is all a solution holds

    def test_k5_is_three(self):
        assert len(fvs_exact_exhaustive(complete_graph(5)).deleted) == 3

    def test_bowtie_cut_vertex(self):
        g = Graph.from_edges([(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
        assert fvs_exact_exhaustive(g).deleted == frozenset({3})

    def test_gadget_d_is_six(self):
        assert len(fvs_exact_exhaustive(build_gadget("D").graph).deleted) == 6

    def test_size_limit(self):
        g = Graph(range(1, 31), [(i, i + 1) for i in range(1, 30)])
        with pytest.raises(SolverError, match="use branch-reduce"):
            fvs_exact_exhaustive(g)

    def test_enumerate_all_optima(self):
        opt, sols = enumerate_min_fvs(cycle_graph(4))
        assert opt == 1
        assert sols == [frozenset({v}) for v in (1, 2, 3, 4)]


@pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in _oracle_corpus()])
def test_exhaustive_matches_subset_scan(g):
    expected = reference_exhaustive(g)
    assert fvs_exact_exhaustive(g).deleted == expected[0]
    assert enumerate_min_fvs(g) == (len(expected[0]), expected)


@pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in _oracle_corpus()])
def test_branch_reduce_matches_subset_scan(g):
    sol = fvs_branch_reduce(g)
    assert len(sol.deleted) == len(reference_exhaustive(g)[0])
    assert is_fvs(g, sol.deleted)


def _degree_bounds(g):
    """The exhaustive search's bound and branch-and-reduce's on all of g."""
    delta = max(map(g.degree, g.vertices), default=0)
    return solvers._exhaustive_lb(g.m, g.n, delta), solvers._degree_sum_lb(g.adjacency)


@pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in _oracle_corpus()])
def test_degree_bounds_below_subset_scan(g):
    opt = len(reference_exhaustive(g)[0])
    assert all(lb <= opt for lb in _degree_bounds(g))


@pytest.mark.parametrize("n", [20, 22])
def test_degree_bounds_tight_on_cubic(n):
    # m − n + 1 is 11 and 12 here: odd and even, so the ceiling and the + 1
    # both matter
    g = random_cubic(n, 0)
    assert _degree_bounds(g) == (6, 6) == (len(reference_exhaustive(g)[0]),) * 2


@pytest.mark.parametrize(
    "solve, g",
    [(fvs_exact_exhaustive, bull_free_random(26, 60, 3)), (fvs_branch_reduce, random_cubic(48, 0))],
    ids=["exhaustive", "branch-reduce"],
)
def test_undecided_reports_nodes_and_bounds(monkeypatch, solve, g):
    opt = len(solve(g).deleted)
    reads = itertools.count()
    monkeypatch.setattr(solvers.time, "monotonic", lambda: next(reads))
    with pytest.raises(UndecidedError) as info:
        solve(g, time_budget=3)
    found = re.fullmatch(
        r"undecided within budget: (\d+) nodes searched, (\d+) <= opt <= (\d+)", str(info.value)
    )
    nodes, lower, upper = map(int, found.groups())
    assert nodes > 0 and lower <= opt <= upper


def test_budget_honoured_mid_search(monkeypatch):
    # a clock that advances one unit per read: the deadline, three units out,
    # passes only at the search's periodic reads, thousands of nodes in
    reads = itertools.count()
    monkeypatch.setattr(solvers.time, "monotonic", lambda: next(reads))
    with pytest.raises(UndecidedError, match="undecided within budget"):
        fvs_exact_exhaustive(bull_free_random(26, 60, 3), time_budget=3)
    assert next(reads) == 5


def test_budget_trips_inside_the_cycle_packing(monkeypatch):
    # a clock that advances one unit per read: the deadline is read at 0,
    # the first node at 1, and the packing's first shortest-cycle search
    # reads it before each BFS root, passing 3 at its third root
    g = random_cubic(48, 0)
    monkeypatch.setattr(solvers.time, "monotonic", lambda: pytest.fail("clock read"))
    opt = len(fvs_branch_reduce(g).deleted)
    tripped = []
    packing = solvers._cycle_packing

    def spy(adj, timeout=None):
        try:
            return packing(adj, timeout)
        except UndecidedError:
            tripped.append(len(adj))
            raise

    monkeypatch.setattr(solvers, "_cycle_packing", spy)
    reads = itertools.count()
    monkeypatch.setattr(solvers.time, "monotonic", lambda: next(reads))
    with pytest.raises(UndecidedError) as info:
        fvs_branch_reduce(g, time_budget=3)
    assert next(reads) == 5 and tripped == [48]
    lower = solvers._degree_sum_lb(g.adjacency)
    upper = len(solvers._greedy_fvs(g.adjacency))
    assert 0 < lower <= opt <= upper
    assert str(info.value) == (
        f"undecided within budget: 1 nodes searched, {lower} <= opt <= {upper}")


def test_undecided_lower_bound_is_the_current_round(monkeypatch):
    # the search deepens k from the root bound 4; rounds 4 and 5 end within
    # 1 216 nodes, so the budget trips 3 072 nodes in, in a later round,
    # whose k each refuted round has proved a lower bound
    rounds = []
    search = solvers._optimal_deletions

    def recording(masks, k, tick):
        rounds.append(k)
        return search(masks, k, tick)

    monkeypatch.setattr(solvers, "_optimal_deletions", recording)
    reads = itertools.count()
    monkeypatch.setattr(solvers.time, "monotonic", lambda: next(reads))
    with pytest.raises(UndecidedError) as info:
        fvs_exact_exhaustive(bull_free_random(26, 60, 3), time_budget=3)
    found = re.match(r"undecided within budget: 3072 nodes searched, (\d+) <= ", str(info.value))
    assert rounds[0] == 4 < rounds[-1] == int(found.group(1))


@pytest.mark.parametrize("g", [bull_free_random(26, 60, 3), random_regular4(20, 1)], ids=["bull", "4reg"])
def test_greedy_bound_never_changes_the_answer(monkeypatch, g):
    expected = fvs_exact_exhaustive(g).deleted
    monkeypatch.setattr(solvers, "_greedy_fvs", lambda adj: {min(adj)})
    assert fvs_exact_exhaustive(g).deleted == expected
    assert fvs_exact_exhaustive(g, time_budget=60).deleted == expected


def reference_greedy(adj):
    """The greedy that _greedy_fvs replaced, kept as its oracle: a full max
    and a full strip scan per deletion."""
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


def test_greedy_deletes_like_the_full_scan():
    graphs = [bull_free_random(n, m, seed) for seed in range(150)
              for n, m in [(8 + seed % 30, 10 + 3 * seed % 90)]]
    graphs += [random_cubic(20 + 2 * s, s) for s in range(20)]
    graphs += [random_regular4(20 + s, s) for s in range(20)]
    for g in graphs:
        got = solvers._greedy_fvs(g.adjacency)
        assert got == reference_greedy(g.adjacency)
        assert is_fvs(g, got)


def test_greedy_scales_to_large_outputs():
    # a 150x150 grid: 22 500 vertices whose degrees tie in long runs; the
    # full-scan greedy needs minutes here
    g = grid_graph(150, 150)
    start = time.perf_counter()
    out = solvers._greedy_fvs(g.adjacency)
    assert time.perf_counter() - start < 5
    assert is_fvs(g, out)


def test_budget_trips_inside_the_greedy(monkeypatch):
    # the C5 -> preg-ham:6 output, 4 312 vertices: the greedy reads a clock
    # that advances one unit per read at its 1 024th deletion, past the
    # deadline half a unit out, before any node is searched
    from fvskit.graph import Instance
    from fvskit.pipeline import run_pipeline

    g = run_pipeline(Instance(cycle_graph(5), 1), "preg-ham:6").instance.graph
    assert g.n >= 4000 and len(solvers._greedy_fvs(g.adjacency)) >= 1024
    finished = []
    greedy = solvers._greedy_fvs
    monkeypatch.setattr(solvers, "_greedy_fvs", lambda *a: finished.append(greedy(*a)))
    reads = itertools.count()
    monkeypatch.setattr(solvers.time, "monotonic", lambda: next(reads))
    with pytest.raises(UndecidedError, match="0 nodes searched, "):
        fvs_branch_reduce(g, time_budget=0.5)
    assert next(reads) == 2 and finished == []


class TestBranchReduce:
    def test_empty(self):
        assert fvs_branch_reduce(Graph()).deleted == frozenset()

    def test_agrees_with_exhaustive(self):
        for s in range(25):
            g = bull_free_random(10, 16, 500 + s)
            a = len(fvs_exact_exhaustive(g).deleted)
            b = len(fvs_branch_reduce(g).deleted)
            assert a == b, (s, a, b)

    def test_4regular_instances(self):
        for s in range(3):
            g = random_regular4(14, s)
            a = len(fvs_exact_exhaustive(g).deleted)
            sol = fvs_branch_reduce(g)
            assert len(sol.deleted) == a
            assert is_fvs(g, sol.deleted)

    def test_small_budget_hint_still_optimal(self):
        assert len(fvs_branch_reduce(complete_graph(6)).deleted) == 4

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # a chain of 150 triangles, each joined to the next by one edge: the
        # search deletes one vertex per triangle, one node deeper each time
        edges = [e for i in range(0, 450, 3)
                 for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2), (i + 2, i + 3))]
        g = Graph.from_edges(edges[:-1])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            assert len(fvs_branch_reduce(g).deleted) == 150
        finally:
            sys.setrecursionlimit(limit)

    def test_time_budget_raises(self):
        g = random_regular4(60, 7)
        with pytest.raises(UndecidedError, match="undecided within budget"):
            fvs_branch_reduce(g, time_budget=1e-4)


def _random_adjacency(seed, n_range):
    """A seeded G(n, p) as a dict of sets on 0..n-1."""
    rng = random.Random(seed)
    n = rng.randint(*n_range)
    p = rng.uniform(0.1, 0.45)
    adj = {v: set() for v in range(n)}
    for u, w in itertools.combinations(range(n), 2):
        if rng.random() < p:
            adj[u].add(w)
            adj[w].add(u)
    return adj, rng


def _graph(adj):
    return Graph(set(adj), [(u, w) for u, ns in adj.items() for w in ns if u < w])


def _min_fvs_avoiding(adj, forbidden):
    """The size of a smallest FVS of adj that avoids forbidden, or None if
    none does, by testing the deletable subsets in size order."""
    g = _graph(adj)
    free = sorted(set(adj) - forbidden)
    for k in range(len(free) + 1):
        if any(is_fvs(g, gone) for gone in itertools.combinations(free, k)):
            return k
    return None


def _assert_reduced_rows(adj, before):
    assert set(adj) <= set(before)
    for v, ns in adj.items():
        assert len(ns) >= 2 and v not in ns
        assert all(v in adj[w] for w in ns)


class TestReduce:
    @pytest.mark.parametrize("seed", range(0, 600, 50))
    def test_one_sweep_reaches_the_fixpoint_and_keeps_the_optimum(self, seed):
        for s in range(seed, seed + 50):
            adj, _ = _random_adjacency(s, (4, 16))
            before = _graph(adj)
            solvers._reduce(adj, frozenset())
            _assert_reduced_rows(adj, before.adjacency)
            for v, ns in adj.items():
                if len(ns) == 2:
                    u, w = ns
                    assert w in adj[u], (s, v)
            opt = len(fvs_exact_exhaustive(before).deleted)
            assert len(fvs_exact_exhaustive(_graph(adj)).deleted) == opt, s

    def test_keeps_the_optimum_that_avoids_the_forbidden_vertices(self):
        for s in range(300):
            adj, rng = _random_adjacency(s, (4, 11))
            forbidden = frozenset(v for v in adj if rng.random() < 0.3)
            before = {v: set(ns) for v, ns in adj.items()}
            solvers._reduce(adj, forbidden)
            _assert_reduced_rows(adj, before)
            assert _min_fvs_avoiding(adj, forbidden) == _min_fvs_avoiding(before, forbidden), s


def test_shortest_cycle_has_the_girth():
    for s in range(2000):
        adj, _ = _random_adjacency(s, (3, 14))
        g = _graph(adj)
        cyc = solvers._shortest_cycle(adj, lambda: None)
        girth = networkx.girth(to_networkx(g))
        if cyc is None:
            assert girth == float("inf"), s
            continue
        assert len(set(cyc)) == len(cyc) == girth, s
        assert all(cyc[i - 1] in adj[v] for i, v in enumerate(cyc)), s


class TestPlanarityAndWitness:
    def test_k4_planar_with_rotation(self):
        ok, rot = check_planarity(complete_graph(4))
        assert ok
        assert all(len(rot[v]) == 3 for v in rot)

    def test_k5_not_planar(self):
        assert check_planarity(complete_graph(5)) == (False, None)

    def test_y3_planar(self):
        ok, _ = check_planarity(build_gadget("Y", 3).graph)
        assert ok

    def test_find_ham_cycle(self):
        w = find_hamiltonian_cycle(prism_graph())
        assert w is not None and w.is_valid_for(prism_graph())

    def test_find_ham_cycle_absent(self):
        assert find_hamiltonian_cycle(path_graph(5)) is None

    def test_find_ham_cycle_tiny(self):
        assert find_hamiltonian_cycle(Graph.from_edges([(1, 2)])) is None


def _networkx_lr(g):
    """networkx's LR test of g, the oracle of solvers.check_planarity: its
    verdict, and its rotation read clockwise as the port reads its own."""
    ok, emb = networkx.check_planarity(to_networkx(g))
    return ok, {v: tuple(emb.neighbors_cw_order(v)) for v in g.vertices} if ok else None


def _assert_same_lr_test(g):
    ok, rot = check_planarity(g)
    if g.n > 2 and g.m > 3 * g.n - 6:
        # both tests refuse these by the edge count alone
        assert (ok, rot) == (False, None)
        return ok
    want_ok, want = _networkx_lr(g)
    assert ok == want_ok, g
    assert rot is None or list(rot.items()) == list(want.items()), g
    return ok


def _subdivided(g):
    b = Builder(g)
    for e in sorted(g.edges):
        b.subdivide(e)
    return b.freeze()


class TestLeftRightPort:
    """check_planarity is fvskit's port of networkx's LRPlanarity: the same
    verdict and the same rotation, on every graph."""

    def test_every_stage_graph_of_the_golden_and_bench_jobs(self):
        from test_golden import GOLDEN, _reduced

        jobs = {(make, target) for _, make, target, *_ in GOLDEN}
        jobs |= {(lambda: grid_graph(5, 5), "4reg-planar-ham"),
                 (lambda: grid_graph(8, 8), "4reg-planar"),
                 (prism_graph, "5reg-planar-ham"), (lambda: cycle_graph(40), "ham-ordered:5")}
        planar = 0
        for make, target in jobs:
            res = _reduced(make, target)
            for g in [make()] + [sr.instance.graph for sr in res.stages]:
                planar += _assert_same_lr_test(g)
        assert planar >= 40

    def test_seeded_random_graphs(self):
        # n 1..40 at densities from a forest-like m = n/2 past m = 3n - 6:
        # disconnected graphs, isolated vertices and sparse ids included
        rng = random.Random(29)
        verdicts = set()
        for n in range(1, 41):
            pairs = list(itertools.combinations(range(n), 2))
            for density in (0.5, 1.0, 1.5, 2.0, 2.5, 3.2):
                m = min(int(density * n), len(pairs))
                ids = rng.sample(range(1, 4 * n + 1), n)
                edges = [(ids[a], ids[b]) for a, b in rng.sample(pairs, m)]
                verdicts.add(_assert_same_lr_test(Graph(ids, edges)))
        assert verdicts == {True, False}

    def test_trees(self):
        rng = random.Random(3)
        for n in range(1, 60):
            g = Graph(range(n), [(i, rng.randrange(i)) for i in range(1, n)])
            assert _assert_same_lr_test(g)

    def test_kuratowski_graphs_and_their_subdivisions(self):
        k33 = Graph.from_edges([(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
        for g in (complete_graph(5), k33):
            assert not _assert_same_lr_test(g)
            assert not _assert_same_lr_test(_subdivided(g))
            assert not _assert_same_lr_test(_subdivided(_subdivided(g)))
            for e in sorted(g.edges):  # one edge fewer: planar
                assert _assert_same_lr_test(Graph(g.vertices, g.edges - {e}))

    def test_builder_outputs_with_sparse_ids(self):
        # gadgets on fresh ids above stripped-away ones
        r = build_gadget("R")
        for g in (grid_graph(4, 5), prism_graph(), wheel_graph(7)):
            b = Builder(Graph([*g.vertices, 1000], g.edges | {(max(g.vertices), 1000)}))
            b.strip()
            for u, v in sorted(g.edges)[::3]:
                b.subdivide((u, v))
            for v in sorted(b.vertices)[::2]:
                b.insert(r, v, v)
            assert _assert_same_lr_test(b.freeze())

    def test_deep_input(self):
        # the DFS is iterative: a cycle 5 000 deep raises no RecursionError
        g = cycle_graph(5000)
        ok, rot = check_planarity(g)
        assert ok and len(faces(g, rot)) == 2


class TestHamOrdered:
    def test_c6_p3(self):
        ok, ce = check_ham_ordered(cycle_graph(6), 3)
        assert ok and ce is None

    def test_c6_p4_counterexample(self):
        ok, ce = check_ham_ordered(cycle_graph(6), 4)
        assert not ok
        assert len(ce) == 4 and len(set(ce)) == 4

    def test_k6_p4(self):
        ok, _ = check_ham_ordered(complete_graph(6), 4)
        assert ok

    def test_p_too_large(self):
        with pytest.raises(SolverError):
            check_ham_ordered(cycle_graph(3), 4)


class TestDegreeConditions:
    def test_k7_p4(self):
        assert check_ore_condition(complete_graph(7), 4)

    def test_c6_p3(self):
        assert not check_ore_condition(cycle_graph(6), 3)

    def test_bad_arguments(self):
        with pytest.raises(SolverError):
            check_ore_condition(cycle_graph(4), 2)

    def test_matches_the_pair_scan_for_every_p(self):
        def pair_scan(g, p):
            bound = g.n + 2 * p - 6
            verts = sorted(g.vertices)
            return all(g.has_edge(v, w) or g.degree(v) + g.degree(w) >= bound
                       for i, v in enumerate(verts) for w in verts[i + 1:])

        rng = random.Random(0)
        outcomes = set()
        for seed in range(400):
            n = rng.randint(3, 14)
            g = bull_free_random(n, rng.randint(0, n * (n - 1) // 2), seed)
            for p in range(3, n + 1):
                expected = pair_scan(g, p)
                assert check_ore_condition(g, p) == expected, (seed, p)
                outcomes.add(expected)
        assert outcomes == {True, False}

    def test_connectivity(self):
        assert vertex_connectivity_at_least(complete_graph(5), 4)
        assert not vertex_connectivity_at_least(complete_graph(5), 5)
        assert vertex_connectivity_at_least(cycle_graph(6), 2)
        assert not vertex_connectivity_at_least(c4k1(), 4)
