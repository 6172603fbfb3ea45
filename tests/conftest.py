"""Shared graph builders for the test suite."""

import random

import networkx as nx
import pytest

from fvskit.graph import Graph
from fvskit.solvers import check_planarity, find_hamiltonian_cycle, fvs_exact_exhaustive


def cycle_graph(n):
    return Graph.from_edges([(i, i % n + 1) for i in range(1, n + 1)])


def path_graph(n):
    return Graph.from_edges([(i, i + 1) for i in range(1, n)])


def grid_graph(rows, cols):
    """rows x cols grid, vertex i*cols + j + 1 at row i, column j."""
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j + 1
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(edges)


def complete_graph(n):
    return Graph.from_edges([(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])


def wheel_graph(rim):
    """Rim cycle 1..rim plus a hub 0 joined to every rim vertex; rim=4 gives
    the 4-cycle-plus-apex core used inside the R and L gadgets."""
    edges = [(i, i % rim + 1) for i in range(1, rim + 1)]
    edges += [(0, i) for i in range(1, rim + 1)]
    return Graph.from_edges(edges)


def c4k1():
    return wheel_graph(4)


def prism_graph():
    return Graph.from_edges(
        [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
    )


def cube_graph():
    e = [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5),
         (1, 5), (2, 6), (3, 7), (4, 8)]
    return Graph.from_edges(e)


def octahedron_graph():
    # antipodal pairs (1,4), (2,5), (3,6)
    verts = range(1, 7)
    anti = {1: 4, 4: 1, 2: 5, 5: 2, 3: 6, 6: 3}
    return Graph.from_edges(
        [(u, v) for u in verts for v in verts if u < v and anti[u] != v]
    )


def bowtie_graph():
    return Graph.from_edges([(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])


def bull_free_random(n, m, seed):
    """Seeded random simple graph on 1..n with m edges."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    return Graph(range(1, n + 1), rng.sample(pairs, min(m, len(pairs))))


def random_regular4(n, seed):
    G = nx.random_regular_graph(4, n, seed=seed)
    return Graph.from_edges([(u + 1, v + 1) for u, v in G.edges()])


def random_cubic(n, seed):
    G = nx.random_regular_graph(3, n, seed=seed)
    return Graph.from_edges([(u + 1, v + 1) for u, v in G.edges()])


def medial_graph(base: Graph) -> Graph:
    """Vertex per base edge; two joined when consecutive in the rotation at
    a shared endpoint. 4-regular and planar for planar base of min degree 3."""
    planar, rot = check_planarity(base)
    assert planar
    eid = {e: i + 1 for i, e in enumerate(sorted(base.edges))}

    def key(u, v):
        return eid[(u, v) if u < v else (v, u)]

    edges = set()
    for v, order in sorted(rot.items()):
        for i, u in enumerate(order):
            w = order[(i + 1) % len(order)]
            a, b = key(v, u), key(v, w)
            if a != b:
                edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(sorted(edges))


def odd_4regular_planar_ham():
    """A 4-regular planar Hamiltonian graph of odd order with its witness,
    found deterministically among medial graphs of small planar bases."""
    k5_minus = Graph.from_edges(
        [(i, j) for i in range(1, 5) for j in range(i + 1, 6) if (i, j) != (1, 2)]
    )
    for base in (prism_graph(), k5_minus):
        g = medial_graph(base)
        if g.n % 2 == 0:
            continue
        if not all(g.degree(v) == 4 for v in g.vertices):
            continue
        if not check_planarity(g)[0]:
            continue
        w = find_hamiltonian_cycle(g)
        if w is not None:
            return g, w
    raise AssertionError("no odd fixture found")


# Inputs with bridges, whose pairing inserts name a second dart. The
# dumbbell is two triangles joined by a bridge that the route crosses twice.
# In the rings, a fragment runs from a crossing on one bridge to an end of
# another, both with two corners on its face.
DUMBBELL = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)]
RINGS = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (7, 8), (8, 9), (9, 7), (6, 8),
         (10, 11), (11, 12), (12, 13), (13, 14), (14, 10), (5, 15), (15, 10), (16, 17),
         (17, 18), (18, 19), (19, 20), (20, 16), (6, 18), (21, 22), (22, 23), (23, 24),
         (24, 25), (25, 26), (26, 21), (18, 27), (27, 23)]


def opt(g):
    return len(fvs_exact_exhaustive(g).deleted)


@pytest.fixture(scope="session")
def pipeline_corpus():
    """The >= 10 inputs driven end to end through the reduction stages."""
    return {
        "C3": cycle_graph(3),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "C6": cycle_graph(6),
        "C8": cycle_graph(8),
        "K4": complete_graph(4),
        "bowtie": bowtie_graph(),
        "prism": prism_graph(),
        "cube": cube_graph(),
        "wheel4": c4k1(),
        "octahedron": octahedron_graph(),
    }
