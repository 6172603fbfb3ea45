"""Benchmark inputs. Every workload is a batch of jobs built from the seed;
one pass of a run executes the whole batch once.

A job is either a compile (``fvskit reduce`` followed by ``fvskit verify`` on
what it wrote) or a solve (``fvskit solve``). Inputs are 1-based ``p fvs``
text, as the file format requires.

The compile corpus is fixed: the seed shuffles the order and orientation of
the edge lines, which the compiler must not depend on, but not the vertex
numbering. Renumbering a grid changes the pipeline's
embedding and pairing, and with them its output size and run time by up to
2x (grid 6x6: 840 to 1204 output vertices, 6.8 to 14.2 s), which no run
length here could average out. A fixed corpus also makes the output digests
of two code versions directly comparable. The exact-solve instances are drawn
from the seed, in strata of fixed size and optimum, so that the cost of a
pass barely depends on the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

# A lift maps n to 4n + 2 and builds a K_3n join; a Y_p round adds cliques of
# size p. Past these caps one operation takes minutes or gigabytes (C30 to
# ham-ordered:7 is 7 850 vertices; C3 to preg-ham:7 reduces in 164 s).
MAX_LIFT_VERTICES = 1000
MAX_Y_P = 6


@dataclass(frozen=True)
class Input:
    """An undirected simple graph on vertices 1..n."""

    name: str
    n: int
    edges: tuple

    def text(self, rng: random.Random) -> str:
        """``p fvs`` text with the edge lines in a seeded order and
        orientation."""
        lines = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in self.edges]
        rng.shuffle(lines)
        body = "".join(f"e {u} {v}\n" for u, v in lines)
        return f"c {self.name}\np fvs {self.n} {len(lines)}\n{body}"


@dataclass(frozen=True)
class Job:
    verb: str  # "compile" or "solve"
    input: Input
    text: str
    target: str | None = None
    k: int = 0
    expected_opt: int | None = None

    @property
    def key(self) -> str:
        if self.verb == "compile":
            return f"{self.input.name}->{self.target}"
        return self.input.name


def grid(rows, cols) -> Input:
    def vid(i, j):
        return i * cols + j + 1

    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < rows:
                edges.append((vid(i, j), vid(i + 1, j)))
    return Input(f"grid{rows}x{cols}", rows * cols, tuple(edges))


def cycle(n) -> Input:
    return Input(f"cycle{n}", n, tuple((i, i % n + 1) for i in range(1, n + 1)))


def prism() -> Input:
    edges = ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6))
    return Input("prism", 6, edges)


def check_size(inp: Input, target: str) -> None:
    """Refuse compile jobs whose output would exceed the caps above."""
    if target.startswith("ham-ordered:"):
        n = inp.n
        for _ in range(int(target.split(":")[1]) - 3):
            n = 4 * n + 2
        if n > MAX_LIFT_VERTICES:
            raise ValueError(f"{inp.name} -> {target}: lift output {n} > {MAX_LIFT_VERTICES}")
    if target.startswith("preg-ham:") and int(target.split(":")[1]) > MAX_Y_P:
        raise ValueError(f"{inp.name} -> {target}: Y rounds beyond p = {MAX_Y_P}")


# Reduction budget given to every compile. Any value keeps the instance
# equivalent; a non-zero one makes evenize's doubling visible to the ledger.
COMPILE_K = 1

# Pairing and hamiltonize dominate: routing, crossings and merges.
GRID_HAM4 = ((grid(5, 5), "4reg-planar-ham"), (grid(8, 8), "4reg-planar"))
# Gadget insertion and replay dominate: D and Y rounds, evenize's copy
# (the prism's Hamiltonian stage output has odd order) and a K_3n join.
REGULARIZE = ((prism(), "5reg-planar-ham"), (cycle(3), "preg-ham:6"), (cycle(40), "ham-ordered:5"))


def _compile_jobs(corpus, rng):
    # Job order stays fixed: it decides which outputs are still alive when
    # the largest one is built, and so moves peak memory by about 8 %.
    jobs = []
    for inp, target in corpus:
        check_size(inp, target)
        jobs.append(Job("compile", inp, inp.text(rng), target=target, k=COMPILE_K))
    return jobs


def _relabelled(name, g: nx.Graph, rng) -> Input:
    """g's edges on a seeded numbering 1..n."""
    nodes = sorted(g.nodes)
    ids = list(range(1, len(nodes) + 1))
    rng.shuffle(ids)
    label = dict(zip(nodes, ids))
    edges = tuple(sorted(tuple(sorted((label[u], label[v]))) for u, v in g.edges))
    return Input(name, len(nodes), edges)


def _fvs_graph(inp: Input):
    from fvskit.graph import Graph

    return Graph(range(1, inp.n + 1), inp.edges)


def _regular_stratum(rng, d, n, opt, count):
    """Random d-regular graphs on n vertices whose optimum is opt, taken from
    the branch-and-reduce solver. ``fvskit solve`` answers them with the
    exhaustive solver (n <= 26), so each check compares the two solvers."""
    from fvskit.solvers import fvs_branch_reduce

    out = []
    for _ in range(50 * count):
        g = nx.random_regular_graph(d, n, seed=rng.randrange(2**32))
        inp = _relabelled(f"reg{d}n{n}-{len(out)}", g, rng)
        if len(fvs_branch_reduce(_fvs_graph(inp)).deleted) == opt:
            out.append((inp, opt))
            if len(out) == count:
                return out
    raise RuntimeError(f"no {d}-regular n={n} graphs with optimum {opt}")


def _union_stratum(rng, count):
    """Disjoint unions of four random cubic graphs (n 48..64).
    ``fvskit solve`` takes the branch-and-reduce path (n > 26); the expected
    optimum is the sum of the components' exhaustive optima."""
    from fvskit.solvers import fvs_exact_exhaustive

    out = []
    for i in range(count):
        union = nx.Graph()
        opt = 0
        for c in range(4):
            size = rng.choice((12, 14, 16))
            comp = nx.random_regular_graph(3, size, seed=rng.randrange(2**32))
            part = _relabelled("component", comp, rng)
            opt += len(fvs_exact_exhaustive(_fvs_graph(part)).deleted)
            union.add_edges_from(((c, u), (c, v)) for u, v in part.edges)
        out.append((_relabelled(f"cubic-union-{i}", union, rng), opt))
    return out


def _solve_jobs(rng):
    drawn = (
        _regular_stratum(rng, 3, 22, 6, 10)
        + _regular_stratum(rng, 4, 20, 7, 14)
        + _union_stratum(rng, 6)
    )
    jobs = [Job("solve", inp, inp.text(rng), expected_opt=opt) for inp, opt in drawn]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "grid-ham4": lambda rng: _compile_jobs(GRID_HAM4, rng),
    "regularize": lambda rng: _compile_jobs(REGULARIZE, rng),
    "exact-solve": _solve_jobs,
}


def build(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
