"""Independent checks of every operation's output. Nothing here calls into
fvskit: the graph text is parsed by its own reader, the budget ledger is
recomputed from the trace's ops with hand-written certified costs, and the
forest test is its own union-find. A failed check counts the operation as
failed."""

from __future__ import annotations

import networkx as nx

# Certified cost of one insertion of each gadget: (budget, vertices, edges)
# added. x and y fuse with the attachment points, so the vertex count is the
# gadget's order minus two.
GADGET_COST = {"R": (3, 7, 15), "L": (4, 10, 22), "D": (6, 12, 31)}


def y_cost(p):
    """Y_p: two K_p joined by a matching, plus ports x', y' and x, y."""
    return 2 * p - 2, 2 * p + 2, p * p + 2 * p + 2


class CheckError(Exception):
    pass


def parse_text(text: str):
    """(n, edge set, witness order or None) of ``p fvs`` text."""
    n = m = None
    edges = set()
    witness = None
    for line in text.splitlines():
        tok = line.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            n, m = int(tok[2]), int(tok[3])
        elif tok[0] == "e":
            u, v = int(tok[1]), int(tok[2])
            edges.add((min(u, v), max(u, v)))
        elif tok[0] == "h":
            witness = [int(t) for t in tok[1:]]
    if n is None or len(edges) != m:
        raise CheckError("output header missing or edge count wrong")
    if any(not (1 <= u < v <= n) for u, v in edges):
        raise CheckError("output edge outside 1..n")
    return n, edges, witness


def replay_ledger(n, m, k, stages):
    """Recompute (n, m, k) after every stage from the ops alone; compare k
    with each recorded k_after. Returns the per-stage records."""
    out = []
    for st in stages:
        for step in st["steps"]:
            op = step["op"]
            if op == "insert":
                kind = step["gadget"]
                dk, dn, dm = y_cost(step["p"]) if kind == "Y" else GADGET_COST[kind]
                k, n, m = k + dk, n + dn, m + dm
            elif op == "subdivide":
                n, m = n + 1, m + 1
            elif op == "copy":
                k, n, m = 2 * k, 2 * n, 2 * m
            elif op == "lift":
                c = 3 * n
                m += c * (c - 1) // 2 + c * n + 2 * c + 1
                k, n = k + c, 4 * n + 2
            else:
                raise CheckError(f"stage {st['name']}: op {op!r} has no certified cost")
        if k != st["k_after"]:
            raise CheckError(
                f"stage {st['name']}: ledger k {k} != recorded k_after {st['k_after']}")
        out.append({"name": st["name"], "n": n, "m": m, "k": k, "steps": len(st["steps"])})
    return out


def _edge_set(edges):
    return {(min(u, v), max(u, v)) for u, v in edges}


def target_degree(target):
    if target.startswith("4reg"):
        return 4
    if target.startswith("5reg"):
        return 5
    if target.startswith("preg-ham:"):
        return int(target.split(":")[1])
    return None


def is_ham_cycle(n, edges, order):
    if order is None or len(order) != n or set(order) != set(range(1, n + 1)) or n < 3:
        return False
    return all(
        (min(a, b), max(a, b)) in edges for a, b in zip(order, order[1:] + order[:1])
    )


def check_compile(job, out_text: str, trace: dict):
    """Check a reduce output and its trace against the job's input. Returns
    the per-stage (n, m, k, steps) records; raises CheckError."""
    inp = job.input
    tin = trace["input"]
    if (tin["n"], tin["k"]) != (inp.n, job.k) or _edge_set(tin["edges"]) != _edge_set(inp.edges):
        raise CheckError("trace input differs from the generated input")
    stages = replay_ledger(inp.n, len(inp.edges), job.k, trace["stages"])
    n, m, k = (stages[-1]["n"], stages[-1]["m"], stages[-1]["k"]) if stages else (
        inp.n, len(inp.edges), job.k)
    out = trace["output"]
    if (out["n"], out["m"], out["k"]) != (n, m, k):
        raise CheckError(f"trace output {out} != ledger n={n} m={m} k={k}")
    on, edges, witness = parse_text(out_text)
    if (on, len(edges)) != (n, m):
        raise CheckError(f"written graph n={on} m={len(edges)} != ledger n={n} m={m}")
    d = target_degree(job.target)
    if d is not None:
        deg = [0] * (on + 1)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if any(x != d for x in deg[1:]):
            raise CheckError(f"output is not {d}-regular")
    if job.target in ("4reg-planar", "4reg-planar-ham", "5reg-planar-ham"):
        G = nx.Graph(list(edges))
        G.add_nodes_from(range(1, on + 1))
        if not nx.check_planarity(G)[0]:
            raise CheckError("output is not planar")
    if job.target != "4reg-planar" and not is_ham_cycle(on, edges, witness):
        raise CheckError("witness is not a Hamiltonian cycle")
    return stages


def is_forest_after(n, edges, deleted):
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if u in deleted or v in deleted:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def check_solve(job, stdout: str):
    """``opt K`` and ``s v1 .. vK``: a feedback vertex set of the expected
    size."""
    lines = stdout.splitlines()
    if len(lines) < 2 or not lines[0].startswith("opt ") or not lines[1].startswith("s"):
        raise CheckError(f"unexpected solve output {stdout[:80]!r}")
    opt = int(lines[0].split()[1])
    deleted = {int(t) for t in lines[1].split()[1:]}
    if opt != job.expected_opt or len(deleted) != opt:
        raise CheckError(f"opt {opt} (|S| = {len(deleted)}), expected {job.expected_opt}")
    if not deleted <= set(range(1, job.input.n + 1)):
        raise CheckError("deleted vertex outside 1..n")
    if not is_forest_after(job.input.n, job.input.edges, deleted):
        raise CheckError("deleting S leaves a cycle")
