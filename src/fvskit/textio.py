"""File formats: the line-based graph format (header, edge lines, optional
witness line) and the JSON trace that makes a reduction replayable and
therefore checkable by a third party."""

from __future__ import annotations

import json

from .graph import Graph, HamCycleWitness, Instance, TraceStep, check_regular, _is_int
from .pipeline import CertificationError, PipelineError, PipelineResult, replay_trace
from .solvers import check_planarity


class FormatError(ValueError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, msg, line=None):
        self.line = line
        super().__init__(msg if line is None else f"line {line}: {msg}")


def parse_graph(text: str, k: int = 0) -> Instance:
    n = m = None
    edges = []
    seen = set()
    witness = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
        if tok[0] == "p":
            if n is not None:
                raise FormatError("duplicate header", ln)
            if len(tok) != 4 or tok[1] != "fvs":
                raise FormatError("header must be 'p fvs <n> <m>'", ln)
            try:
                n, m = int(tok[2]), int(tok[3])
            except ValueError:
                raise FormatError("header counts must be integers", ln)
            if n < 0 or m < 0:
                raise FormatError("header counts must be non-negative", ln)
        elif tok[0] == "e":
            if n is None:
                raise FormatError("edge before header", ln)
            if len(tok) != 3:
                raise FormatError("edge line must be 'e <u> <v>'", ln)
            try:
                u, v = int(tok[1]), int(tok[2])
            except ValueError:
                raise FormatError("edge endpoints must be integers", ln)
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(f"vertex out of range 1..{n}", ln)
            if u == v:
                raise FormatError("self-loop", ln)
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise FormatError("duplicate edge", ln)
            seen.add(e)
            edges.append(e)
        elif tok[0] == "h":
            if n is None:
                raise FormatError("witness before header", ln)
            if witness is not None:
                raise FormatError("duplicate witness line", ln)
            try:
                order = tuple(int(t) for t in tok[1:])
            except ValueError:
                raise FormatError("witness entries must be integers", ln)
            witness = (order, ln)
        else:
            raise FormatError(f"unknown line type {tok[0]!r}", ln)
    if n is None:
        raise FormatError("missing header")
    if len(edges) != m:
        raise FormatError(f"header announces {m} edges, found {len(edges)}")
    g = Graph(range(1, n + 1), edges)
    w = None
    if witness is not None:
        w = HamCycleWitness(witness[0])
        if not w.is_valid_for(g):
            raise FormatError("witness is not a Hamiltonian cycle", witness[1])
    return Instance(g, k, w)


def write_graph(inst: Instance) -> str:
    """Canonical text form: vertices renumbered 1..n in sorted id order."""
    g = inst.graph
    relabel = {v: i + 1 for i, v in enumerate(sorted(g.vertices))}
    lines = [f"p fvs {g.n} {g.m}"]
    for u, v in sorted(tuple(sorted((relabel[a], relabel[b]))) for a, b in g.edges):
        lines.append(f"e {u} {v}")
    if inst.witness is not None:
        lines.append("h " + " ".join(str(relabel[v]) for v in inst.witness.order))
    return "\n".join(lines) + "\n"


def trace_to_json(result: PipelineResult) -> dict:
    """The replayable trace of a pipeline run. verify_trace rebuilds the input
    on ids 1..n, so the input must already carry exactly those ids."""
    gin, gout = result.input.graph, result.instance.graph
    if gin.vertices != frozenset(range(1, gin.n + 1)):
        raise PipelineError(
            "trace input must have vertex ids 1..n; renumber it with "
            "parse_graph(write_graph(inst)) before reducing"
        )
    return {
        "input": {
            "n": gin.n,
            "m": gin.m,
            "k": result.input.k,
            "edges": [list(e) for e in sorted(gin.edges)],
        },
        "stages": [
            {
                "name": sr.name,
                "steps": [s.to_json() for s in sr.steps],
                "k_after": sr.instance.k,
                "certified": sr.certificate.to_json(),
            }
            for sr in result.stages
        ],
        "output": {"n": gout.n, "m": gout.m, "k": result.instance.k},
    }


def trace_dumps(result: PipelineResult) -> str:
    return json.dumps(trace_to_json(result), indent=2, sort_keys=True) + "\n"


def _canonical(g: Graph):
    relabel = {v: i for i, v in enumerate(sorted(g.vertices))}
    return g.n, frozenset(
        tuple(sorted((relabel[a], relabel[b]))) for a, b in g.edges
    )


def _load_trace(trace: dict):
    """Check the shape of a trace JSON; returns (input graph, input k,
    stages as (name, steps, k_after, certified), output (n, m, k))."""

    def integer(x, what):
        if not _is_int(x):
            raise FormatError(f"trace JSON: {what} must be an integer")
        return x

    try:
        inp = trace["input"]
        g = Graph(range(1, integer(inp["n"], "input n") + 1), [tuple(e) for e in inp["edges"]])
        k = integer(inp["k"], "input k")
        stages = []
        for st in trace["stages"]:
            name = st["name"]
            steps = []
            for i, d in enumerate(st["steps"]):
                try:
                    steps.append(TraceStep.from_json(name, d))
                except ValueError as exc:
                    raise FormatError(f"stage {name} step {i}: {exc}") from None
            if not isinstance(st["certified"], dict):
                raise FormatError(f"stage {name}: certified must be an object")
            stages.append((name, steps, integer(st["k_after"], f"stage {name} k_after"),
                           st["certified"]))
        out = tuple(integer(trace["output"][f], f"output {f}") for f in ("n", "m", "k"))
    except FormatError:
        raise
    except KeyError as exc:
        raise FormatError(f"trace JSON missing field: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed trace JSON: {exc}") from None
    return g, k, stages, out


def verify_trace(out_inst: Instance, trace: dict) -> None:
    """Replay a trace JSON against the claimed output; raises on any
    certificate mismatch. The ledger is rebuilt from the replayed ops
    alone: recorded k_delta values are compared, never added."""
    g, k, stages, out_decl = _load_trace(trace)
    for name, steps, k_after, cert in stages:
        g, dk = replay_trace(g, steps, k, n_out=out_decl[0])
        k += dk
        if k != k_after:
            raise CertificationError(
                f"stage {name}: ledger k={k} disagrees with recorded {k_after}"
            )
        if cert.get("regular") is not None and not check_regular(g, cert["regular"]):
            raise CertificationError(f"stage {name}: regularity claim fails")
        if cert.get("planar") and not check_planarity(g)[0]:
            raise CertificationError(f"stage {name}: planarity claim fails")
        if cert.get("even") and g.n % 2:
            raise CertificationError(f"stage {name}: even-order claim fails")
    if (g.n, g.m, k) != out_decl:
        raise CertificationError("trace output summary disagrees with replay")
    if k != out_inst.k:
        raise CertificationError(
            f"output budget {out_inst.k} disagrees with replayed ledger {k}"
        )
    if _canonical(g) != _canonical(out_inst.graph):
        raise CertificationError("replayed graph differs from output graph")
    if out_inst.witness is not None and not out_inst.witness.is_valid_for(out_inst.graph):
        raise CertificationError("output witness invalid")
    if stages and stages[-1][3].get("witness") and out_inst.witness is None:
        raise CertificationError("trace claims a witness but output has none")
