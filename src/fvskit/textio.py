"""File formats: the line-based graph format (header, edge lines, optional
witness line) and the JSON trace that makes a reduction replayable and
therefore checkable by a third party."""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import defaultdict
from operator import itemgetter

from .graph import (Graph, GraphError, HamCycleWitness, Instance, TraceStep, quoted,
                    sorted_edges)
from .pipeline import (
    MAX_OUTPUT_EDGES,
    STAGE_NAMES,
    CertificationError,
    PipelineError,
    PipelineResult,
    certify,
    parse_target,
    replay_stages,
)


class FormatError(ValueError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, msg, line=None):
        self.line = line
        super().__init__(msg if line is None else f"line {line}: {msg}")


def parse_graph(text: str, k: int = 0) -> Instance:
    """Read the line-based graph format. One pass checks each edge line as
    it reads it (endpoints in 1..n, no self-loop, no repeat), so the Graph
    is built from the checked rows without a second check; each vertex's
    neighbour set becomes its sorted row as it is popped. An endpoint
    string goes through int() and the range check once, at its first
    sighting; ids then maps it to that int, so later lines skip both and
    reuse its int object. The table holds only the spellings that occur,
    never a row per vertex of a large header n. A header n above
    MAX_OUTPUT_EDGES, which bounds every graph fvskit writes, is refused
    before the vertex set is built. The witness is checked once, by
    Instance; a failure is reported on its h line."""
    n = m = None
    ids = {}
    rows = defaultdict(set)
    witness = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split()
        if not tok:
            continue
        if tok[0] == "e":
            if n is None:
                raise FormatError("edge before header", ln)
            if len(tok) != 3:
                raise FormatError("edge line must be 'e <u> <v>'", ln)
            u, v = ids.get(tok[1]), ids.get(tok[2])
            if u is None or v is None:
                try:
                    u, v = int(tok[1]), int(tok[2])
                except ValueError:
                    raise FormatError("edge endpoints must be integers", ln)
                if not (1 <= u <= n and 1 <= v <= n):
                    raise FormatError(f"vertex out of range 1..{n}", ln)
                u, v = ids.setdefault(tok[1], u), ids.setdefault(tok[2], v)
            if u == v:
                raise FormatError("self-loop", ln)
            row = rows[u]
            if v in row:
                raise FormatError("duplicate edge", ln)
            row.add(v)
            rows[v].add(u)
        elif tok[0].startswith("c"):
            continue
        elif tok[0] == "p":
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
            if n > MAX_OUTPUT_EDGES:
                raise FormatError(f"header n exceeds {MAX_OUTPUT_EDGES} vertices", ln)
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
            raise FormatError(f"unknown line type {quoted(tok[0])}", ln)
    if n is None:
        raise FormatError("missing header")
    count = sum(map(len, rows.values())) // 2
    if count != m:
        raise FormatError(f"header announces {m} edges, found {count}")
    adj = {v: tuple(sorted(rows.pop(v, ()))) for v in range(1, n + 1)}
    g = Graph._unchecked(adj, m, n + 1 if n else 0)
    w = None if witness is None else HamCycleWitness(witness[0])
    try:
        return Instance(g, k, w)
    except GraphError:
        if k < 0:
            raise  # a negative budget is a precondition error, not a format one
        raise FormatError("witness is not a Hamiltonian cycle", witness[1]) from None


def _file_names(g: Graph):
    """The name table: g's vertices in sorted id order, and each one's name
    in the graph format, its 1-based place in that order. Any integer ids
    work, 0, negative and sparse ones included."""
    verts = sorted(g.vertices)
    return verts, dict(zip(verts, map(str, range(1, len(verts) + 1))))


def _named(name: dict, vs) -> tuple:
    """The names of the vertices vs, in order; itemgetter looks them up in C."""
    return itemgetter(*vs)(name) if len(vs) > 1 else tuple(name[v] for v in vs)


def _text_blocks(g: Graph, verts, name):
    """g's canonical text in blocks: the header, then for each vertex in
    sorted id order its edge lines to larger neighbours, in sorted order.
    The tail of each vertex's sorted row past the vertex itself gives those
    lines, so nothing is sorted but the vertices. Two graphs are equal up
    to the renumbering 1..n exactly when their texts are."""
    yield f"p fvs {g.n} {g.m}\n"
    adj = g.adjacency
    for u in verts:
        row = adj[u]
        larger = row[bisect_right(row, u):]
        if larger:
            head = f"e {name[u]} "
            yield head + ("\n" + head).join(_named(name, larger)) + "\n"


def _h_line(order, name: dict) -> str:
    return "h " + " ".join(_named(name, order))


def witness_line(inst: Instance) -> str:
    """The h line of inst's witness, its vertices named as write_graph
    names them."""
    return _h_line(inst.witness.order, _file_names(inst.graph)[1])


def write_graph(inst: Instance) -> str:
    """Canonical text form: the graph's text, then its witness's h line."""
    verts, name = _file_names(inst.graph)
    blocks = list(_text_blocks(inst.graph, verts, name))
    if inst.witness is not None:
        blocks.append(_h_line(inst.witness.order, name) + "\n")
    return "".join(blocks)


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
        "target": result.target,
        "input": {
            "n": gin.n,
            "m": gin.m,
            "k": result.input.k,
            "edges": [list(e) for e in sorted_edges(gin)],
        },
        "stages": [
            {
                "name": sr.name,
                "steps": [_step_to_json(s) for s in sr.steps],
                "k_after": sr.instance.k,
            }
            for sr in result.stages
        ],
        "output": {"n": gout.n, "m": gout.m, "k": result.instance.k},
    }


def trace_dumps(result: PipelineResult) -> str:
    """trace_to_json's document as compact JSON text with sorted keys and
    one closing line break, written by json's C encoder. Any JSON
    whitespace reads the same: verify also reads an indented trace."""
    return json.dumps(trace_to_json(result), sort_keys=True, separators=(",", ":")) + "\n"


def _step_to_json(s: TraceStep) -> dict:
    """A step's JSON object; only a step with a face has the key."""
    return {
        "op": s.op,
        "gadget": s.gadget,
        "p": s.p,
        "attach": list(s.attach),
        "subdivided": list(s.edge) if s.edge else [],
        **({"face": list(s.face)} if s.face else {}),
    }


def _integer(x, what, *at):
    """x, when it is a non-negative integer (a bool is not one); else
    FormatError naming the field, what formatted with at. It formats only
    on failure, so that a check per step entry stays cheap."""
    if type(x) is int and x >= 0:
        return x
    raise FormatError(f"trace JSON: {what.format(*at)} must be a non-negative integer")


def _list(x, what: str) -> list:
    """x, when it is a JSON list; else FormatError naming the field."""
    if type(x) is list:
        return x
    raise FormatError(f"trace JSON: {what} must be a list")


# a step's integer lists, and the lengths each may have
_STEP_LISTS = (("attach", (0, 2)), ("subdivided", (0, 2)), ("face", (0, 2, 4)))


def _step_from_json(stage: str, i: int, d) -> TraceStep:
    """The TraceStep that d, step i of the named stage, records. A missing or
    mistyped field, or a face on any step but a pairing insert, raises
    FormatError naming it; p and each list entry go through _integer."""
    at = f"stage {stage} step {i}:"
    if type(d) is not dict or "op" not in d:
        raise FormatError(f"trace JSON: {at} step is not a JSON object with an 'op'")
    op, gadget, p = d["op"], d.get("gadget"), d.get("p")
    if type(op) is not str or not (gadget is None or type(gadget) is str):
        raise FormatError(f"trace JSON: {at} op must be a string and gadget a string or null")
    if p is not None:
        _integer(p, "{} p", at)
    lists = []
    for key, sizes in _STEP_LISTS:
        val = d.get(key, [])
        if type(val) is not list or len(val) not in sizes:
            raise FormatError(f"trace JSON: {at} {key} must list "
                              f"{' or '.join(map(str, sizes))} integers")
        for x in val:
            _integer(x, "{} each {} entry", at, key)
        lists.append(tuple(val))
    if "face" in d and (stage, op) != ("pairing", "insert"):
        raise FormatError(f"trace JSON: {at} only a pairing insert has a face")
    attach, edge, face = lists
    return TraceStep(stage, op, gadget, p, attach, edge or None, face or None)


def _load_trace(trace: dict):
    """Check the shape of a trace JSON; returns (target, input graph, input
    k, stages as (name, steps, k_after), output (n, m, k)). The target must
    name a target. The stages, each stage's steps and the input edges go
    through _list, so an object or a string in their place is refused, not
    read as empty. Every integer goes through _integer: input n, m and k,
    both ends of each input edge, each step's p and list entries, each
    k_after, and output n, m and k must be non-negative integers. The input
    edges must be distinct pairs, in either orientation. An input n above
    MAX_OUTPUT_EDGES is refused before the vertex set is built, as
    parse_graph refuses such a header; input m must count the edges."""
    try:
        target = trace["target"]
        parse_target(target)
        inp = trace["input"]
        n = _integer(inp["n"], "input n")
        if n > MAX_OUTPUT_EDGES:
            raise FormatError(f"trace JSON: input n exceeds {MAX_OUTPUT_EDGES} vertices")
        edges = [(_integer(u, "end of input edge {}", j), _integer(v, "end of input edge {}", j))
                 for j, (u, v) in enumerate(_list(inp["edges"], "input edges"))]
        g = Graph(range(1, n + 1), edges)
        if g.m != len(edges):
            raise FormatError(f"trace JSON: input edges must be distinct: {len(edges)} "
                              f"listed, {g.m} distinct")
        if _integer(inp["m"], "input m") != g.m:
            raise FormatError(f"trace JSON: input m disagrees with its {g.m} edges")
        k = _integer(inp["k"], "input k")
        stages = []
        for st in _list(trace["stages"], "stages"):
            name = st["name"]
            if name not in STAGE_NAMES:
                raise FormatError(f"trace JSON: unknown stage name {quoted(name)}")
            steps = [_step_from_json(name, i, d)
                     for i, d in enumerate(_list(st["steps"], f"stage {name} steps"))]
            stages.append((name, steps, _integer(st["k_after"], "stage {} k_after", name)))
        out = tuple(_integer(trace["output"][f], "output {}", f) for f in ("n", "m", "k"))
    except FormatError:
        raise
    except KeyError as exc:
        raise FormatError(f"trace JSON missing field: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed trace JSON: {exc}") from None
    return target, g, k, stages, out


def _backed_size(text: str):
    """(n, m) from the text's first line when it is a header 'p fvs n m'
    with n within MAX_OUTPUT_EDGES and m <= len(text) // 6; else None. An
    edge line takes at least six characters ('e 1 2\\n'), so no text with m
    edge lines is shorter, and replay bounded by such an m builds no more
    edges than the file could hold."""
    tok = text.partition("\n")[0].split()
    if len(tok) != 4 or tok[:2] != ["p", "fvs"]:
        return None
    try:
        n, m = int(tok[2]), int(tok[3])
    except ValueError:
        return None
    if not (0 <= n <= MAX_OUTPUT_EDGES and 0 <= m <= len(text) // 6):
        return None
    return n, m


def _rendered(text: str, g: Graph):
    """The output that text holds, when text is write_graph's rendering of
    g followed by nothing or by one h line, spelled as write_graph spells
    it, of a witness that Instance accepts as a Hamiltonian cycle of g;
    else None. Each block of the rendering is compared in place, so no
    second copy of the output is built, and the h tokens are mapped back
    through the same name table in one pass that refuses a token outside
    1..n; the names of the mapped vertices must then spell the tokens."""
    verts, name = _file_names(g)
    pos = 0
    for block in _text_blocks(g, verts, name):
        if not text.startswith(block, pos):
            return None
        pos += len(block)
    if pos == len(text):
        return Instance(g, 0)
    if not text.startswith("h ", pos) or text.find("\n", pos) != len(text) - 1:
        return None
    tokens = text[pos + 2:-1].split(" ")
    try:
        order = tuple(verts[i - 1] for i in map(int, tokens) if 0 < i <= len(verts))
        if len(order) != len(tokens) or list(_named(name, order)) != tokens:
            return None  # a token outside 1..n, or one not spelled as its name
        return Instance(g, 0, HamCycleWitness(order))
    except (ValueError, GraphError):
        return None


def verify_trace(text: str, trace: dict) -> None:
    """Replay a trace JSON against the claimed output, given as its text,
    and certify the output against the trace's target with the certifier
    run_pipeline uses; raises on any mismatch. The trace's output summary
    must match the output's n and m, which bound the replay. The output is
    the replayed graph when _rendered finds it: in the text, or else in
    write_graph's rendering of the text's parse. The text is parsed at most
    once: only if it is not that rendering, a check fails, or its header m
    exceeds what its length can hold (then first, so a malformed output is
    reported before any trace failure)."""
    size = _backed_size(text)
    out = None if size else parse_graph(text)
    try:
        target, g, k, stages, out_decl = _load_trace(trace)
        if out_decl[:2] != (size or (out.graph.n, out.graph.m)):
            raise CertificationError("trace output summary disagrees with the output")
        g, k, plane = replay_stages(target, g, k, stages, out_decl[:2])
        if (g.n, g.m, k) != out_decl:
            raise CertificationError("trace output summary disagrees with replay")
        rendered = out is None and _rendered(text, g)
    except Exception:
        if out is None:
            parse_graph(text)  # the output's format error comes first
        raise
    if not rendered:
        rendered = _rendered(write_graph(out or parse_graph(text)), g)
        if not rendered:
            raise CertificationError("replayed graph differs from output graph")
    certify(target, rendered, plane)
