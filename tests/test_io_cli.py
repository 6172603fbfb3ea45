import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import fvskit
from fvskit import solvers, textio
from fvskit.cli import build_parser, main
from fvskit.graph import Graph, GraphError, HamCycleWitness, Instance, quoted
from fvskit.pipeline import MAX_OUTPUT_EDGES, PipelineError, run_pipeline
from fvskit.solvers import is_fvs
from fvskit.textio import (
    CertificationError,
    FormatError,
    parse_graph,
    trace_dumps,
    trace_to_json,
    verify_trace,
    write_graph,
)

from conftest import (
    DUMBBELL,
    RINGS,
    bull_free_random,
    c4k1,
    cycle_graph,
    octahedron_graph,
    random_cubic,
    random_regular4,
)
from test_golden import GOLDEN, _reduced

C3_TEXT = """c a triangle
p fvs 3 3
e 1 2
e 2 3
e 1 3
"""


class TestParse:
    def test_simple(self):
        inst = parse_graph(C3_TEXT, k=1)
        assert inst.graph == cycle_graph(3)
        assert inst.k == 1

    def test_witness_line(self):
        inst = parse_graph("p fvs 3 3\ne 1 2\ne 2 3\ne 1 3\nh 1 2 3\n")
        assert inst.witness is not None
        assert inst.witness.order == (1, 2, 3)

    def test_self_loop_line_number(self):
        with pytest.raises(FormatError, match="line 3: self-loop"):
            parse_graph("p fvs 2 2\ne 1 2\ne 2 2\n")

    def test_duplicate_edge(self):
        with pytest.raises(FormatError, match="duplicate edge"):
            parse_graph("p fvs 2 2\ne 1 2\ne 2 1\n")

    def test_edge_before_header(self):
        with pytest.raises(FormatError, match="edge before header"):
            parse_graph("e 1 2\np fvs 2 1\n")

    def test_missing_header(self):
        with pytest.raises(FormatError, match="missing header"):
            parse_graph("c nothing here\n")

    def test_count_mismatch(self):
        with pytest.raises(FormatError, match="announces 2 edges"):
            parse_graph("p fvs 3 2\ne 1 2\n")

    def test_out_of_range(self):
        with pytest.raises(FormatError, match="out of range"):
            parse_graph("p fvs 2 1\ne 1 5\n")

    def test_bad_witness(self):
        with pytest.raises(FormatError, match="not a Hamiltonian cycle"):
            parse_graph("p fvs 3 2\ne 1 2\ne 2 3\nh 1 2 3\n")

    def test_bad_witness_names_its_line(self):
        with pytest.raises(FormatError) as info:
            parse_graph("p fvs 4 4\nh 1 3 2 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n")
        assert str(info.value) == "line 2: witness is not a Hamiltonian cycle"
        assert info.value.line == 2

    def test_negative_k_with_valid_witness_is_a_graph_error(self):
        with pytest.raises(GraphError, match="budget k must be non-negative"):
            parse_graph("p fvs 3 3\ne 1 2\ne 2 3\ne 1 3\nh 1 2 3\n", k=-1)

    def test_unknown_line(self):
        with pytest.raises(FormatError, match="unknown line type"):
            parse_graph("p fvs 1 0\nq zap\n")

    @pytest.mark.parametrize("n", [MAX_OUTPUT_EDGES + 1, 10**9])
    def test_huge_header_refused_before_allocating(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as info:
                parse_graph(f"c big\np fvs {n} 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"line 2: header n exceeds {MAX_OUTPUT_EDGES} vertices"
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", [1, 1000, 100_000])
    def test_small_headers_parse(self, n):
        g = parse_graph(f"p fvs {n} 1\ne 1 {n}\n" if n > 1 else "p fvs 1 0\n").graph
        assert g.n == n and g.m == (n > 1)

    def test_endpoint_spellings(self):
        inst = parse_graph("p fvs 3 3\ne 01 +2\ne\t2\t03\n  e 3   1  \n")
        assert inst.graph == cycle_graph(3)
        assert inst.graph.next_id == 4

    def test_edges_share_their_endpoint_ints(self):
        # ids above 256 are not cached by the interpreter; the parser's
        # table makes both edges at 1000 hold one int object
        g = parse_graph("p fvs 1000 2\ne 999 1000\ne 1000 1\n").graph
        (a, b), (c, d) = sorted(g.edges)
        assert (a, b, c, d) == (1, 1000, 999, 1000) and b is d

    @pytest.mark.parametrize("line,msg", [
        ("e 1 x", "edge endpoints must be integers"),
        ("e 0 x", "edge endpoints must be integers"),
        ("e 1.0 2", "edge endpoints must be integers"),
        ("e 1 4", "vertex out of range 1..3"),
        ("e 0 2", "vertex out of range 1..3"),
        ("e -1 2", "vertex out of range 1..3"),
        ("e 1 2 3", "edge line must be 'e <u> <v>'"),
        ("e 2 +2", "self-loop"),
    ])
    def test_bad_edge_line_message_and_number(self, line, msg):
        with pytest.raises(FormatError) as info:
            parse_graph(f"p fvs 3 2\ne 1 2\nc between\n{line}\n")
        assert str(info.value) == f"line 4: {msg}"
        assert info.value.line == 4

    def test_duplicate_edge_names_the_second_line(self):
        with pytest.raises(FormatError) as info:
            parse_graph("p fvs 2 2\ne 1 2\ne 2 1\n")
        assert str(info.value) == "line 3: duplicate edge"

    def test_comments_between_edge_lines(self):
        text = "c head\np fvs 3 3\ne 1 2\nc mid\ne 2 3\n   c indented\n\ne 1 3\nc tail\n"
        assert parse_graph(text).graph == cycle_graph(3)

    def test_empty_graph(self):
        g = parse_graph("p fvs 0 0\n").graph
        assert (g.n, g.m, g.next_id) == (0, 0, 0)


class TestWrite:
    def test_round_trip(self):
        g = octahedron_graph()
        from fvskit.solvers import find_hamiltonian_cycle

        inst = Instance(g, 4, find_hamiltonian_cycle(g))
        back = parse_graph(write_graph(inst), k=4)
        assert back.graph == g
        assert back.witness is not None

    def test_canonical_relabel(self):
        inst = Instance(Graph.from_edges([(10, 20), (20, 31), (10, 31)]), 0)
        assert "e 1 2" in write_graph(inst)

    def test_name_table_takes_any_integer_ids(self):
        # 0, negative and sparse ids are named by their place in sorted order,
        # and verify maps the h line back through the same table
        g = Graph.from_edges([(-5, 0), (0, 7), (7, 100), (100, -5), (-5, 7)])
        inst = Instance(g, 0, HamCycleWitness((-5, 0, 7, 100)))
        text = write_graph(inst)
        assert text == "p fvs 4 5\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 3 4\nh 1 2 3 4\n"
        assert textio.witness_line(inst) == "h 1 2 3 4"
        assert textio._rendered(text, g) == inst


def _count_parses(monkeypatch):
    """Record each call of textio.parse_graph, the one verify_trace makes."""
    calls = []
    real = textio.parse_graph
    monkeypatch.setattr(textio, "parse_graph", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


@pytest.fixture(scope="module")
def produced():
    return run_pipeline(Instance(cycle_graph(3), 1), "4reg-planar-ham")


class TestTraceVerify:
    def test_accepts_faithful_trace(self, produced):
        verify_trace(write_graph(produced.instance), trace_to_json(produced))

    def test_rejects_budget_tamper(self, produced):
        trace = trace_to_json(produced)
        trace["stages"][0]["k_after"] -= 1
        with pytest.raises(CertificationError, match="ledger"):
            verify_trace(write_graph(produced.instance), trace)

    def test_rejects_output_tamper(self, produced):
        trace = trace_to_json(produced)
        trace["output"]["n"] += 1
        with pytest.raises(CertificationError, match="output summary"):
            verify_trace(write_graph(produced.instance), trace)

    def test_rejects_missing_field(self, produced):
        with pytest.raises(FormatError, match="missing field"):
            verify_trace(write_graph(produced.instance), {"stages": []})

    @pytest.mark.parametrize("n", [MAX_OUTPUT_EDGES + 1, 10**9])
    def test_huge_input_n_refused_before_allocating(self, produced, n):
        trace = trace_to_json(produced)
        trace["input"] = {"n": n, "m": 0, "k": 0, "edges": []}
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as info:
                verify_trace(write_graph(produced.instance), trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"trace JSON: input n exceeds {MAX_OUTPUT_EDGES} vertices"
        assert peak < 1 << 20

    @pytest.mark.parametrize("token", ["0", "-1", "n+1", "01", "+1", "1_0", ""])
    def test_h_token_outside_the_name_table_is_refused(self, produced, token):
        # the compare maps each h token back itself: a token outside 1..n
        # (0 and -1 would index the vertex list from its end) or spelled
        # other than its vertex's name leaves the text to the parse
        g = produced.instance.graph
        text = write_graph(produced.instance)
        assert textio._rendered(text, g).witness == produced.instance.witness
        head, _, witness = text[:-1].rpartition("\n")
        tokens = witness.split(" ")
        tokens[-1] = str(g.n + 1) if token == "n+1" else token
        assert textio._rendered(f"{head}\n{' '.join(tokens)}\n", g) is None

    def test_verify_holds_no_second_copy_of_the_output(self):
        # C40 -> ham-ordered:5 writes 2 032 356 bytes. Rendering the replayed
        # graph's whole text beside the output peaked at 4.72 times its length;
        # the row-by-row compare peaks at 3.36 times
        res = run_pipeline(Instance(cycle_graph(40), 1), "ham-ordered:5")
        text, trace = write_graph(res.instance), json.loads(trace_dumps(res))
        tracemalloc.start()
        try:
            verify_trace(text, trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_parses_a_non_canonical_output_once(self, produced, monkeypatch, eol):
        calls = _count_parses(monkeypatch)
        text = write_graph(produced.instance)
        head, *body = text.splitlines()
        verify_trace(eol.join([head, "c moved", *reversed(body), ""]), trace_to_json(produced))
        assert len(calls) == 1

    def test_dumps_stable(self, produced):
        assert trace_dumps(produced) == trace_dumps(produced)

    def test_input_ids_must_be_one_to_n(self):
        # verify rebuilds the input on 1..n, so the wheel's hub 0 cannot be
        # traced as it is; its round-tripped form can
        raw = Instance(c4k1(), 0)
        for dump in (trace_to_json, trace_dumps):
            with pytest.raises(PipelineError, match=r"parse_graph\(write_graph\(inst\)\)"):
                dump(run_pipeline(raw, "4reg-planar"))
        res = run_pipeline(parse_graph(write_graph(raw)), "4reg-planar")
        verify_trace(write_graph(res.instance), trace_to_json(res))


def _steps(doc):
    return [step for stage in doc["stages"] for step in stage["steps"]]


# The goldens (C3-preg6 holds p_regularize's Y rounds), inputs with bridges
# whose pairing inserts carry 4-dart faces, an input that strips, and a lift
# stage without steps.
TRACE_CASES = [g[:3] for g in GOLDEN] + [
    ("dumbbell", lambda: Graph.from_edges(DUMBBELL), "4reg-planar"),
    ("rings", lambda: Graph.from_edges(RINGS), "4reg-planar"),
    ("pendant", lambda: Graph.from_edges([(1, 2), (2, 3), (1, 3), (3, 4)]), "4reg-planar"),
    ("C3-lift3", lambda: cycle_graph(3), "ham-ordered:3"),
]


class TestTraceDumps:
    @pytest.mark.parametrize("name,make,target", TRACE_CASES, ids=[c[0] for c in TRACE_CASES])
    def test_writes_the_bytes_of_json_dumps(self, name, make, target):
        res = _reduced(make, target)
        assert trace_dumps(res) == json.dumps(trace_to_json(res), indent=2, sort_keys=True) + "\n"

    def test_cases_hold_every_trace_shape(self):
        docs = {name: trace_to_json(_reduced(make, target)) for name, make, target in TRACE_CASES}
        assert all(any(len(s.get("face", ())) == 4 for s in _steps(docs[name]))
                   for name in ("dumbbell", "rings"))
        assert docs["pendant"]["stages"][0]["name"] == "strip"
        assert docs["C3-lift3"]["stages"] == [{"name": "lift", "steps": [], "k_after": 1}]
        assert any(s["gadget"] == "Y" for s in _steps(docs["C3-preg6"]))


# a trace nested deeper than the recursion limit, and one with an integer
# literal longer than Python's 4 300-digit limit
DEEP_JSON = "[" * 200_000 + "]" * 200_000
HUGE_INT_JSON = '{"target": "4reg-planar", "k": ' + "9" * 5_000 + "}"

# case -> (argv, run in a directory of the files the test writes, documented exit code)
MALFORMED = {
    "deep-trace": (["verify", "in.fvs", "--trace", "deep.json"], 2),
    "huge-int-trace": (["verify", "in.fvs", "--trace", "huge-int.json"], 2),
    "non-utf8-trace": (["verify", "in.fvs", "--trace", "latin1.json"], 2),
    "svg-into-missing-dir": (["reduce", "in.fvs", "--target", "4reg-planar", "-o", "out.fvs",
                              "--svg-debug", "missing_dir/debug.svg"], 2),
    "nan-time-budget": (["solve", "in.fvs", "--time-budget", "nan"], 2),
    "zero-time-budget": (["solve", "big.fvs", "--time-budget", "0"], 5),
    "y-gadget-too-large": (["gadget-check", "Y", "--p", "1000000"], 3),
}


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


class TestCli:
    def _write_input(self, tmp_path, text=C3_TEXT):
        p = tmp_path / "in.fvs"
        p.write_text(text)
        return str(p)

    def test_parser_is_built_once(self, tmp_path):
        assert build_parser() is build_parser()
        # one call's options do not leak into the next: the second run
        # takes the default budget
        inp = self._write_input(tmp_path)
        traces = [tmp_path / "k5.json", tmp_path / "k0.json"]
        for tr, k in zip(traces, (["--k", "5"], [])):
            assert main(["reduce", inp, "--target", "4reg-planar", "-o", str(tmp_path / "out"),
                         "--trace", str(tr), *k]) == 0
        assert [json.loads(tr.read_text())["input"]["k"] for tr in traces] == [5, 0]

    def test_reduce_then_verify(self, tmp_path):
        inp = self._write_input(tmp_path)
        out = str(tmp_path / "out.fvs")
        tr = str(tmp_path / "trace.json")
        assert main(["reduce", inp, "--target", "4reg-planar-ham",
                     "-o", out, "--trace", tr, "--k", "1"]) == 0
        assert main(["verify", out, "--trace", tr]) == 0

    def test_verify_rejects_tampered_trace(self, tmp_path):
        inp = self._write_input(tmp_path)
        out = str(tmp_path / "out.fvs")
        tr = str(tmp_path / "trace.json")
        main(["reduce", inp, "--target", "4reg-planar", "-o", out,
              "--trace", tr, "--k", "1"])
        doc = json.loads(open(tr).read())
        doc["stages"][0]["k_after"] += 1
        (tmp_path / "trace.json").write_text(json.dumps(doc))
        assert main(["verify", out, "--trace", tr]) == 4

    def _reduced(self, tmp_path):
        inp = self._write_input(tmp_path)
        out, tr = tmp_path / "out.fvs", str(tmp_path / "trace.json")
        assert main(["reduce", inp, "--target", "4reg-planar-ham",
                     "-o", str(out), "--trace", tr, "--k", "1"]) == 0
        return out, tr

    def test_verify_accepts_canonical_output_without_parsing_it(self, tmp_path, monkeypatch):
        out, tr = self._reduced(tmp_path)
        calls = _count_parses(monkeypatch)
        assert main(["verify", str(out), "--trace", tr]) == 0
        assert calls == []

    @pytest.mark.parametrize("rendering, rc", [
        ("shuffled", 0), ("flipped", 0), ("commented", 0), ("crlf", 0), ("relabelled", 4),
    ])
    def test_verify_compares_other_renderings_by_their_graph(self, tmp_path, monkeypatch,
                                                             capsys, rendering, rc):
        # the relabelled output swaps the names 1 and n on every line: a
        # valid file of an isomorphic graph that is not the replayed one
        out, tr = self._reduced(tmp_path)
        head, *edges, witness = out.read_text().splitlines()
        n = head.split()[2]
        if rendering == "shuffled":
            edges.reverse()
        elif rendering == "flipped":
            edges = [f"e {line.split()[2]} {line.split()[1]}" for line in edges]
        elif rendering == "commented":
            edges = [f"c edge {i}\n{line}" for i, line in enumerate(edges)]
        elif rendering == "relabelled":
            swap = {"1": n, n: "1"}
            edges, witness = ([" ".join(swap.get(t, t) for t in line.split()) for line in lines]
                              for lines in (edges, [witness]))
            witness = witness[0]
        eol = "\r\n" if rendering == "crlf" else "\n"
        out.write_bytes(eol.join([head, *edges, witness, ""]).encode())
        calls = _count_parses(monkeypatch)
        capsys.readouterr()
        assert main(["verify", str(out), "--trace", tr]) == rc
        # the file is read with universal newlines, so CRLF arrives canonical
        assert len(calls) == (rendering != "crlf")
        if rc:
            assert "replayed graph differs from output graph" in capsys.readouterr().err

    def test_malformed_output_is_reported_before_a_tampered_trace(self, tmp_path, capsys):
        out, tr = self._reduced(tmp_path)
        text = out.read_text()
        out.write_text(text + "q zap\n")
        doc = json.loads(open(tr).read())
        doc["stages"][0]["k_after"] += 1
        (tmp_path / "trace.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(out), "--trace", tr]) == 2
        line = len(text.splitlines()) + 1
        assert capsys.readouterr().err == f"format error: line {line}: unknown line type 'q'\n"

    def test_corrupted_witness_exits_2_with_its_line(self, tmp_path, capsys):
        out, tr = self._reduced(tmp_path)
        *lines, witness = out.read_text().splitlines()
        first, *rest = witness.split()[1:]
        out.write_text("\n".join([*lines, " ".join(["h", first, *rest[:-1], first])]) + "\n")
        capsys.readouterr()
        assert main(["verify", str(out), "--trace", tr]) == 2
        err = capsys.readouterr().err
        assert err == f"format error: line {len(lines) + 1}: witness is not a Hamiltonian cycle\n"

    def _verify_edited(self, tmp_path, edit):
        """Exit code of verify on the reduced output after edit(text)."""
        out, tr = self._reduced(tmp_path)
        out.write_text(edit(out.read_text()))
        return main(["verify", str(out), "--trace", tr])

    def test_verify_refuses_a_text_cut_inside_a_row(self, tmp_path):
        # the cut drops the last digit and the line break of a middle edge line
        assert self._verify_edited(
            tmp_path, lambda t: t[:t.index("\n", len(t) // 2) - 1]) == 2

    def test_verify_refuses_an_extra_edge_line(self, tmp_path):
        def edit(text):
            head, *edges, witness = text.splitlines()
            n, m = map(int, head.split()[2:])
            first = {int(e.split()[2]) for e in edges if e.split()[1] == "1"}
            v = min(set(range(2, n + 1)) - first)
            return "\n".join([f"p fvs {n} {m + 1}", *edges, f"e 1 {v}", witness, ""])

        # the header's m is within len(text) // 6, so it is compared with the
        # trace before replay, and the output parses as a valid graph
        assert self._verify_edited(tmp_path, edit) == 4

    def test_verify_parses_first_when_header_m_exceeds_the_text(self, tmp_path):
        # the header and trace of a 7 056-edge output over three edge lines:
        # the header m is above len(text) // 6, so the text is parsed, and
        # refused, before replay builds anything
        res = run_pipeline(Instance(cycle_graph(3), 1), "preg-ham:6")
        head, *edges = write_graph(res.instance).splitlines()[:4]
        out, tr = tmp_path / "out.fvs", tmp_path / "trace.json"
        out.write_text("\n".join([head, *edges, ""]))
        tr.write_text(trace_dumps(res))
        assert int(head.split()[3]) > len(out.read_text()) // 6
        tracemalloc.start()
        try:
            rc = main(["verify", str(out), "--trace", str(tr)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert peak < 1 << 20

    @pytest.mark.parametrize("text, size", [("p fvs 1 10", None), ("p fvs 3 0", (3, 0))])
    def test_backed_size_reads_a_header_without_a_line_break(self, text, size):
        # the whole text is the header line when it holds no line break
        assert textio._backed_size(text) == size

    @pytest.mark.parametrize("token, rc", [("0", 2), ("01", 0)])
    def test_verify_maps_h_tokens_through_the_name_table(self, tmp_path, monkeypatch,
                                                         token, rc):
        # a token outside 1..n is refused where it is mapped, and the parse
        # then reports the witness (exit 2); a vertex named other than as
        # write_graph names it verifies through the parse
        def edit(text):
            *lines, witness = text.splitlines()
            tokens = witness.split()
            tokens[-1 if token == "0" else tokens.index("1")] = token
            return "\n".join([*lines, " ".join(tokens), ""])

        calls = _count_parses(monkeypatch)
        assert self._verify_edited(tmp_path, edit) == rc
        assert len(calls) == 1

    def test_witness_out(self, tmp_path):
        inp = self._write_input(tmp_path)
        wout = str(tmp_path / "wit.txt")
        out = str(tmp_path / "o.fvs")
        assert main(["reduce", inp, "--target", "4reg-planar-ham",
                     "-o", out, "--witness-out", wout, "--k", "1"]) == 0
        h_lines = [line for line in open(out).read().splitlines() if line.startswith("h ")]
        assert h_lines == [open(wout).read().rstrip("\n")]
        assert open(wout).read().endswith("\n")

    def test_negative_k_exits_3_with_a_valid_witness(self, tmp_path, capsys):
        inp = self._write_input(tmp_path, C3_TEXT + "h 1 2 3\n")
        assert main(["reduce", inp, "--target", "4reg-planar", "--k", "-1"]) == 3
        assert "budget k must be non-negative" in capsys.readouterr().err

    def test_bad_witness_exits_2_with_its_line(self, tmp_path, capsys):
        inp = self._write_input(tmp_path, C3_TEXT + "h 1 2 2\n")
        assert main(["reduce", inp, "--target", "4reg-planar"]) == 2
        assert "line 6: witness is not a Hamiltonian cycle" in capsys.readouterr().err

    def test_solve(self, tmp_path, capsys):
        inp = self._write_input(tmp_path)
        assert main(["solve", inp]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "opt 1"
        assert lines[1].startswith("s ")

    def test_gadget_check(self, capsys):
        assert main(["gadget-check", "Y", "--p", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_fvs"] == 4 and doc["kind"] == "Y3"

    @pytest.mark.parametrize("kind", ["R", "L", "D"])
    def test_only_a_y_gadget_takes_p(self, kind, capsys):
        # R, L and D have no parameter: a --p is a usage error, not ignored
        with pytest.raises(SystemExit) as exc:
            main(["gadget-check", kind, "--p", "99"])
        assert exc.value.code == 2
        assert f"argument --p: only a Y gadget takes p, not {kind}" in capsys.readouterr().err

    def test_format_error_exit(self, tmp_path):
        bad = tmp_path / "bad.fvs"
        bad.write_text("p fvs 2 2\ne 1 2\ne 2 2\n")
        assert main(["solve", str(bad)]) == 2

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8",
                                      "missing-trace", "missing-out-dir"])
    def test_io_error_exit(self, tmp_path, case):
        # run as a program, so that an uncaught exception would show its
        # traceback on stderr
        inp = self._write_input(tmp_path)
        latin1 = tmp_path / "latin1.fvs"
        latin1.write_bytes(b"c caf\xe9\n" + C3_TEXT.encode())
        missing = tmp_path / "missing_dir" / "out.fvs"
        path, argv = {
            "missing": (missing, ["solve", str(missing)]),
            "directory": (tmp_path, ["solve", str(tmp_path)]),
            "not-utf8": (latin1, ["solve", str(latin1)]),
            "missing-trace": (missing, ["verify", inp, "--trace", str(missing)]),
            "missing-out-dir": (missing, ["reduce", inp, "--target", "4reg-planar",
                                          "-o", str(missing)]),
        }[case]
        src = str(Path(fvskit.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "fvskit.cli", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("format error: cannot ") and str(path) in proc.stderr

    @pytest.mark.parametrize("target", ["preg-ham:99", "ham-ordered:12"])
    def test_oversized_target_is_refused_before_it_is_built(self, tmp_path, capsys, target):
        inp = self._write_input(tmp_path)
        start = time.perf_counter()
        assert main(["reduce", inp, "--target", target]) == 3
        assert time.perf_counter() - start < 1
        assert "would build more than 2000000 edges" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["ham-ordered: 3", "ham-ordered:+3", "ham-ordered:03",
                                        "ham-ordered:3 "])
    def test_a_target_spelled_otherwise_than_str_p_is_malformed(self, tmp_path, capsys,
                                                                target):
        inp = self._write_input(tmp_path, C3_TEXT + "h 1 2 3\n")
        assert main(["reduce", inp, "--target", target]) == 3
        assert f"malformed target {target!r}" in capsys.readouterr().err

    def test_python_dash_m_fvskit(self):
        src = str(Path(fvskit.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "fvskit", "--help"], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0 and proc.stdout.startswith("usage: fvskit")

    def test_precondition_exit(self, tmp_path):
        k5 = "p fvs 5 10\n" + "".join(
            f"e {i} {j}\n" for i in range(1, 5) for j in range(i + 1, 6)
        )
        inp = self._write_input(tmp_path, k5)
        assert main(["reduce", inp, "--target", "4reg-planar"]) == 3

    def test_undecided_exit(self, tmp_path):
        g = random_regular4(60, 7)
        inst = Instance(g, 0)
        inp = self._write_input(tmp_path, write_graph(inst))
        assert main(["solve", inp, "--time-budget", "0.0001"]) == 5

    def test_undecided_exit_on_exhaustive_path(self, tmp_path, capsys):
        # 20 vertices take the exhaustive path. Its root bound is the
        # optimum, so one round of 119 nodes answers: fewer than the 1 024
        # between periodic clock reads, so the 1e-4 s budget trips at the
        # read that opens the search or, failing that, at the one taken just
        # before answering; the next test trips it in the middle of a search
        g = random_regular4(20, 1)
        inp = self._write_input(tmp_path, write_graph(Instance(g, 0)))
        assert main(["solve", inp, "--time-budget", "1e-4"]) == 5
        assert main(["solve", inp]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "opt 7"

    def test_undecided_exit_mid_search_on_exhaustive_path(self, tmp_path, capsys, monkeypatch):
        # a clock that advances one unit per read: the deadline, three units
        # out, passes at the fourth periodic read, 3 072 nodes into a
        # search whose four rounds need 13 971
        g = bull_free_random(26, 60, 3)
        inp = self._write_input(tmp_path, write_graph(Instance(g, 0)))
        reads = itertools.count()
        monkeypatch.setattr(solvers.time, "monotonic", lambda: next(reads))
        assert main(["solve", inp, "--time-budget", "3"]) == 5
        assert next(reads) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("undecided: undecided within budget: 3072 nodes searched, ")

    def test_solve_connected_cubic_48_on_branch_path(self, tmp_path, capsys):
        # n > 26 takes branch-and-reduce; the degree-sum bound
        # ceil((m - n + 1) / 2) = 13 certifies the optimum it finds
        g = random_cubic(48, 0)
        inp = self._write_input(tmp_path, write_graph(Instance(g, 0)))
        assert main(["solve", inp, "--time-budget", "10"]) == 0
        opt_line, set_line = capsys.readouterr().out.splitlines()
        assert opt_line == f"opt {-(-(g.m - g.n + 1) // 2)}" == "opt 13"
        assert is_fvs(g, {int(v) for v in set_line.split()[1:]})

    def test_undecided_reports_bounds_on_stderr_only(self, tmp_path, capsys):
        inp = self._write_input(tmp_path, write_graph(Instance(random_cubic(48, 0), 0)))
        assert main(["solve", inp, "--time-budget", "0"]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("undecided: undecided within budget: ")
        assert " nodes searched, " in err and " <= opt <= " in err

    def test_ham_ordered_on_long_cycle_without_witness(self, tmp_path, capsys):
        # the Hamiltonian search goes 1 500 vertices deep
        n = 1500
        c = f"p fvs {n} {n}\n" + "".join(f"e {i} {i % n + 1}\n" for i in range(1, n + 1))
        inp = self._write_input(tmp_path, c)
        out, tr = str(tmp_path / "out.fvs"), str(tmp_path / "trace.json")
        assert main(["reduce", inp, "--target", "ham-ordered:3", "-o", out, "--trace", tr]) == 0
        capsys.readouterr()
        assert main(["verify", out, "--trace", tr]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_svg_debug(self, tmp_path):
        cube = "p fvs 8 12\n" + "".join(
            f"e {u} {v}\n"
            for u, v in [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7),
                         (7, 8), (8, 5), (1, 5), (2, 6), (3, 7), (4, 8)]
        )
        inp = self._write_input(tmp_path, cube)
        svg = tmp_path / "debug.svg"
        assert main(["reduce", inp, "--target", "4reg-planar",
                     "-o", str(tmp_path / "o.fvs"), "--svg-debug", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        # the cube's pairing: each of its four routes is a polyline through
        # its chain's vertices, on the drawing of its 14 edges and 10 vertices
        audit = next(sr.audit for sr in run_pipeline(parse_graph(cube), "4reg-planar").stages
                     if sr.name == "pairing")
        polylines = [line for line in text.splitlines() if line.startswith("<polyline")]
        assert len(polylines) == len(audit.routes) == 4
        assert sorted(line.count(",") for line in polylines) == sorted(map(len, audit.routes))
        assert text.count("<line ") == len(audit.drawn_edges_after) == 14
        assert text.count("<circle ") == len(audit.coords_after) == 10

    def test_svg_debug_needs_a_pairing_stage(self, tmp_path, capsys):
        # a ham-ordered target runs no pairing, so there is nothing to draw:
        # the run is refused before it compiles
        inp = self._write_input(tmp_path)
        out, svg = tmp_path / "o.fvs", tmp_path / "debug.svg"
        assert main(["reduce", inp, "--target", "ham-ordered:4", "-o", str(out),
                     "--svg-debug", str(svg)]) == 3
        assert capsys.readouterr().err == ("precondition error: --svg-debug draws the pairing "
                                           "stage, which ham-ordered skips\n")
        assert not out.exists() and not svg.exists()

    def test_svg_debug_into_a_missing_directory_is_a_write_error(self, tmp_path, capsys):
        inp = self._write_input(tmp_path)
        svg = tmp_path / "missing_dir" / "debug.svg"
        assert main(["reduce", inp, "--target", "4reg-planar",
                     "-o", str(tmp_path / "o.fvs"), "--svg-debug", str(svg)]) == 2
        assert capsys.readouterr().err.startswith(f"format error: cannot write {svg}: ")

    @pytest.mark.parametrize("text", [DEEP_JSON, HUGE_INT_JSON], ids=["deep", "huge-int"])
    def test_trace_json_beyond_the_parser_limits_is_malformed(self, tmp_path, capsys, text):
        # json.loads raises RecursionError on the one and a ValueError other
        # than JSONDecodeError on the other
        tr = tmp_path / "trace.json"
        tr.write_text(text)
        assert main(["verify", self._write_input(tmp_path), "--trace", str(tr)]) == 2
        assert capsys.readouterr().err.startswith("format error: trace is not JSON: ")

    @pytest.mark.parametrize("target", [json.loads("[" * 900 + "]" * 900), "x" * (1 << 20)],
                             ids=["deep-list", "1MB-string"])
    def test_an_error_quotes_at_most_a_short_prefix_of_its_input(self, tmp_path, capsys,
                                                                  target):
        res = run_pipeline(parse_graph(C3_TEXT), "4reg-planar")
        out, tr = tmp_path / "out.fvs", tmp_path / "trace.json"
        out.write_text(write_graph(res.instance))
        tr.write_text(json.dumps({**trace_to_json(res), "target": target}))
        assert main(["verify", str(out), "--trace", str(tr)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("format error: malformed trace JSON: unknown target ")
        assert err.count("\n") == 1 and len(err.encode()) < 300

    @pytest.mark.parametrize("value", ["v" * 1000, [[["deep"]]] * 50, 10 ** 500],
                             ids=["string", "list", "int"])
    def test_quoted_cuts_every_value_to_80_characters(self, value):
        text = quoted(value)
        assert len(text) <= 80 and "..." in text
        assert quoted("grid") == "'grid'" and quoted((1, 2)) == "(1, 2)"

    @pytest.mark.parametrize("budget", ["nan", "NaN", "-1", "-0.5", "x"])
    def test_only_a_non_negative_time_budget_is_accepted(self, tmp_path, capsys, budget):
        # a NaN deadline never passes, so the run would have no budget
        with pytest.raises(SystemExit) as exc:
            main(["solve", self._write_input(tmp_path), "--time-budget", budget])
        assert exc.value.code == 2
        assert f"argument --time-budget: not a non-negative number of seconds: {budget!r}" \
            in capsys.readouterr().err

    def test_a_y_gadget_too_large_to_certify_is_refused_before_it_is_built(
            self, monkeypatch, capsys):
        # Y_p has about p^2 edges: this one would not fit in memory
        def build(*args, **kwargs):
            raise AssertionError("Y_p built before its order was checked")

        monkeypatch.setattr("fvskit.cli.build_gadget", build)
        assert main(["gadget-check", "Y", "--p", "1000000"]) == 3
        assert capsys.readouterr().err == (
            "precondition error: gadget has 2000004 vertices; exhaustive certification "
            "handles at most 26\n")

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_ends_with_its_exit_code_and_no_traceback(self, tmp_path, case):
        # run as a program, so that an uncaught exception shows its
        # traceback, and under a 512 MiB address-space cap, so that a gadget
        # too large to build fails fast instead of filling memory
        files = {"in.fvs": C3_TEXT.encode(), "big.fvs": write_graph(
                     Instance(random_cubic(48, 0), 0)).encode(),
                 "deep.json": DEEP_JSON.encode(), "huge-int.json": HUGE_INT_JSON.encode(),
                 "latin1.json": b'{"target": "caf\xe9"}'}
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        argv, rc = MALFORMED[case]
        src = str(Path(fvskit.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "fvskit.cli", *argv], capture_output=True,
                              text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                              preexec_fn=_cap_address_space, timeout=120)
        assert proc.returncode == rc, proc.stderr
        assert "Traceback" not in proc.stderr

