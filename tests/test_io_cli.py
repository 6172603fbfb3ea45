import json

import pytest

from fvskit.cli import main
from fvskit.graph import Instance
from fvskit.pipeline import PipelineError, run_pipeline
from fvskit.textio import (
    CertificationError,
    FormatError,
    parse_graph,
    trace_dumps,
    trace_to_json,
    verify_trace,
    write_graph,
)

from conftest import c4k1, cycle_graph, octahedron_graph, random_regular4

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

    def test_unknown_line(self):
        with pytest.raises(FormatError, match="unknown line type"):
            parse_graph("p fvs 1 0\nq zap\n")


class TestWrite:
    def test_round_trip(self):
        g = octahedron_graph()
        from fvskit.solvers import find_hamiltonian_cycle

        inst = Instance(g, 4, find_hamiltonian_cycle(g))
        back = parse_graph(write_graph(inst), k=4)
        assert back.graph == g
        assert back.witness is not None

    def test_canonical_relabel(self):
        from fvskit.graph import Graph

        inst = Instance(Graph.from_edges([(10, 20), (20, 31), (10, 31)]), 0)
        assert "e 1 2" in write_graph(inst)


@pytest.fixture(scope="module")
def produced():
    return run_pipeline(Instance(cycle_graph(3), 1), "4reg-planar-ham")


class TestTraceVerify:
    def test_accepts_faithful_trace(self, produced):
        verify_trace(produced.instance, trace_to_json(produced))

    def test_rejects_budget_tamper(self, produced):
        trace = trace_to_json(produced)
        trace["stages"][0]["k_after"] -= 1
        with pytest.raises(CertificationError, match="ledger"):
            verify_trace(produced.instance, trace)

    def test_rejects_output_tamper(self, produced):
        trace = trace_to_json(produced)
        trace["output"]["n"] += 1
        with pytest.raises(CertificationError, match="output summary"):
            verify_trace(produced.instance, trace)

    def test_rejects_missing_field(self, produced):
        with pytest.raises(FormatError, match="missing field"):
            verify_trace(produced.instance, {"stages": []})

    def test_dumps_stable(self, produced):
        assert trace_dumps(produced) == trace_dumps(produced)

    def test_input_ids_must_be_one_to_n(self):
        # verify rebuilds the input on 1..n, so the wheel's hub 0 cannot be
        # traced as it is; its round-tripped form can
        raw = Instance(c4k1(), 0)
        with pytest.raises(PipelineError, match=r"parse_graph\(write_graph\(inst\)\)"):
            trace_to_json(run_pipeline(raw, "4reg-planar"))
        res = run_pipeline(parse_graph(write_graph(raw)), "4reg-planar")
        verify_trace(res.instance, trace_to_json(res))


class TestCli:
    def _write_input(self, tmp_path, text=C3_TEXT):
        p = tmp_path / "in.fvs"
        p.write_text(text)
        return str(p)

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

    def test_witness_out(self, tmp_path):
        inp = self._write_input(tmp_path)
        wout = str(tmp_path / "wit.txt")
        assert main(["reduce", inp, "--target", "4reg-planar-ham",
                     "-o", str(tmp_path / "o.fvs"), "--witness-out", wout,
                     "--k", "1"]) == 0
        assert open(wout).read().startswith("h ")

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

    def test_format_error_exit(self, tmp_path):
        bad = tmp_path / "bad.fvs"
        bad.write_text("p fvs 2 2\ne 1 2\ne 2 2\n")
        assert main(["solve", str(bad)]) == 2

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
        # 20 vertices take the exhaustive path; optimum 7 takes ~0.25 s there
        g = random_regular4(20, 1)
        inp = self._write_input(tmp_path, write_graph(Instance(g, 0)))
        assert main(["solve", inp, "--time-budget", "1e-4"]) == 5
        assert main(["solve", inp]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "opt 7"

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
        assert svg.read_text().startswith("<svg")
