"""Pinned output bytes: the sha256 of the canonical graph text and of the
trace JSON for nine reductions, and of `fvskit solve` stdout for five
exhaustive-path inputs too large for the subset-scan oracle of
test_solvers and four inputs above the exhaustive limit, which
branch-and-reduce answers. A digest change means the compiler's or the
solver's output changed; that must be deliberate and stated in CHANGES.md.
The canonical text is also a fixed point of parse_graph then write_graph."""

import functools
import hashlib

import pytest

from fvskit.cli import main
from fvskit.graph import Instance
from fvskit.pipeline import run_pipeline
from fvskit.textio import parse_graph, trace_dumps, write_graph

from conftest import (
    bull_free_random,
    cycle_graph,
    grid_graph,
    prism_graph,
    random_cubic,
    random_regular4,
)

GOLDEN = [
    ("triangle", lambda: cycle_graph(3), "4reg-planar-ham",
     "5cdd128f304d20e2b4c84328595577913284b8520461fed8ef92f6a21c6960ef",
     "223fcbf24d59f383d8576ee0c3231858e7d94d98924c4202ef466836fcf1720f"),
    # pairing subdivides one edge and lays four R gadgets; hamiltonize merges nothing
    ("prism", prism_graph, "5reg-planar-ham",
     "5cc89873b5cbfac5c8f5bf59d152ca707a9e11e01ebff8233dff7f9218ce9134",
     "ce3723938a4895d2c556b96b4f2b6316b2c79bb4eafd9089b18de090cf50dfed"),
    ("C3", lambda: cycle_graph(3), "preg-ham:5",
     "fda67ed6a47ccdce8927a98ba79a6959559b3b39b337ec0f61551777b9f52c51",
     "99a5aa236bad0a681e1b97caefc479238870b17355ddc6080d4c94ad8ab6485e"),
    ("C8", lambda: cycle_graph(8), "ham-ordered:4",
     "aa0d1a06e61157fc17e9ba3e68b11d5205086edf961996bfe194af9fde9774cd",
     "2a30880ef2e06134b5e651e20a6eddf7b57788b5cf810ccf59649b820062356f"),
    # pairing lays three R gadgets in the outer face; hamiltonize runs 6
    # merges (18 steps)
    ("grid3x4", lambda: grid_graph(3, 4), "4reg-planar-ham",
     "c04c9ecff159aabd0ca3a6d10c22c291bbdbfcc9200ab19189e52e4b1c5d55cf",
     "4f2a8b78592dd6c20625eb52fb0144f5743c55a370f1e714822c4dae91dcf9ad"),
    # p_regularize's Y rounds: Y_5 across the witness matching of the 5-regular graph
    ("C3-preg6", lambda: cycle_graph(3), "preg-ham:6",
     "105743b153df2b49f93392a3f93e332df617b989854431404065a86df69d102b",
     "f43610ca33ee36ea1fe608022cb6545c50fca7b8690345517a3eb36f396270ba"),
    # pairing lays three R gadgets; hamiltonize runs 4 merges
    ("grid2x5", lambda: grid_graph(2, 5), "4reg-planar-ham",
     "f04e52458d03c930da362d241f8cf04f29afc942a07648f47cfea477db185c7e",
     "2cd5d1d0182d463e6c59a515d3972d758f0517b1e9e9c612b16f27d7aa74db78"),
    # pairing lays ten R gadgets, all in the outer face; hamiltonize runs 4 merges
    ("grid6x8", lambda: grid_graph(6, 8), "4reg-planar-ham",
     "22c70b1af85e8656304a79cfbdc4756660d73fa31f78920b7792a0f23ffb260c",
     "b2986846fe09424e0e845f1a564d4fef34c805b20b2e7884b47cfa8eef7b814b"),
    # a lift after a lift: 138 vertices, 9 349 edges, the densest rows
    ("C8-lift5", lambda: cycle_graph(8), "ham-ordered:5",
     "60366193f79e86bda602f95c4f62125f977039d1b56ca1843be06f205e107a9c",
     "b922a514cb8c05af76feadc44ac9e4dd0fe60de058979f741dbdadfcb3805a90"),
]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def _reduced(make, target):
    return run_pipeline(Instance(make(), 1), target)


@pytest.mark.parametrize("name,make,target,fvs_sha,trace_sha", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_output_bytes_pinned(name, make, target, fvs_sha, trace_sha):
    res = _reduced(make, target)
    assert _sha(write_graph(res.instance)) == fvs_sha
    assert _sha(trace_dumps(res)) == trace_sha


@pytest.mark.parametrize("name,make,target", [g[:3] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_canonical_text_is_a_fixed_point(name, make, target):
    inst = _reduced(make, target).instance
    text = write_graph(inst)
    back = parse_graph(text, k=inst.k)
    assert write_graph(back) == text


# an optimal set over the 1..n ids of the canonical text, the
# lexicographically smallest one on the exhaustive path; the optimum is in
# the comment
SOLVE_GOLDEN = [
    ("cubic22", lambda: random_cubic(22, 0),  # opt 6
     "226d636800e9e892524d9ab14c464e029e8e92591a56d5b20578c618cc6fe5bc"),
    ("cubic24", lambda: random_cubic(24, 3),  # opt 7
     "b8ebf9af34d19bbebcc2e956fdb9448113cc21057357df4c775b5d3cb676a865"),
    ("4reg20", lambda: random_regular4(20, 1),  # opt 7
     "7cde39eab406558195182cf0997c026832267d75cce70c6afd65a8a3a910f9d7"),
    ("4reg22", lambda: random_regular4(22, 5),  # opt 8
     "e1424893fa474bf5617261d6a67d56439ef1a0b64750794e28fd161b60ef0991"),
    # the root bound 4 is three below the optimum 7: four rounds
    ("bull26", lambda: bull_free_random(26, 60, 3),
     "476cb451e3cf42de27f1e64f2137ec229b01b01d2d3b8872c0eb89a3b6bf8479"),
    # above EXHAUSTIVE_LIMIT: branch-and-reduce
    ("cubic40", lambda: random_cubic(40, 1),  # opt 11
     "62cbf07bb49ef41d295359dd8151445ab076ba99a4542b2fcc257de7d6c70172"),
    ("cubic56", lambda: random_cubic(56, 2),  # opt 15
     "03dc261cb7971a4d2263ae4abceaa03ce3302ae5dc03f438ffcf59bcd2e91810"),
    ("4reg32", lambda: random_regular4(32, 3),  # opt 12
     "a438ad35c0a6269762db19e427261cf7af4c1c30391fb4e88c5f326cffd8195a"),
    ("bull60", lambda: bull_free_random(60, 90, 5),  # opt 8
     "6b02ae4d9b6f585982baa6b0e56b91d89af1b3e0da35509e1e2a1a2859cc6c85"),
]


@pytest.mark.parametrize("name,make,out_sha", SOLVE_GOLDEN, ids=[g[0] for g in SOLVE_GOLDEN])
def test_solve_bytes_pinned(name, make, out_sha, tmp_path, capsys):
    inp = tmp_path / "in.fvs"
    inp.write_text(write_graph(Instance(make(), 0)))
    assert main(["solve", str(inp)]) == 0
    assert _sha(capsys.readouterr().out) == out_sha
