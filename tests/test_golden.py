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
     "c6c8edc170fa01a0a52d93a2871cfd9ddd16f04a733a9160982a42eb8f6afa81",
     "56433c648a08e88c25bc61ee9f6df80ad7361d9937c9eab5348d864a6b843200"),
    ("prism", prism_graph, "5reg-planar-ham",
     "a9d67f17731c109c20e43ea643e901f897e300da4d32d63530cd3be579a68518",
     "4b09d8ea699013176ce7a324228c1775b26fcd6aeb2b1cbd2ee4f9648274c04a"),
    ("C3", lambda: cycle_graph(3), "preg-ham:5",
     "86d643ac1aa1626488884aa598160c0c0567b405e92774dee2fe8c9305c807ab",
     "38ce18bd27c3cbbb956b6edfc64d1841ff48737142cb407356d5b2533aa41fda"),
    ("C8", lambda: cycle_graph(8), "ham-ordered:4",
     "aa0d1a06e61157fc17e9ba3e68b11d5205086edf961996bfe194af9fde9774cd",
     "2a30880ef2e06134b5e651e20a6eddf7b57788b5cf810ccf59649b820062356f"),
    # pairing routes through 8 crossings; hamiltonize runs 27 merges (81 steps)
    ("grid3x4", lambda: grid_graph(3, 4), "4reg-planar-ham",
     "d8cb9ac3dd536e73883e87fbafc48e568a894e94e0d29691e651b37459516b54",
     "2ad68d818f0e90b10a1ea12f276d74c9861cb307c8138888f1fa7732ddd53fe2"),
    # p_regularize's Y rounds: Y_5 across the witness matching of the 5-regular graph
    ("C3-preg6", lambda: cycle_graph(3), "preg-ham:6",
     "2effdfa28c2df43172affe01d5d38d522efbd4a21754d23b6d63eb4482c2a62c",
     "0d6cba29d15f50e7306fd3f5cc1b81a61c4224c41bc4ff2c2964dbe00f9a13c5"),
    # pairing routes through 20 crossings; hamiltonize runs 42 merges, all case 1
    ("grid2x5", lambda: grid_graph(2, 5), "4reg-planar-ham",
     "f7f3637ff6dc4abef1226580c744e52ba4524930457711e2ef248dc9cd0aee02",
     "a4c845b97943c4e3eb038f61428152e30911f30e3960b4531933db3be6c1dade"),
    # hamiltonize runs 46 merges, one of them case 2 (two L gadgets)
    ("grid6x8", lambda: grid_graph(6, 8), "4reg-planar-ham",
     "195b17cf6f97bf8fd9f418e105aade577f1cae396c86159b61f0ef3c42d5bad3",
     "daae7010db84949f5d09bb673b548c030d917c7c4b2909d27a0c5b2db71c2029"),
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
