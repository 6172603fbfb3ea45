"""Pinned output bytes: the sha256 of the canonical graph text and of the
trace JSON for five reductions. A digest change means the compiler's output
changed; that must be deliberate and stated in CHANGES.md."""

import hashlib

import pytest

from fvskit.graph import Instance
from fvskit.pipeline import run_pipeline
from fvskit.textio import trace_dumps, write_graph

from conftest import cycle_graph, grid_graph, prism_graph

GOLDEN = [
    ("triangle", lambda: cycle_graph(3), "4reg-planar-ham",
     "329732e9acb22c6d029a3af086c3a35f7f1d7a5bd6445b7614986738ce163096",
     "a4461ea50efe1b00239f86784cc4c12d64603251a0c95be3dea6b2e1abef26a4"),
    ("prism", prism_graph, "5reg-planar-ham",
     "d9a3e51518098129065393e9ee8b088cb4bf77ef910130329d5f1439fab43f0c",
     "eb84a91d6588c0dfb94af050e59ebb1450a7cf8465e433b828299d45dbd401b5"),
    ("C3", lambda: cycle_graph(3), "preg-ham:5",
     "8abefdb4e96509b14d2219d0d8ffc1c2766cfedd3948b05599eeae679b2a78d7",
     "496fe81833306f91572246cba4bb264289586f9b8f907dda71de7fbef4f8a23a"),
    ("C8", lambda: cycle_graph(8), "ham-ordered:4",
     "aa0d1a06e61157fc17e9ba3e68b11d5205086edf961996bfe194af9fde9774cd",
     "6aad572ab677098bea4d5c1e68e37b7cba295907411dd459426e3963639f097b"),
    # pairing routes through 8 crossings; hamiltonize runs 27 merges (108 steps)
    ("grid3x4", lambda: grid_graph(3, 4), "4reg-planar-ham",
     "637a16fa4c9c1527804493daa1271094d73bd1c6da7f30d4e219328eeddec5cf",
     "9762a3955d1e4a2929524563d361af454469db03ef1e53fa05df997260ec4539"),
]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,make,target,fvs_sha,trace_sha", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_output_bytes_pinned(name, make, target, fvs_sha, trace_sha):
    res = run_pipeline(Instance(make(), 1), target)
    assert _sha(write_graph(res.instance)) == fvs_sha
    assert _sha(trace_dumps(res)) == trace_sha
