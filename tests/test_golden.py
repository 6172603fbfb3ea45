"""Pinned output bytes: the sha256 of the canonical graph text and of the
trace JSON for seven reductions. A digest change means the compiler's output
changed; that must be deliberate and stated in CHANGES.md. The canonical
text is also a fixed point of parse_graph then write_graph."""

import functools
import hashlib

import pytest

from fvskit.graph import Instance
from fvskit.pipeline import run_pipeline
from fvskit.textio import parse_graph, trace_dumps, write_graph

from conftest import cycle_graph, grid_graph, prism_graph

GOLDEN = [
    ("triangle", lambda: cycle_graph(3), "4reg-planar-ham",
     "c6c8edc170fa01a0a52d93a2871cfd9ddd16f04a733a9160982a42eb8f6afa81",
     "00cd8c22a9001370373ac77347ce2a9cb8c1dc3554144e2c52ff3d286b183d1f"),
    ("prism", prism_graph, "5reg-planar-ham",
     "ea1e379ce468a2c567ec6f5c85cb2e67630aaf7be68ddacd0d1176c675c3b2fc",
     "a29a5e7c2e651a817eb78cb79de637122b0afb286a2e6f5f4ae622b2a3a819a3"),
    ("C3", lambda: cycle_graph(3), "preg-ham:5",
     "86d643ac1aa1626488884aa598160c0c0567b405e92774dee2fe8c9305c807ab",
     "ca6411a522cda4f0f67d4d8fe2a2af421d9dd452d9d7be4f1aa1f6551f487e5e"),
    ("C8", lambda: cycle_graph(8), "ham-ordered:4",
     "aa0d1a06e61157fc17e9ba3e68b11d5205086edf961996bfe194af9fde9774cd",
     "6aad572ab677098bea4d5c1e68e37b7cba295907411dd459426e3963639f097b"),
    # pairing routes through 8 crossings; hamiltonize runs 27 merges (81 steps)
    ("grid3x4", lambda: grid_graph(3, 4), "4reg-planar-ham",
     "b5ae5d81516ca741f0cf533c6d329c528c4c5a549918d616ac51233671a646ab",
     "fc1d4f27a72c25cb269a963f5eacbc19e65fc215c1625be53688d320848fef6c"),
    # p_regularize's Y rounds: Y_5 across the witness matching of the 5-regular graph
    ("C3-preg6", lambda: cycle_graph(3), "preg-ham:6",
     "2effdfa28c2df43172affe01d5d38d522efbd4a21754d23b6d63eb4482c2a62c",
     "8e2d22d07f46bf6172a65e726be2c06ec7c121f3f964f089e369d64471f369e1"),
    # hamiltonize runs 42 merges, one of them case 2 (two L gadgets)
    ("grid2x5", lambda: grid_graph(2, 5), "4reg-planar-ham",
     "87626caa797fad4cee96a3d5d0a8bebcc74007e5a78eab24d36b965d5c0e1337",
     "d9ff6b25818aa438cecb5536a58eda3dda1e9c15bd91d2fd979483de87d9eb5b"),
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
