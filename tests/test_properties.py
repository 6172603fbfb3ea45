"""Property test for the CLI round trip parse -> reduce -> verify on random
edge subsets of the 3x3 grid. Every subset is planar with maximum degree 4,
so reduce either succeeds or rejects a precondition (disconnected, empty
after stripping); it must never raise, and everything it writes must
verify."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from fvskit.cli import EXIT_PRECONDITION, main

GRID_EDGES = sorted(
    [(3 * i + j + 1, 3 * i + j + 2) for i in range(3) for j in range(2)]
    + [(3 * i + j + 1, 3 * i + j + 4) for i in range(2) for j in range(3)]
)


# drawn as the edges to delete, so small draws keep the grid mostly connected
@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.sets(st.sampled_from(GRID_EDGES)))
def test_reduce_then_verify_on_grid_subgraphs(deleted):
    edges = set(GRID_EDGES) - deleted
    text = f"p fvs 9 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in sorted(edges))
    with tempfile.TemporaryDirectory() as tmp:
        inp, out, tr = (str(Path(tmp) / name) for name in ("in.fvs", "out.fvs", "trace.json"))
        Path(inp).write_text(text)
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["reduce", inp, "--target", "4reg-planar-ham", "-o", out, "--trace", tr])
        assert code in (0, EXIT_PRECONDITION)
        if code == 0:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                assert main(["verify", out, "--trace", tr]) == 0
            assert printed.getvalue() == "ok\n"
