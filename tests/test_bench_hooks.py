"""The benchmark's per-layer tracer (perfbench/tracing.py) looks fvskit
functions up by module and attribute name. A renamed or deleted target
crashes every traced benchmark run, so each one must still resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    targets = [(m, a) for m, a, _, _ in tracing.WRAPPED] + [(m, a) for m, a, _ in tracing.COUNTED]
    assert len(targets) > 20
    missing = [
        f"fvskit.{m}.{a}"
        for m, a in targets
        if not callable(getattr(importlib.import_module(f"fvskit.{m}"), a, None))
    ]
    assert missing == []
