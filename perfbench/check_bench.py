"""Self-tests of the benchmark. Run from the repository root with

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps it out of the repository's own test run: these tests run
the benchmark several times and take a few minutes.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7

# Per-layer metrics that must be non-zero on each workload (the layer that
# the workload is meant to load, or that its inputs necessarily reach).
EXPECTED_NONZERO = {
    "grid-ham4": [
        *[f"pipeline.{st}.{f}" for st in ("degree2", "pairing", "hamiltonize")
          for f in ("self_s", "n_out", "m_out", "steps", "k_delta")],
        "pipeline.hamiltonize.merges_case1", "pipeline.hamiltonize.merges_case2",
        "pipeline.compute_two_factor.s", "pipeline.replay_trace.s",
        "pipeline.replay_trace.calls", "pipeline.replay_trace.steps",
        "geometry.grid_embed.s", "geometry.pick_epsilon.self_s", "geometry.find_crossings.s",
        "geometry.find_crossings.calls", "geometry.segment_relation.calls", "geometry.crossings",
        "geometry.crossing_yield", "geometry.route_connection.calls", "geometry.epsilon_q",
        "graph.construct.calls", "graph.construct.edges", "graph.construct.s",
        "graph.faces.calls", "graph.faces.s", "graph.subdivide_edge.calls",
        "graph.subdivide_edge.s", "graph.strip_low_degree.s",
        "gadgets.insert.R.calls", "gadgets.insert.L.calls", "gadgets.insert_gadget_graph.s",
        "solvers.check_planarity.calls", "solvers.check_planarity.s",
        *[f"solvers.check_planarity.{w}.{f}"
          for w in ("in_hamiltonize", "in_certificate", "in_verify") for f in ("calls", "s")],
        "textio.parse_graph.s", "textio.write_graph.s", "textio.trace_dumps.s",
        "textio.trace_bytes", "textio.verify_trace.self_s",
    ],
    "regularize": [
        *[f"pipeline.{st}.{f}" for st in ("evenize", "5regular", "pregular", "lift")
          for f in ("self_s", "n_out", "m_out", "steps", "k_delta")],
        "pipeline.replay_trace.s", "pipeline.replay_trace.calls", "pipeline.replay_trace.steps",
        "graph.construct.edges", "graph.construct.s",
        "gadgets.insert.D.calls", "gadgets.insert.Y.calls", "gadgets.insert_gadget_graph.s",
        "gadgets.build_gadget.calls",
        "solvers.check_planarity.in_verify.calls", "solvers.find_hamiltonian_cycle.s",
        "solvers.check_ore_condition.s", "textio.trace_bytes", "textio.verify_trace.self_s",
    ],
    "exact-solve": [
        "solvers.fvs_exact_exhaustive.s", "solvers.fvs_exact_exhaustive.calls",
        "solvers.fvs_branch_reduce.s", "solvers.fvs_branch_reduce.calls",
        "textio.parse_graph.s",
    ],
}


def bench(workload, trace, hashseed="0", seconds="1", cwd=ROOT):
    """Run the benchmark in a fresh process; returns (process, results)."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    path = ROOT / ".bench_results" / f"{workload}-seed{SEED}-trace{trace}.json"
    return proc, json.loads(path.read_text()) if proc.returncode == 0 else None


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in workloads.WORKLOADS:
        proc, res = bench(workload, 1)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0
        out[workload] = res
    return out


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == list(tracing.METRICS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_inputs_are_one_based(workload):
    for seed in (1, 2):
        for job in workloads.build(workload, seed):
            n, edges, _ = checks.parse_text(job.text)
            assert n == job.input.n
            used = {v for e in edges for v in e}
            assert used == set(range(1, n + 1)), job.key


def test_size_caps_refuse_runaway_outputs():
    with pytest.raises(ValueError):
        workloads.check_size(workloads.cycle(30), "ham-ordered:7")
    with pytest.raises(ValueError):
        workloads.check_size(workloads.cycle(3), "preg-ham:7")
    for corpus in (workloads.GRID_HAM4, workloads.REGULARIZE):
        for inp, target in corpus:
            workloads.check_size(inp, target)


def _compiled(target):
    from fvskit.pipeline import run_pipeline
    from fvskit.textio import parse_graph, trace_dumps, write_graph

    inp = workloads.cycle(3)
    job = workloads.Job("compile", inp, inp.text(random.Random(0)), target=target, k=1)
    result = run_pipeline(parse_graph(job.text, k=1), target)
    return job, write_graph(result.instance), json.loads(trace_dumps(result))


def test_ledger_gate_accepts_faithful_and_rejects_tampered_output():
    job, text, trace = _compiled("5reg-planar-ham")
    stages = checks.check_compile(job, text, trace)
    assert [s["name"] for s in stages][-1] == "5regular"

    # recorded k_delta values are never read
    lied = json.loads(json.dumps(trace))
    for st in lied["stages"]:
        for step in st["steps"]:
            step["k_delta"] = 0
    checks.check_compile(job, text, lied)

    tampered = json.loads(json.dumps(trace))
    tampered["stages"][-1]["k_after"] -= 1
    with pytest.raises(checks.CheckError):
        checks.check_compile(job, text, tampered)

    tampered = json.loads(json.dumps(trace))
    step = next(s for s in tampered["stages"][-1]["steps"] if s["op"] == "insert")
    step["gadget"] = "L"
    with pytest.raises(checks.CheckError):
        checks.check_compile(job, text, tampered)

    lines = text.splitlines()
    edge = next(i for i, ln in enumerate(lines) if ln.startswith("e "))
    header = lines[0].split()
    lines[0] = f"p fvs {header[2]} {int(header[3]) - 1}"
    with pytest.raises(checks.CheckError):
        checks.check_compile(job, "\n".join(lines[:edge] + lines[edge + 1:]) + "\n", trace)

    lines = text.splitlines()
    h = lines[-1].split()
    lines[-1] = " ".join([h[0], h[2], h[1], *h[3:]])
    with pytest.raises(checks.CheckError):
        checks.check_compile(job, "\n".join(lines) + "\n", trace)


def test_solve_check():
    inp = workloads.prism()
    job = workloads.Job("solve", inp, "", expected_opt=2)
    checks.check_solve(job, "opt 2\ns 1 5\n")
    with pytest.raises(checks.CheckError):
        checks.check_solve(job, "opt 2\ns 1 4\n")  # leaves the cycle 2-3-6-5
    with pytest.raises(checks.CheckError):
        checks.check_solve(job, "opt 3\ns 1 4 5\n")


def test_wrapping_reaches_every_importer():
    import fvskit.cli  # noqa: F401  (loads every fvskit module)

    targets = [w[:2] for w in tracing.WRAPPED] + [c[:2] for c in tracing.COUNTED]
    originals = {(mod, attr): tracing._original(mod, attr) for mod, attr in targets}
    modules = [m for k, m in sys.modules.items() if k == "fvskit" or k.startswith("fvskit.")]
    tracer = tracing.Tracer()
    patches = tracer.install()
    try:
        for m in modules:
            for val in vars(m).values():
                assert not any(val is orig for orig in originals.values()), m.__name__
        patched = {(m.__name__, k) for m, k, _ in patches}
        assert ("fvskit.cli", "fvs_exact_exhaustive") in patched
        assert ("fvskit.textio", "replay_trace") in patched
    finally:
        tracing.uninstall(patches)
    for (mod, attr), orig in originals.items():
        assert tracing._original(mod, attr) is orig


def test_per_layer_metrics_move_where_expected(traced):
    for workload, names in EXPECTED_NONZERO.items():
        metrics = traced[workload]["metrics"]
        for name in names:
            assert metrics[name]["value"] > 0, (workload, name)
    solve = traced["exact-solve"]["metrics"]
    for name, _, _ in tracing.METRICS:
        if name.startswith(("pipeline.", "geometry.", "gadgets.")):
            assert solve[name]["value"] == 0, name
    for name, _, _ in tracing.METRICS:
        if not name.startswith("trace."):
            assert any(traced[w]["metrics"][name]["value"] for w in traced), name


def _exact_counts(res):
    exact = ("count", "bytes", "q")
    return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] in exact}


def _identity(res):
    keep = ("job", "sha256_fvs", "sha256_trace", "sha256_out", "stages")
    return sorted((tuple((k, json.dumps(op.get(k), sort_keys=True)) for k in keep))
                  for op in res["operations"])


def test_outputs_and_counts_repeat_under_other_hash_seeds(traced):
    proc, res = bench("grid-ham4", 1, hashseed="1")
    assert proc.returncode == 0, proc.stderr
    assert _identity(res) == _identity(traced["grid-ham4"])
    assert _exact_counts(res) == _exact_counts(traced["grid-ham4"])
    proc, res = bench("exact-solve", 0, hashseed="2")
    assert proc.returncode == 0, proc.stderr
    assert _identity(res) == _identity(traced["exact-solve"])


def test_refuses_to_run_without_the_program():
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "grid-ham4", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
