"""fvskit benchmark: one closed-loop client, one operation at a time, running
the user path in-process through ``fvskit.cli.main``.

    python3 perfbench/run.py --workload grid-ham4 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``. A run
repeats its workload's batch of jobs (see workloads.py) while the operation
time of another pass fits in ``--seconds``, at least twice, and reports
medians over passes. Every output is checked independently (checks.py); an
operation that exits non-zero, raises, or fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes (tracing.py) and reports the per-layer metrics,
medians over the traced passes, and the tracing overhead: the median traced
pass minus the median untraced one. The last line of standard output is the
JSON result; per-operation times, output digests and per-stage sizes go to
``.bench_results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SCRATCH = ROOT / ".bench_tmp"
SETUP_SAMPLES = 3
WARMUP_SECONDS = 1.0

END_TO_END = {"ops_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio", "setup_s": "s"}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, generate the inputs, and exit (times set-up)")
    return ap.parse_args(argv)


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


class Runner:
    """Executes passes over one workload's jobs and keeps what each
    operation did."""

    def __init__(self, jobs, tmp: Path):
        from fvskit.cli import main as fvskit_main

        self.fvskit_main = fvskit_main
        self.jobs = jobs
        self.tmp = tmp
        self.inputs = []
        for i, job in enumerate(jobs):
            path = tmp / f"in{i}.fvs"
            path.write_text(job.text)
            self.inputs.append(path)
        self.records = [{"job": job.key, "verb": job.verb, "n_in": job.input.n} for job in jobs]
        self.checked = {}
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self.cpu = 0.0

    def _call(self, verb, argv, op_id):
        """(seconds, stdout, error or None) of one CLI call."""
        out = io.StringIO()
        tracer = self.tracer
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if tracer is None:
                    rc = self.fvskit_main(argv)
                else:
                    tracer.op = op_id
                    rc = tracer.span(f"op.{verb}", self.fvskit_main, None, (argv,), {})
            err = None if rc == 0 else f"exit code {rc}"
        except Exception as exc:  # a traceback out of the CLI is a failed operation
            err = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        self.cpu += time.process_time() - c0
        return dt, out.getvalue(), err

    def _fail(self, rec, err):
        self.failed += 1
        rec.setdefault("errors", []).append(err)
        print(f"FAILED {rec['job']}: {err}", file=sys.stderr)

    def _check(self, key, fn):
        """Run an independent check once per distinct output."""
        if key not in self.checked:
            try:
                self.checked[key] = (fn(), None)
            except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
                self.checked[key] = (None, f"check: {type(exc).__name__}: {exc}")
        return self.checked[key]

    def run_pass(self, index):
        times = {"reduce": 0.0, "verify": 0.0, "solve": 0.0}
        out_vertices = 0
        for i, (job, path, rec) in enumerate(zip(self.jobs, self.inputs, self.records)):
            op = f"{index}.{i}"
            if job.verb == "solve":
                self.attempted += 1
                dt, stdout, err = self._call("solve", ["solve", str(path)], op)
                times["solve"] += dt
                rec.setdefault("solve_s", []).append(dt)
                rec["sha256_out"] = _sha(stdout)
                rec["expected_opt"] = job.expected_opt
                if err is None:
                    _, err = self._check((i, rec["sha256_out"]),
                                         lambda: checks.check_solve(job, stdout))
                if err:
                    self._fail(rec, err)
                continue
            out, trace = self.tmp / f"out{i}.fvs", self.tmp / f"trace{i}.json"
            self.attempted += 2
            argv = ["reduce", str(path), "--target", job.target, "--k", str(job.k),
                    "-o", str(out), "--trace", str(trace)]
            dt, _, err = self._call("reduce", argv, op)
            times["reduce"] += dt
            rec.setdefault("reduce_s", []).append(dt)
            if err:
                self._fail(rec, err)
                self._fail(rec, "verify skipped: reduce failed")
                continue
            dt, stdout, err = self._call("verify", ["verify", str(out), "--trace", str(trace)], op)
            times["verify"] += dt
            rec.setdefault("verify_s", []).append(dt)
            if err is None and stdout != "ok\n":
                err = f"verify printed {stdout[:40]!r}"
            if err:
                self._fail(rec, err)
            out_text, trace_text = out.read_text(), trace.read_text()
            rec["target"], rec["k"] = job.target, job.k
            rec["sha256_fvs"], rec["sha256_trace"] = _sha(out_text), _sha(trace_text)
            stages, err = self._check(
                (i, rec["sha256_fvs"], rec["sha256_trace"]),
                lambda: checks.check_compile(job, out_text, json.loads(trace_text)),
            )
            if err:
                self._fail(rec, err)
                continue
            rec["stages"] = stages
            out_vertices += stages[-1]["n"] if stages else job.input.n
        times["ops"] = times["reduce"] + times["verify"] + times["solve"]
        times["cpu"], self.cpu = self.cpu, 0.0
        return times, out_vertices


def _measure_setup(args):
    """Wall time from starting a fresh interpreter to having the workload's
    inputs written, median of SETUP_SAMPLES processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
        )  # no timeout: waiting with one polls in steps of up to 50 ms
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples


def _run(args):
    jobs = workloads.build(args.workload, args.seed)
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        runner = Runner(jobs, tmp)
        if args.setup_only:
            return None
        return _measure(args, runner)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


def _spin(seconds):
    """Busy loop that brings the core up to speed before timing; it runs no
    fvskit code, so no program work hides in it."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(i * i for i in range(1000))


def _measure(args, runner):
    passes, traced, spans = [], [], []
    _spin(WARMUP_SECONDS)
    measured = 0.0
    while True:
        # with --trace 1, untraced and traced passes alternate
        tracer = tracing.Tracer() if args.trace == 1 and len(passes) > len(traced) else None
        patches = tracer.install() if tracer else []
        runner.tracer = tracer
        try:
            times, out_vertices = runner.run_pass(len(passes) + len(traced))
        finally:
            tracing.uninstall(patches)
            runner.tracer = None
        if tracer:
            traced.append((times, tracing.layer_metrics(tracer.spans, tracer.counts)))
            spans.append(tracer.spans)
        else:
            passes.append(times)
        # the budget counts operation time only; a run has at least two
        # untraced passes, or one of each kind with --trace 1
        measured += times["ops"]
        enough = bool(traced) if args.trace == 1 else len(passes) >= 2
        if enough and measured + times["ops"] > args.seconds:
            break

    def med(key):
        return statistics.median(p[key] for p in passes)

    summary = {
        "passes": len(passes),
        "reduce_s": (med("reduce"), "s"),
        "verify_s": (med("verify"), "s"),
        "solve_s": (med("solve"), "s"),
        "ops_s": (med("ops"), "s"),
        "ops_cpu_s": (med("cpu"), "s"),
        "out_vertices": (out_vertices, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": (runner.failed / runner.attempted, "ratio"),
        "ok_rate": (1 - runner.failed / runner.attempted, "ratio"),
    }
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "summary": summary, "operations": runner.records}
    if args.trace == 1:
        layer = {
            name: statistics.median(m[name] for _, m in traced) for name, _, _ in tracing.METRICS
            if not name.startswith("trace.")
        }
        overhead = statistics.median(t["ops"] for t, _ in traced) - med("ops")
        layer["trace.overhead_s"] = overhead
        layer["trace.overhead_share"] = overhead / med("ops")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in tracing.METRICS}
        result["traced_passes"] = len(traced)
    else:
        setup, samples = _measure_setup(args)
        summary["setup_s"] = (setup, "s")
        result["setup_samples_s"] = samples
        metrics = {name: {"value": summary[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result["metrics"] = metrics

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if spans:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "value"], "passes": spans}))

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} untraced and "
          f"{len(traced)} traced passes, {runner.attempted} operations, {runner.failed} failed")
    for name, val in summary.items():
        if isinstance(val, tuple):
            print(f"  {name:<14} {val[0]:>12.4f} {val[1]}")
    print(f"  details: {RESULTS.name}/{stem}.json")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "fvskit" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'fvskit'} not found; run from a checkout of fvskit",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = _run(args)
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
