"""Command-line surface: reduce an instance onto a restricted class, verify
a produced artifact, solve small instances exactly, and certify gadgets."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .gadgets import build_gadget, certify_gadget, refuse_uncertifiable
from .geometry import GeometryError, emit_svg
from .graph import GraphError
from .pipeline import PipelineError, parse_target, run_pipeline
from .solvers import (
    EXHAUSTIVE_LIMIT,
    SolverError,
    UndecidedError,
    fvs_branch_reduce,
    fvs_exact_exhaustive,
)
from .textio import (
    CertificationError,
    FormatError,
    parse_graph,
    trace_dumps,
    verify_trace,
    witness_line,
    write_graph,
)

EXIT_FORMAT = 2
EXIT_PRECONDITION = 3
EXIT_CERTIFICATION = 4
EXIT_UNDECIDED = 5


def _read(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _io_error("read", path, exc) from None


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _io_error("write", path, exc) from None


def _io_error(verb, path, exc):
    reason = "not UTF-8 text" if isinstance(exc, UnicodeDecodeError) else exc.strerror or exc
    return FormatError(f"cannot {verb} {path}: {reason}")


def cmd_reduce(args) -> int:
    if args.svg_debug and parse_target(args.target)[0] == "ham-ordered":
        raise PipelineError("--svg-debug draws the pairing stage, which ham-ordered skips")
    inst = parse_graph(_read(args.input), k=args.k)
    result = run_pipeline(inst, args.target)
    _write(args.output, write_graph(result.instance))
    if args.trace:
        _write(args.trace, trace_dumps(result))
    if args.witness_out:
        if result.instance.witness is None:
            raise PipelineError("target class carries no witness")
        _write(args.witness_out, witness_line(result.instance) + "\n")
    if args.svg_debug:
        audit = next(sr.audit for sr in result.stages if sr.name == "pairing")
        _write(args.svg_debug, emit_svg(audit.coords_after, audit.drawn_edges_after,
                                        audit.routes))
    return 0


def cmd_verify(args) -> int:
    text = _read(args.trace)
    try:
        trace = json.loads(text)
    except (ValueError, RecursionError) as exc:  # too deep, or an int over the digit limit
        raise FormatError(f"trace is not JSON: {exc}") from None
    verify_trace(_read(args.graph), trace)
    print("ok")
    return 0


def cmd_solve(args) -> int:
    g = parse_graph(_read(args.input)).graph
    if g.n <= EXHAUSTIVE_LIMIT:
        sol = fvs_exact_exhaustive(g, time_budget=args.time_budget)
    else:
        sol = fvs_branch_reduce(g, time_budget=args.time_budget)
    print(f"opt {len(sol.deleted)}")
    print("s " + " ".join(str(v) for v in sorted(sol.deleted)))
    return 0


def cmd_gadget_check(args) -> int:
    if args.kind != "Y" and args.p is not None:
        args.usage_error(f"argument --p: only a Y gadget takes p, not {args.kind}")
    if args.kind == "Y" and args.p is not None:
        refuse_uncertifiable(2 * args.p + 4)  # Y_p's order, known before it is built
    gadget = build_gadget(args.kind, p=args.p)
    report = certify_gadget(gadget)
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return 0


def _time_budget(text) -> float:
    """A --time-budget in seconds: a float that is neither negative nor NaN,
    whose deadline would never pass."""
    try:
        if (seconds := float(text)) >= 0:  # false for NaN
            return seconds
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a non-negative number of seconds: {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing keeps no state in it."""
    ap = argparse.ArgumentParser(prog="fvskit")
    sub = ap.add_subparsers(dest="verb", required=True)

    red = sub.add_parser("reduce", help="compile an instance onto a target class")
    red.add_argument("input")
    red.add_argument("--target", required=True)
    red.add_argument("-o", "--output", default=None)
    red.add_argument("--trace", default=None)
    red.add_argument("--witness-out", default=None)
    red.add_argument("--k", type=int, default=0)
    red.add_argument("--svg-debug", default=None)
    red.set_defaults(func=cmd_reduce)

    ver = sub.add_parser("verify", help="replay and check a reduction artifact")
    ver.add_argument("graph")
    ver.add_argument("--trace", required=True)
    ver.set_defaults(func=cmd_verify)

    sol = sub.add_parser("solve", help="exact minimum feedback vertex set")
    sol.add_argument("input")
    sol.add_argument("--time-budget", type=_time_budget, default=None)
    sol.set_defaults(func=cmd_solve)

    gad = sub.add_parser("gadget-check", help="exhaustively certify a gadget")
    gad.add_argument("kind", choices=["R", "L", "D", "Y"])
    gad.add_argument("--p", type=int, default=None)
    gad.set_defaults(func=cmd_gadget_check, usage_error=gad.error)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (PipelineError, GraphError, GeometryError, SolverError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
