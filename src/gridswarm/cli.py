"""Command line entry points: run, verify, bench.

Exit codes: 0 clean, 1 invariant violation detected, 2 configuration error
or a file that cannot be read, decoded or written, 3 run ended incomplete
(jobs left unfinished at the tick limit).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .engine import run_scenario
from .scenario import ConfigError, bench_scenario, load_scenario, scenario_from_dict
from .trace import TraceFormatError, trace_digest, verify_trace

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_INCOMPLETE = 3


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        from dataclasses import replace
        config = replace(config, seed=args.seed)
    metrics, trace = run_scenario(config)
    text = trace.dump()
    flat = metrics.flat()
    if args.trace_out:
        Path(args.trace_out).write_text(text)
    if args.metrics_out:
        Path(args.metrics_out).write_text(json.dumps(flat, indent=2) + "\n")
    violations = verify_trace(text)
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    print(json.dumps({"completed": flat["completed"], "rounds": flat["rounds"],
                      "makespan": flat["makespan"], "digest": trace_digest(text)}))
    if violations:
        return EXIT_VIOLATION
    if not metrics.completed:
        return EXIT_INCOMPLETE
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    # Read as written: newline translation would hide a "\r\n" ending.
    violations = verify_trace(Path(args.trace).read_bytes().decode("utf-8"))
    for v in violations:
        print(f"violation: {v}")
    print(f"{len(violations)} violation(s)")
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = []
    for n_agents in args.agents:
        for n_jobs in args.jobs:
            for rep in range(args.repeats):
                seed = 1000 * n_agents + 10 * n_jobs + rep
                scenario = bench_scenario(n_agents, n_jobs, seed,
                                          max_ticks=args.max_ticks)
                start = time.perf_counter()
                metrics, _ = run_scenario(scenario_from_dict(scenario))
                elapsed = time.perf_counter() - start
                flat = metrics.flat()
                rows.append({"agents": n_agents, "jobs": n_jobs, "seed": seed,
                             "completed": flat["completed"],
                             "makespan": flat["makespan"],
                             "rounds": flat["rounds"],
                             "migrations": flat["migrations"],
                             "wall_s": round(elapsed, 3)})
                print(json.dumps(rows[-1]))
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2) + "\n")
    return EXIT_OK


def _counts(text: str) -> list[int]:
    """A comma-separated list of non-negative counts (an argparse type)."""
    try:
        counts = [int(v) for v in text.split(",")]
        if min(counts) >= 0:
            return counts
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated counts, got {text!r}")


def _at_least_one(text: str) -> int:
    """A count of at least 1 (an argparse type)."""
    try:
        count = int(text)
        if count >= 1:
            return count
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a count of at least 1, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridswarm")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--trace-out", default=None)
    p_run.add_argument("--metrics-out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="check a trace file for violations")
    p_verify.add_argument("--trace", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="sweep seeded scenarios and report timings")
    p_bench.add_argument("--agents", type=_counts, required=True,
                         help="comma-separated counts")
    p_bench.add_argument("--jobs", type=_counts, required=True,
                         help="comma-separated counts")
    p_bench.add_argument("--repeats", type=_at_least_one, default=1)
    p_bench.add_argument("--max-ticks", type=int, default=5000)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
