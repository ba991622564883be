"""Command line entry points: run, verify, bench.

Exit codes: 0 clean, 1 invariant violation detected, 2 configuration error,
3 run ended incomplete (jobs left unfinished at the tick limit).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .engine import run_scenario
from .scenario import ConfigError, bench_scenario, load_scenario, scenario_from_dict
from .trace import TraceFormatError, trace_digest, verify_trace

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_INCOMPLETE = 3


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = load_scenario(args.scenario)
        if args.seed is not None:
            from dataclasses import replace
            config = replace(config, seed=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    metrics, trace = run_scenario(config)
    text = trace.dump()
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(text)
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump(metrics.flat(), fh, indent=2)
            fh.write("\n")
    violations = verify_trace(text)
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    flat = metrics.flat()
    print(json.dumps({"completed": flat["completed"], "rounds": flat["rounds"],
                      "makespan": flat["makespan"], "digest": trace_digest(text)}))
    if violations:
        return EXIT_VIOLATION
    if not metrics.completed:
        return EXIT_INCOMPLETE
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.trace) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        violations = verify_trace(text)
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for v in violations:
        print(f"violation: {v}")
    print(f"{len(violations)} violation(s)")
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    agents = [int(v) for v in args.agents.split(",")]
    job_counts = [int(v) for v in args.jobs.split(",")]
    rows = []
    for n_agents in agents:
        for n_jobs in job_counts:
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
        with open(args.out, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


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
    p_bench.add_argument("--agents", required=True, help="comma-separated counts")
    p_bench.add_argument("--jobs", required=True, help="comma-separated counts")
    p_bench.add_argument("--repeats", type=int, default=1)
    p_bench.add_argument("--max-ticks", type=int, default=5000)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
