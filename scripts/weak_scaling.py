#!/usr/bin/env python3
"""Weak scaling: grow the map, the zone grid and the swarm together.

    python3 scripts/weak_scaling.py --ks 2,4,8 --runs 5
    python3 scripts/weak_scaling.py --runs 5 --against ../parent-checkout \
        --out BENCH_weak_scaling.json

Scenario k is a k x k grid of 15 x 15-cell zones with 8 agents and 12 jobs per
zone, spawn ticks 0-20, scenario seed 1 and max_ticks 400, drawn with the
benchmark's own generator (``_scenario`` and ``rng_for("scale", k)`` from
``perfbench/workloads.py``), so a checkout's program cannot change its input.
One run is one untraced ``run_scenario`` call, timed with ``perf_counter``
from after the scenario is parsed to the end of the run. Every (checkout, k)
set of runs happens in a fresh interpreter; with ``--against``, the two
checkouts alternate k by k. For each k the output holds every run's wall
time, their median, the rounds, the median microseconds per agent-round and
the peak resident set size of the set's interpreter (``ru_maxrss``, which
Linux reports in KiB).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ZONE_SIDE = 15
AGENTS_PER_ZONE = 8
JOBS_PER_ZONE = 12


def scale_scenario(k: int) -> dict:
    """The weak-scaling scenario with k x k zones."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    side = ZONE_SIDE * k
    return workloads._scenario(side, side, (), k, k, AGENTS_PER_ZONE * k * k,
                               JOBS_PER_ZONE * k * k, 20, workloads.rng_for("scale", k),
                               seed=1, max_ticks=400)


def time_runs(k: int, runs: int) -> dict:
    """Run scenario k `runs` times in this interpreter; wall times, rounds and
    the interpreter's peak resident set size in MB after the runs."""
    from gridswarm.engine import run_scenario
    from gridswarm.scenario import scenario_from_dict

    data = scale_scenario(k)
    walls, rounds = [], set()
    for _ in range(runs):
        config = scenario_from_dict(data)
        start = time.perf_counter()
        metrics, trace = run_scenario(config)
        walls.append(time.perf_counter() - start)
        rounds.add(metrics.rounds)
        del trace  # outside the timed region; the next run's peak holds one trace only
    if len(rounds) != 1:
        raise SystemExit(f"k={k}: rounds differ between runs: {sorted(rounds)}")
    return {"k": k, "agents": len(data["agents"]), "rounds": rounds.pop(), "walls_s": walls,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def summarize(row: dict) -> dict:
    wall = statistics.median(row["walls_s"])
    return dict(row, wall_s=wall, ms_per_round=1e3 * wall / row["rounds"],
                us_per_agent_round=1e6 * wall / (row["rounds"] * row["agents"]))


def run_checkout(checkout: Path, k: int, runs: int) -> dict:
    code = ("import json, sys; sys.path[:0] = [sys.argv[1] + '/src', sys.argv[2]]; "
            "import weak_scaling; "
            "print(json.dumps(weak_scaling.time_runs(int(sys.argv[3]), int(sys.argv[4]))))")
    proc = subprocess.run([sys.executable, "-c", code, str(checkout),
                           str(ROOT / "scripts"), str(k), str(runs)],
                          capture_output=True, text=True, check=True)
    return summarize(json.loads(proc.stdout))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ks", default="2,4,6,8,12", help="comma-separated zone-grid sides")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--against", type=Path, default=None,
                        help="another checkout to time on the same scenarios")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    sides = {"change": ROOT}
    if args.against:
        sides["parent"] = args.against.resolve()
    result: dict = {
        "scenario": f"k x k zones of {ZONE_SIDE}x{ZONE_SIDE} cells, {AGENTS_PER_ZONE} agents "
                    f"and {JOBS_PER_ZONE} jobs per zone, spawn ticks 0-20, seed 1",
        "runs": args.runs,
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
    }
    result.update({name: [] for name in sides})
    for i, k in enumerate(int(v) for v in args.ks.split(",")):
        order = list(sides.items())
        if i % 2:
            order.reverse()
        for name, checkout in order:
            row = run_checkout(checkout, k, args.runs)
            result[name].append(row)
            print(f"{name:<7} k={k:<3} agents={row['agents']:<5} rounds={row['rounds']:<4} "
                  f"wall={row['wall_s']:.3f} s  {row['ms_per_round']:.1f} ms/round  "
                  f"{row['us_per_agent_round']:.1f} us/agent-round  "
                  f"peak RSS {row['peak_rss_mb']:.1f} MB", flush=True)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
