#!/usr/bin/env python3
"""Steadiness check: interleaved sets of benchmark runs, one process at a time.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 10 --against ../parent-checkout

Every workload in ``BENCHMARK.json`` runs at its ``run_seconds``. Without
``--against``, set A and set B are two sets of runs of this checkout,
with distinct seeds. With ``--against DIR``, set B runs the benchmark of the
checkout at DIR on the same seeds as set A, so two commits can be compared.
Runs alternate A, B run by run (which side goes first alternates too), so
that drift of the machine hits both sets alike.

For every workload and metric it prints each set's median, its spread (the
distance between the first and third quartile over the median) and the ratio
of the medians, plus each set's failed share. Every run's JSON result is
appended to ``.perfbench_out/steady.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, wall_s=wall, checkout=str(checkout))
    return result


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv: list[str] | None = None) -> int:
    spec = bench_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    other = args.against.resolve() if args.against else ROOT
    OUT.mkdir(exist_ok=True)
    log = open(OUT / "steady.jsonl", "a")
    runs: dict[tuple[str, str], list[dict]] = {}
    with log:
        for i in range(args.runs):
            for wl in workloads:
                seed_a = args.first_seed + i
                seed_b = seed_a if args.against else seed_a + args.runs
                sides = [("A", ROOT, seed_a), ("B", other, seed_b)]
                if i % 2:
                    sides.reverse()
                for side, checkout, seed in sides:
                    res = run_once(checkout, wl, seed, spec["run_seconds"])
                    res["set"] = side
                    log.write(json.dumps(res) + "\n")
                    log.flush()
                    runs.setdefault((wl, side), []).append(res)
                    print(f"run {i} {wl} set {side} seed {seed}: {res['wall_s']:.1f} s, "
                          f"correct {res['correct']}, failed {res['failed']}/{res['attempted']}",
                          flush=True)

    print(f"\n{'workload':<13} {'metric':<28} {'A median':>12} {'A spread':>9} "
          f"{'B median':>12} {'B spread':>9} {'B/A':>7} {'bound':>6}")
    for wl in workloads:
        a_runs, b_runs = runs[(wl, "A")], runs[(wl, "B")]
        for name in a_runs[0]["metrics"]:
            a_med, a_spr = spread([r["metrics"][name]["value"] for r in a_runs])
            b_med, b_spr = spread([r["metrics"][name]["value"] for r in b_runs])
            ratio = b_med / a_med if a_med else float("nan")
            bound = bounds.get(name)
            print(f"{wl:<13} {name:<28} {a_med:>12.6g} {a_spr:>9.2%} {b_med:>12.6g} "
                  f"{b_spr:>9.2%} {ratio:>7.3f} {'' if bound is None else bound:>6}")
        for side, rs in (("A", a_runs), ("B", b_runs)):
            shares = {r["failed"] / r["attempted"] for r in rs}
            print(f"{wl:<13} failed share, set {side}: {sorted(shares)}; "
                  f"all correct: {all(r['correct'] for r in rs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
