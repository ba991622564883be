#!/usr/bin/env python3
"""Compare trace digests and run metrics between this checkout and another.

    python3 scripts/compare_runs.py --against ../parent-checkout

The run set has 143 scenarios:
- the 20 golden entries of ``tests/test_golden.py``
- the benchmark's workloads (``perfbench/workloads.py``) at seeds 1 and 2,
  13 scenarios each
- ``random_scenario`` seeds 12-59, each with a kill of ``a00`` at tick 3 and
  its revive at tick 13
- ``lossy_scenario`` seeds 11-59 from ``perfbench/workloads.py``

The scenarios are built once, by this checkout, so the other checkout's
generators cannot change the input. Each checkout then runs the whole set in a
fresh interpreter with its own ``src/`` first on ``PYTHONPATH`` and writes
its traces to a temporary directory. The script prints every run whose trace
digest or ``metrics.flat()`` differs, with the keys that differ, each side's
verifier violations and the first trace line that differs (its number, and
each side's tick, kind and actor there), and exits 1 if any run differs (0
if none, 2 if a checkout fails to run the set). It also prints the line count
of each ``src/gridswarm/*.py`` file in both checkouts and the net change.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build_runs() -> dict[str, dict]:
    """Scenario dicts by run name, in a fixed order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    import test_golden
    import workloads
    from gridswarm.scenario import random_scenario

    runs = {f"golden/{name}": sc for name, sc in test_golden.corpus().items()}
    for seed in (1, 2):
        for name, make in workloads.WORKLOADS.items():
            for i, sc in enumerate(make(seed)):
                runs[f"{name}@{seed}/{i}"] = sc
    for seed in range(12, 60):
        sc = random_scenario(seed)
        sc["faults"] = [{"tick": 3, "kind": "kill", "agent": "a00"},
                        {"tick": 13, "kind": "revive", "agent": "a00"}]
        runs[f"random_kill/{seed}"] = sc
    for seed in range(11, 60):
        runs[f"lossy/{seed}"] = workloads.lossy_scenario(seed)
    return runs


def emit(path: str, traces: str) -> None:
    """Run every scenario in the JSON file `path`, write the trace of the
    i-th run to `traces`/i.jsonl, and print the results as JSON."""
    from gridswarm.engine import run_scenario
    from gridswarm.scenario import scenario_from_dict
    from gridswarm.trace import trace_digest, verify_trace

    out = {}
    with open(path) as fh:
        runs = json.load(fh)
    for i, (name, sc) in enumerate(runs.items()):
        metrics, trace = run_scenario(scenario_from_dict(sc))
        text = trace.dump()
        with open(os.path.join(traces, f"{i}.jsonl"), "w") as fh:
            fh.write(text)
        out[name] = {"digest": trace_digest(text), "flat": metrics.flat(),
                     "violations": len(verify_trace(text))}
    json.dump(out, sys.stdout)


def run_checkout(checkout: Path, scenarios: str, traces: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(checkout / "src"), env.get("PYTHONPATH")) if p)
    os.mkdir(traces)
    proc = subprocess.run([sys.executable, __file__, "--emit", scenarios, traces],
                          env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"error: the run set failed on {checkout}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout)


def describe(line: str | None) -> str:
    """Tick, kind and actor of a trace line; "end of trace" past the last."""
    if line is None:
        return "end of trace"
    event = json.loads(line)
    return f"tick {event['tick']} {event['kind']} {event['actor']}"


def first_difference(a_path: str, b_path: str) -> str | None:
    with open(a_path) as fa, open(b_path) as fb:
        for number, (a, b) in enumerate(zip_longest(fa, fb), start=1):
            if a != b:
                return f"line {number}: {describe(a)} -> {describe(b)}"
    return None


def line_counts(checkout: Path) -> dict[str, int]:
    """Lines (as ``wc -l`` counts them) of each src/gridswarm/*.py file."""
    return {path.name: path.read_text(encoding="utf-8").count("\n")
            for path in (checkout / "src" / "gridswarm").glob("*.py")}


def print_line_counts(base: dict[str, int], this: dict[str, int]) -> None:
    print("lines of src/gridswarm/*.py, other checkout -> this one:")
    rows = [(name, base.get(name, 0), this.get(name, 0))
            for name in sorted(base.keys() | this.keys())]
    rows.append(("total", sum(base.values()), sum(this.values())))
    for name, a, b in rows:
        print(f"    {name}: {a} -> {b} ({b - a:+d})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", type=Path, help="the other checkout")
    group.add_argument("--emit", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        emit(*args.emit)
        return 0

    runs = build_runs()
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        scenarios = os.path.join(tmp, "runs.json")
        with open(scenarios, "w") as fh:
            json.dump(runs, fh)
        base_traces, this_traces = os.path.join(tmp, "base"), os.path.join(tmp, "this")
        base = run_checkout(args.against.resolve(), scenarios, base_traces)
        this = run_checkout(ROOT, scenarios, this_traces)

        for i, name in enumerate(runs):
            a, b = base[name], this[name]
            keys = sorted(k for k in a["flat"].keys() | b["flat"].keys()
                          if a["flat"].get(k) != b["flat"].get(k))
            if a["digest"] == b["digest"] and not keys:
                continue
            differing += 1
            print(f"{name}: digest {'differs' if a['digest'] != b['digest'] else 'same'}, "
                  f"violations {a['violations']} -> {b['violations']}")
            for k in keys:
                print(f"    {k}: {a['flat'].get(k)!r} -> {b['flat'].get(k)!r}")
            where = first_difference(os.path.join(base_traces, f"{i}.jsonl"),
                                     os.path.join(this_traces, f"{i}.jsonl"))
            if where is not None:
                print(f"    first differing trace {where}")
    print_line_counts(line_counts(args.against.resolve()), line_counts(ROOT))
    print(f"{differing} of {len(runs)} runs differ from {args.against}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
