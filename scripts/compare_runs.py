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
digest, ``metrics.flat()`` or list of verifier violations differs, with the
keys that differ, each side's violation count, the first violation message
that differs and the first trace line that differs (its number, and each
side's tick, kind and actor there), and exits 1 if any run differs (0 if
none, 2 if a checkout fails to run the set). It also prints the line count
of each ``src/gridswarm/*.py`` file in both checkouts and the net change.

    python3 scripts/compare_runs.py --census

builds and runs the same set in this checkout alone, as ``--emit`` runs it
(digest, ``metrics.flat()`` and ``verify_trace`` included), under
``sys.settrace`` (standard library only), and prints each line of
``src/gridswarm/*.py`` (not ``cli.py``) that nothing executed, as
``file:line  source``. The tracer is on from the import of gridswarm, so a
function called while a module builds its tables counts as run. It skips
class bodies and module-level statements, which run at import, and
``raise`` statements.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import types
from itertools import zip_longest
from pathlib import Path
from typing import Callable

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


def run_one(sc: dict) -> tuple[str, dict]:
    """Run one scenario: its trace text, and its digest, ``metrics.flat()``
    and verifier violations."""
    from gridswarm.engine import run_scenario
    from gridswarm.scenario import scenario_from_dict
    from gridswarm.trace import trace_digest, verify_trace

    metrics, trace = run_scenario(scenario_from_dict(sc))
    text = trace.dump()
    return text, {"digest": trace_digest(text), "flat": metrics.flat(),
                  "violations": verify_trace(text)}


def emit(path: str, traces: str) -> None:
    """Run every scenario in the JSON file `path`, write the trace of the
    i-th run to `traces`/i.jsonl, and print the results as JSON."""
    out = {}
    with open(path) as fh:
        runs = json.load(fh)
    for i, (name, sc) in enumerate(runs.items()):
        text, out[name] = run_one(sc)
        with open(os.path.join(traces, f"{i}.jsonl"), "w") as fh:
            fh.write(text)
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


def run_report(name: str, a: dict, b: dict) -> list[str]:
    """How run `name` differs from the other checkout's result `a` to this
    one's `b`, as report lines; none if the digests, ``metrics.flat()`` and
    violation lists are equal."""
    keys = sorted(k for k in a["flat"].keys() | b["flat"].keys()
                  if a["flat"].get(k) != b["flat"].get(k))
    va, vb = a["violations"], b["violations"]
    if a["digest"] == b["digest"] and not keys and va == vb:
        return []
    out = [f"{name}: digest {'differs' if a['digest'] != b['digest'] else 'same'}, "
           f"violations {len(va)} -> {len(vb)}"]
    for number, (x, y) in enumerate(zip_longest(va, vb), start=1):
        if x != y:
            out.append(f"    first differing violation, number {number}: {x!r} -> {y!r}")
            break
    out.extend(f"    {k}: {a['flat'].get(k)!r} -> {b['flat'].get(k)!r}" for k in keys)
    return out


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


def code_lines(source: str, filename: str) -> set[int]:
    """The lines of `source` that a run can execute: lines with compiled
    code that belong to a statement inside a function body. Class bodies
    and module-level statements (they run at import), ``raise`` statements
    and the ``try``/``except``/``finally`` lines of a ``try`` are left out."""
    owner: dict[int, ast.stmt] = {}  # line -> the innermost statement holding it
    in_function: set[int] = set()  # ids of the statements inside a function body

    def visit(node: ast.AST, inside: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                if inside:
                    in_function.add(id(child))
                for n in range(child.lineno, child.end_lineno + 1):
                    owner[n] = child
            visit(child, inside or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(source), False)
    compiled = set()
    codes = [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        compiled.update(line for _start, _end, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    skip = (ast.Raise, ast.Try) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())
    return {n for n in compiled if n in owner and id(owner[n]) in in_function
            and not isinstance(owner[n], skip)}


def census(build: Callable[[], dict[str, dict]]) -> list[str]:
    """Import gridswarm, build the run set with `build` and run each scenario
    as `emit` does, all under a line tracer, so that a function called at
    import counts as run if gridswarm was not imported yet; return
    ``file:line  source`` for each line of ``code_lines`` in src/gridswarm
    (not cli.py) that nothing executed, in file and line order."""
    src = ROOT / "src" / "gridswarm"
    sys.path[:0] = [str(ROOT / "src")]
    files = {os.path.realpath(p): p for p in sorted(src.glob("*.py")) if p.name != "cli.py"}
    hits: dict[Path, set[int]] = {p: set() for p in files.values()}
    tracers = {}  # co_filename -> the line tracer of its file, or None

    def tracer_for(filename: str):
        path = files.get(os.path.realpath(filename))
        if path is None:
            return None
        add = hits[path].add

        def on_line(frame, event, arg):
            add(frame.f_lineno)
            return on_line
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            tracers[name] = tracer_for(name)
        return tracers[name]

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        import gridswarm

        if Path(gridswarm.__file__).resolve().parent != src.resolve():
            raise SystemExit(f"error: gridswarm comes from {gridswarm.__file__}, not {src}")
        for sc in build().values():
            run_one(sc)
    finally:
        sys.settrace(previous)

    out = []
    for path, ran in hits.items():
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for n in sorted(code_lines(source, str(path)) - ran):
            out.append(f"{path.relative_to(ROOT)}:{n}  {text[n - 1].strip()}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", type=Path, help="the other checkout")
    group.add_argument("--census", action="store_true",
                       help="list the src/gridswarm lines no run executes")
    group.add_argument("--emit", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        emit(*args.emit)
        return 0
    if args.census:
        unreached = census(build_runs)
        print("\n".join(unreached))
        print(f"{len(unreached)} lines of src/gridswarm/*.py that no run executed",
              file=sys.stderr)
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
            report = run_report(name, base[name], this[name])
            if not report:
                continue
            differing += 1
            print("\n".join(report))
            where = first_difference(os.path.join(base_traces, f"{i}.jsonl"),
                                     os.path.join(this_traces, f"{i}.jsonl"))
            if where is not None:
                print(f"    first differing trace {where}")
    print_line_counts(line_counts(args.against.resolve()), line_counts(ROOT))
    print(f"{differing} of {len(runs)} runs differ from {args.against}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
