#!/usr/bin/env python3
"""gridswarm benchmark: seeded workloads run end to end through the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload open_floor --seed 1 --seconds 40 --trace 0

One operation is one scenario run; a pass is one run over the workload's
scenario set. The benchmark repeats whole passes until the next one would
end after ``--seconds``, checks every output with the independent checks in
``checks.py``, and prints the metrics by name with their units. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Times are host seconds scaled by the machine's speed during the run: a fixed
reference kernel is timed between the passes, and every time is multiplied by
``REF_NOMINAL_S / median(kernel time)``. Host time on the shared machine this
was built on drifted by 20% between runs minutes apart, and the kernel drifted
with it; the scaled times drifted about a third as much.

``--trace 0`` reports the end-to-end metrics with no instrumentation.
``--trace 1`` wraps the program's layers (``spans.py``) and reports the
per-layer metrics instead. It alternates untraced and traced passes, whose
traces must have the same digests, and prints the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_BATCH_S = 0.05  # one set-up sample is the mean over a batch this long
SETUP_BATCHES = 8     # set-up batches before each pass, so they span the run
MIN_PASSES = 2
VERIFY_REPEATS = 3    # dump-and-verify tries per scenario in an untraced pass
REF_SAMPLES = 10      # reference-kernel timings before each pass and after the last
REF_NOMINAL_S = 0.02  # times are reported as if one kernel timing took this long
BID_SAMPLE = 60       # Bid events re-costed per scenario by the benchmark's BFS

# The reference kernel: BFS over a fixed 60x60 map with a wall, from four
# corners and inner cells. It is dict, set and deque work like the simulator's,
# and it is the benchmark's own code, so only the machine can change its speed.
_REF_FREE = {(x, y) for x in range(60) for y in range(60) if not (20 <= x < 40 and y == 30)}
_REF_ORIGINS = ((0, 0), (59, 59), (30, 10), (10, 50))


def reference_samples(count: int) -> list[float]:
    from checks import bfs_distances
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        for origin in _REF_ORIGINS:
            bfs_distances(_REF_FREE, origin)
        samples.append(time.perf_counter() - start)
    return samples


class Workload:
    """One workload's scenarios, written to disk and loaded back as configs."""

    def __init__(self, name: str, seed: int, gridswarm) -> None:
        from workloads import WORKLOADS
        self.gs = gridswarm
        self.name = name
        self.scenarios = WORKLOADS[name](seed)
        folder = OUT / name
        folder.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for idx, sc in enumerate(self.scenarios):
            path = folder / f"scenario-{idx:02d}.json"
            path.write_text(json.dumps(sc))
            self.paths.append(str(path))
        self.configs = [gridswarm.scenario.load_scenario(p) for p in self.paths]

    def setup_samples(self, batches: int) -> list[float]:
        """Per-scenario cost of load_scenario plus Simulation(config), one
        sample per batch of at least SETUP_BATCH_S."""
        samples = []
        for _ in range(batches):
            count = 0
            start = time.perf_counter()
            while True:
                for path in self.paths:  # both looked up per call, so a tracer sees them
                    self.gs.engine.Simulation(self.gs.scenario.load_scenario(path))
                    count += 1
                if time.perf_counter() - start >= SETUP_BATCH_S:
                    break
            samples.append((time.perf_counter() - start) / count)
        return samples

    def run_pass(self, outcome: "Outcome", label: str, verify_repeats: int = 1) -> dict:
        """Run every scenario once. Per scenario: host time of run(), and the
        median host time of dump plus verify over ``verify_repeats`` tries.
        Each trace is recorded and checked by ``outcome`` and dropped before
        the next scenario starts, so no trace outlives its scenario."""
        sims, verifies, metrics = [], [], []
        for idx, cfg in enumerate(self.configs):
            sim = self.gs.engine.Simulation(cfg)
            gc.collect()
            start = time.perf_counter()
            m, writer = sim.run()
            sims.append(time.perf_counter() - start)
            tries = []
            for _ in range(verify_repeats):
                text = None  # the previous try's trace goes before the next dump
                gc.collect()
                start = time.perf_counter()
                text = writer.dump()
                violations = self.gs.trace.verify_trace(text)
                tries.append(time.perf_counter() - start)
            verifies.append(statistics.median(tries))
            del sim, writer
            outcome.record(idx, m, text, violations, label)
            metrics.append(m)
            del text
        return {"sims": sims, "verifies": verifies, "metrics": metrics}


def pass_time(per_pass: list[list[float]]) -> float:
    """Host time of one pass: the sum over its scenarios of each one's median
    over the passes, so a slow spell in one pass moves only its median."""
    return sum(statistics.median(column) for column in zip(*per_pass))


class Outcome:
    """Operation counts, check errors and the reference digests of a run."""

    def __init__(self, workload: Workload) -> None:
        from checks import check_run
        self.check_run = check_run
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[Optional[str]] = [None] * len(workload.scenarios)
        self.failures: list[str] = []

    def record(self, idx: int, m, text: str, violations: list[str], label: str) -> None:
        """Count one scenario run. The first run of each scenario sets its
        reference digest and is checked; later runs must repeat the digest."""
        digest = self.wl.gs.trace.trace_digest(text)
        self.attempted += 1
        failed = bool(violations) or not m.completed
        self.failed += failed
        name = f"scenario {idx} (seed {self.wl.scenarios[idx]['seed']})"
        if self.digests[idx] is not None:
            if digest != self.digests[idx]:
                self.errors.append(f"{label} pass: {name} digest {digest[:16]} "
                                   f"differs from {self.digests[idx][:16]}")
            return
        self.digests[idx] = digest
        if failed:
            why = violations[0] if violations else f"incomplete after {m.rounds} rounds"
            self.failures.append(f"{name}: {why}")
            return
        for err in self.check_run(self.wl.scenarios[idx], text, m.makespan,
                                  m.job_waits, BID_SAMPLE, seed=idx):
            self.errors.append(f"{name}: {err}")


def outcome_metrics(metrics: list) -> dict[str, float]:
    """Simulated outcomes of one pass, from its scenarios' Metrics."""
    done = [m for m in metrics if m.completed]
    waits = [w[1] for m in metrics for w in m.job_waits.values() if w[1] is not None]
    return {"makespan_rounds": statistics.fmean(m.makespan for m in done) if done else 0.0,
            "job_wait_rounds": statistics.fmean(waits) if waits else 0.0}


def run_untraced(wl: Workload, seconds: float) -> tuple[Outcome, dict[str, float], list[float]]:
    outcome = Outcome(wl)
    clock_start = time.perf_counter()
    wl.setup_samples(1)  # warm-up
    refs, setups, sims, verifies = [], [], [], []
    first = None
    while True:
        start = time.perf_counter()
        refs += reference_samples(REF_SAMPLES)
        setups += wl.setup_samples(SETUP_BATCHES)
        res = wl.run_pass(outcome, "untraced", VERIFY_REPEATS)
        first = first or res
        sims.append(res["sims"])
        verifies.append(res["verifies"])
        took = time.perf_counter() - start
        if len(sims) >= MIN_PASSES and time.perf_counter() - clock_start + took > seconds:
            break
    refs += reference_samples(REF_SAMPLES)
    metrics = {"setup_s": statistics.median(setups), "sim_s": pass_time(sims),
               "verify_s": pass_time(verifies),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    metrics.update(outcome_metrics(first["metrics"]))
    print(f"# {len(sims)} passes of {len(wl.configs)} scenario(s); "
          f"unscaled sim_s per pass: {', '.join(f'{sum(s):.3f}' for s in sims)}")
    return outcome, metrics, refs


def run_traced(wl: Workload, seconds: float) -> tuple[Outcome, dict[str, float], list[float]]:
    """Untraced and traced passes alternate, so that the tracing overhead is
    a median over pairs of passes that ran close together in time."""
    from spans import Tracer
    outcome = Outcome(wl)
    clock_start = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    try:
        wl.setup_samples(1)  # warm-up
        tracer.reset()
        wl.setup_samples(2 * SETUP_BATCHES)
        parse_s = statistics.median(tracer.durations["scenario.load_scenario"])
        init_s = statistics.median(tracer.durations["engine.init"])
    finally:
        tracer.uninstall()
    per_pass: list[dict[str, float]] = []
    ratios: list[float] = []
    refs: list[float] = []
    while True:
        start = time.perf_counter()
        refs += reference_samples(REF_SAMPLES)
        untraced = sum(wl.run_pass(outcome, "untraced")["sims"])
        tracer.install()
        try:
            tracer.reset()
            res = wl.run_pass(outcome, "traced")
        finally:
            tracer.uninstall()
        per_pass.append(tracer.layer_metrics())
        ratios.append(sum(res["sims"]) / untraced)
        took = time.perf_counter() - start
        if len(per_pass) >= MIN_PASSES and time.perf_counter() - clock_start + took > seconds:
            break
    refs += reference_samples(REF_SAMPLES)
    OUT.mkdir(exist_ok=True)
    n_spans = tracer.write_spans(str(OUT / f"{wl.name}-spans.csv"))
    metrics = {"scenario.parse_s": parse_s, "engine.init_s": init_s}
    for name in per_pass[0]:
        metrics[name] = statistics.median(p[name] for p in per_pass)
    print(f"# {len(per_pass)} untraced/traced pass pairs; {n_spans} spans in the last traced "
          f"pass; tracing overhead (median of traced/untraced sim_s over the pairs) "
          f"{statistics.median(ratios) - 1:+.1%}; per pair: "
          f"{', '.join(f'{r - 1:+.1%}' for r in ratios)}")
    return outcome, metrics, refs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gridswarm" / "__init__.py").is_file():
        print(f"error: no gridswarm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import gridswarm.engine
    import gridswarm.scenario
    import gridswarm.trace
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    wl = Workload(args.workload, args.seed, gridswarm)
    run = run_traced if args.trace else run_untraced
    outcome, values, refs = run(wl, args.seconds)
    scale = REF_NOMINAL_S / statistics.median(refs)
    print(f"# reference kernel median {statistics.median(refs) * 1e3:.2f} ms: "
          f"times are scaled by {scale:.4f}")
    for failure in outcome.failures:
        print(f"# failed: {wl.name} {failure}")
    for err in outcome.errors:
        print(f"# check error: {wl.name} {err}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"error: measured {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 3
    report = {name: {"value": values[name] * scale if unit == "s" else values[name], "unit": unit}
              for name, unit in units.items()}
    for name, m in report.items():
        print(f"{wl.name} {name} {m['value']:.6g} {m['unit']}")
    result = {"correct": not outcome.errors, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": report}
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT / f"{wl.name}-result.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
