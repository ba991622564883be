"""Span recorder that times gridswarm's layers from outside the program.

``Tracer.install()`` replaces the public functions and methods the engine
looks up with wrappers that record one span per call (name, start, end,
parent) and update per-layer counters from the call's arguments and return
value. Nothing inside the program is edited and no private attribute is read.
``uninstall()`` puts the originals back.

A span's self time is its duration minus the time covered by its child
spans. Spans are kept in memory, one pass at a time; ``write_spans`` writes the
last pass out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Optional

Observer = Callable[[dict, tuple, dict, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[Optional[tuple[str, float, float, int]]] = []
        self._stack: list[list] = []  # [span index, child time]
        self._patches: list[tuple[object, str, Any]] = []
        self._keep_durations: set[str] = set()

    # -------------------------------------------------------------- records

    def reset(self) -> None:
        """Start a new pass: clear aggregates and the in-memory spans."""
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.durations.clear()
        self.counters.clear()
        self.spans = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        counters = self.counters
        keep = name in self._keep_durations

        def wrapper(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name, start, end, parent)
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[1]
                if keep:
                    self.durations[name].append(dur - frame[1])
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: object, attr: str, name: str,
              observe: Optional[Observer] = None, keep_durations: bool = False) -> None:
        original = getattr(owner, attr)
        if keep_durations:
            self._keep_durations.add(name)
        setattr(owner, attr, self.wrap(name, original, observe))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str) -> int:
        """Write the current pass's spans as CSV: name, start and end in
        microseconds from the first span, and the 0-based index of the
        parent span (-1: none)."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_us,end_us,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{(start - base) * 1e6:.1f},{(end - base) * 1e6:.1f},{parent}\n")
        return len(self.spans)

    # ------------------------------------------------------------ the layers

    def install(self) -> None:
        """Wrap every public function the engine (and the CLI's check) calls."""
        from gridswarm import balance, consensus, election, engine, jobs, netsim, planner
        from gridswarm import scenario, trace

        cost_keys: set[tuple[int, int]] = set()

        def on_run(c, args, kwargs, result):
            metrics = result[0]
            c["engine.rounds"] += metrics.rounds
            c["consensus.halted_ticks"] += metrics.ticks_halted
            cost_keys.clear()  # the next Simulation starts a new cost-field cache

        def on_publish(c, args, kwargs, result):
            if result is False:
                c["netsim.dropped"] += 1

        def on_step(c, args, kwargs, result):
            c["netsim.deliveries"] += len(result)

        def on_decision(c, args, kwargs, result):
            if isinstance(result, consensus.Wait):
                c["consensus.waits"] += 1
            else:
                c["consensus.zone_ticks"] += 1

        def on_elect(c, args, kwargs, result):
            c["election.candidacies"] += len(args[0])

        def on_cost(c, args, kwargs, result):
            # args: (cost field, position, job location); one Simulation runs
            # at a time, so a location names one cached field.
            location = tuple(args[2])
            if location not in cost_keys:
                cost_keys.add(location)
                c["jobs.fields"] += 1

        def on_plan(c, args, kwargs, result):
            if result is not None:
                c["planner.path_cells"] += len(result)

        def on_resolve(c, args, kwargs, result):
            c["planner.resolve_agents"] += len(args[0])
            for kind, _keeper, _yielder in kwargs.get("log") or ():
                if kind == "deadlock":
                    c["planner.deadlock_breaks"] += 1
                else:
                    c["planner.conflicts"] += 1

        def on_daisy(c, args, kwargs, result):
            c["balance.mandates"] += len(result[0])

        def on_emit(c, args, kwargs, result):
            kind = args[2]
            if kind == "MarkDead":
                c["consensus.mark_dead"] += 1
            elif kind == "Resync":
                c["consensus.resyncs"] += 1

        def on_dump(c, args, kwargs, result):
            c["trace.bytes"] += len(result)

        self.patch(scenario, "load_scenario", "scenario.load_scenario", keep_durations=True)
        self.patch(engine.Simulation, "__init__", "engine.init", keep_durations=True)
        self.patch(engine.Simulation, "run", "engine.run", on_run)
        self.patch(netsim.Bus, "publish", "netsim.publish", on_publish)
        self.patch(netsim.Bus, "step_deliver", "netsim.step_deliver", on_step)
        self.patch(consensus, "make_snapshot", "consensus.make_snapshot")
        self.patch(consensus.ZoneSnapshot, "digest", "consensus.digest")
        self.patch(consensus, "leader_tick_decision", "consensus.leader_tick_decision",
                   on_decision)
        self.patch(election, "elect_zone_leader", "election.elect_zone_leader", on_elect)
        self.patch(election, "centroid_distance", "election.centroid_distance")
        self.patch(jobs.CostField, "cost", "jobs.cost", on_cost)
        self.patch(planner, "plan_path", "planner.plan_path", on_plan)
        self.patch(planner, "resolve_zone_step", "planner.resolve_zone_step", on_resolve)
        self.patch(balance, "plan_daisy_chain", "balance.plan_daisy_chain", on_daisy)
        self.patch(balance, "nearest_free_cell", "balance.nearest_free_cell")
        # Imported into the engine by name, so they are looked up there.
        self.patch(engine, "subscribed_zones", "world.subscribed_zones")
        self.patch(engine, "home_zone", "world.home_zone")
        self.patch(trace.TraceWriter, "emit", "trace.emit", on_emit)
        self.patch(trace.TraceWriter, "dump", "trace.dump", on_dump)
        self.patch(trace, "parse_trace", "trace.parse_trace")
        self.patch(trace, "verify_trace", "trace.verify_trace")

    def layer_metrics(self) -> dict[str, float]:
        """Per-pass layer metrics from the aggregates of one traced pass."""
        n, t, s, c = self.calls, self.total_s, self.self_s, self.counters
        rounds = c["engine.rounds"] or 1
        cost_calls = n["jobs.cost"]
        return {
            "engine.self_s": s["engine.run"],
            "engine.rounds": c["engine.rounds"],
            "engine.bus_steps_per_round": n["netsim.step_deliver"] / rounds,
            "netsim.publish_calls": n["netsim.publish"],
            "netsim.publish_s": t["netsim.publish"],
            "netsim.dropped": c["netsim.dropped"],
            "netsim.deliveries": c["netsim.deliveries"],
            "netsim.step_s": t["netsim.step_deliver"],
            "netsim.deliveries_per_tick": c["netsim.deliveries"] / rounds,
            "consensus.snapshots": n["consensus.make_snapshot"],
            "consensus.digest_calls": n["consensus.digest"],
            "consensus.digest_s": t["consensus.digest"],
            "consensus.decisions": n["consensus.leader_tick_decision"],
            "consensus.waits": c["consensus.waits"],
            "consensus.zone_ticks": c["consensus.zone_ticks"],
            "consensus.mark_dead": c["consensus.mark_dead"],
            "consensus.resyncs": c["consensus.resyncs"],
            "consensus.halted_ticks": c["consensus.halted_ticks"],
            "election.elections": n["election.elect_zone_leader"],
            "election.candidacies": c["election.candidacies"],
            "election.s": t["election.elect_zone_leader"] + t["election.centroid_distance"],
            "jobs.cost_calls": cost_calls,
            "jobs.cost_s": t["jobs.cost"],
            "jobs.fields": c["jobs.fields"],
            "jobs.cache_hit_ratio": (cost_calls - c["jobs.fields"]) / cost_calls if cost_calls else 0.0,
            "planner.plan_calls": n["planner.plan_path"],
            "planner.plan_s": t["planner.plan_path"],
            "planner.path_cells": c["planner.path_cells"],
            "planner.resolve_calls": n["planner.resolve_zone_step"],
            "planner.resolve_agents": c["planner.resolve_agents"],
            "planner.resolve_s": t["planner.resolve_zone_step"],
            "planner.conflicts": c["planner.conflicts"],
            "planner.deadlock_breaks": c["planner.deadlock_breaks"],
            "balance.plan_calls": n["balance.plan_daisy_chain"],
            "balance.mandates": c["balance.mandates"],
            "balance.nearest_cell_calls": n["balance.nearest_free_cell"],
            "balance.nearest_cell_s": t["balance.nearest_free_cell"],
            "world.subscribed_calls": n["world.subscribed_zones"],
            "world.subscribed_s": t["world.subscribed_zones"],
            "world.home_zone_calls": n["world.home_zone"],
            "world.home_zone_s": t["world.home_zone"],
            "trace.events": n["trace.emit"],
            "trace.emit_s": t["trace.emit"],
            "trace.bytes": c["trace.bytes"],
            "trace.dump_s": t["trace.dump"],
            "trace.parse_s": t["trace.parse_trace"],
            "trace.verify_s": s["trace.verify_trace"],
        }
