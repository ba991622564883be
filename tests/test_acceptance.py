"""End-to-end acceptance checks.

Each test prints one `criterion NN PASS/FAIL` line so the suite doubles as a
scorecard. The corpus-based checks share one run of 200 seeded scenarios.
"""

import importlib.util
import math
import random
import time
from collections import deque
from functools import cmp_to_key
from pathlib import Path

import pytest

from gridswarm import planner
from gridswarm.engine import run_scenario
from gridswarm.planner import (DEADLOCK_THRESHOLD, RAMP_CAP, ConflictKind,
                               KinematicState, classify_conflict, plan_path, rank,
                               resolve_zone_step)
from gridswarm.scenario import bench_scenario, random_scenario, scenario_from_dict
from gridswarm.trace import parse_trace, verify_trace
from gridswarm.world import Cell, GridMap

CORPUS_SIZE = 200


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


@pytest.fixture(scope="module")
def corpus():
    """200 seeded scenario runs: (seed, metrics, violations, elapsed total)."""
    results = []
    start = time.perf_counter()
    for seed in range(CORPUS_SIZE):
        kwargs = {}
        if seed % 4 == 1:
            kwargs = {"drop_prob": 0.02, "delay": 1}
        sc = random_scenario(seed, max_agents=30, max_jobs=50, max_ticks=200,
                             **kwargs)
        metrics, trace = run_scenario(scenario_from_dict(sc))
        results.append((seed, metrics, verify_trace(trace.dump())))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_01_safety_suite(corpus):
    results, elapsed = corpus
    unsafe = [(seed, v) for seed, _m, viol in results
              for v in viol if "vertex violation" in v or "edge swap" in v]
    collisions = sum(m.collisions for _s, m, _v in results)
    ok = not unsafe and collisions == 0 and elapsed < 120
    report(1, "no vertex violations or edge swaps across corpus", ok,
           f"{len(results)} scenarios, {elapsed:.1f}s, {len(unsafe)} unsafe")


def test_criterion_02_snapshot_agreement(corpus):
    results, _ = corpus
    mismatches = [(seed, v) for seed, _m, viol in results
                  for v in viol if "snapshot disagreement" in v]
    report(2, "committed snapshots agree per zone-tick", not mismatches,
           f"{len(mismatches)} mismatches")


def _isolation_scenario(seed):
    base = {
        "map": {"width": 12, "height": 6},
        "partition": {"rows": 1, "cols": 2},
        "agents": [{"id": "a00", "start": [2, 3]},
                   {"id": "a01", "start": [4, 1]},
                   {"id": "a02", "start": [9, 3]},
                   {"id": "a03", "start": [7, 4]}],
        "jobs": [{"spawn_tick": 0, "location": [1, 1], "priority": 2.0},
                 {"spawn_tick": 10, "location": [5, 5], "priority": 1.6},
                 {"spawn_tick": 25, "location": [10, 0], "priority": 1.8},
                 {"spawn_tick": 32, "location": [0, 5], "priority": 2.1}],
        "network": {}, "planner": {}, "consensus": {"timeout_steps": 10},
        "balance": {"period": 10}, "seed": seed, "max_ticks": 300, "faults": [],
    }
    return base


def test_criterion_03_cp_halt_on_leader_isolation():
    failures = []
    for seed in range(10):
        base = _isolation_scenario(seed)
        _, probe = run_scenario(scenario_from_dict(base))
        leader = next(e["leader"] for e in parse_trace(probe.dump())
                      if e["kind"] == "Election" and e["zone"] == [0, 0])
        # isolate for 5 rounds; each blocked round burns >= timeout bus steps,
        # comfortably past 5x the 10-step timeout
        base["faults"] = [{"tick": 4, "kind": "partition", "groups": [[leader]]},
                          {"tick": 9, "kind": "heal"}]
        metrics, trace = run_scenario(scenario_from_dict(base))
        viol = verify_trace(trace.dump())
        snap = [v for v in viol if "snapshot disagreement" in v]
        if not (metrics.ticks_halted > 0 and metrics.completed and not snap):
            failures.append((seed, metrics.ticks_halted, metrics.completed,
                             len(snap)))
    report(3, "isolated leader halts its zone, heal recovers, jobs finish",
           not failures, f"failures: {failures}")


def test_criterion_04_kill_revive_resync():
    base = _isolation_scenario(99)
    k = 3
    base["faults"] = [{"tick": k, "kind": "kill", "agent": "a01"},
                      {"tick": k + 20, "kind": "revive", "agent": "a01"}]
    metrics, trace = run_scenario(scenario_from_dict(base))
    events = parse_trace(trace.dump())
    viol = verify_trace(trace.dump())
    resyncs = [e for e in events if e["kind"] == "Resync" and e["actor"] == "a01"
               and e["tick"] >= k + 20]
    broadcast_ticks = {e["new_tick"] for e in events
                       if e["kind"] == "TickBroadcast" and e["zone"] == [0, 0]}
    adopted_ok = bool(resyncs) and resyncs[0]["resync_tick"] in broadcast_ticks
    ok = metrics.completed and adopted_ok and not viol
    report(4, "killed agent rejoins at the leader's tick and snapshot", ok,
           f"completed={metrics.completed} resyncs={len(resyncs)} viol={len(viol)}")


def test_criterion_05_population_sweep():
    start = time.perf_counter()
    failures = []
    for n_agents in (5, 10, 20, 30):
        for n_jobs in (10, 20, 30, 40, 50):
            metrics, _ = run_scenario(
                scenario_from_dict(bench_scenario(n_agents, n_jobs, seed=11)))
            if not metrics.completed or metrics.collisions != 0:
                failures.append((n_agents, n_jobs, metrics.completed,
                                 metrics.collisions))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300
    report(5, "30x30 nine-zone sweep completes all cells collision-free", ok,
           f"{elapsed:.1f}s, failures: {failures}")


def _oracle_classify(ci, ii, cj, ij):
    if ii == cj and ij == ci:
        return ConflictKind.EDGE
    if (ii == cj and ij == cj) or (ij == ci and ii == ci):
        return ConflictKind.STATIC
    if ii == ij:
        return ConflictKind.VERTEX
    if ii == ci:
        return ConflictKind.WAIT
    return ConflictKind.NONE


def test_criterion_06_classifier_oracle():
    cells = [Cell(x, y) for x in range(3) for y in range(3)]
    mismatches = 0
    cases = 0
    for ci in cells:
        for cj in cells:
            if ci == cj:
                continue
            for ii in cells:
                for ij in cells:
                    cases += 1
                    got = classify_conflict(
                        KinematicState("a", ci, ii), KinematicState("b", cj, ij))
                    if got is not _oracle_classify(ci, ii, cj, ij):
                        mismatches += 1
    report(6, "conflict classifier matches exhaustive enumeration",
           mismatches == 0, f"{cases} cases, {mismatches} mismatches")


def _bfs(grid, start, goal):
    if start == goal:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        cur, d = queue.popleft()
        for n in grid.free_neighbors(cur):
            if n == goal:
                return d + 1
            if n not in seen:
                seen.add(n)
                queue.append((n, d + 1))
    return None


def test_criterion_07_astar_oracle():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(1000):
        w, h = rng.randint(2, 15), rng.randint(2, 15)
        obstacles = frozenset(Cell(x, y) for x in range(w) for y in range(h)
                              if rng.random() < 0.3)
        free = [Cell(x, y) for x in range(w) for y in range(h)
                if Cell(x, y) not in obstacles]
        if len(free) < 2:
            continue
        grid = GridMap(width=w, height=h, obstacles=obstacles)
        start, goal = rng.sample(free, 2)
        path = plan_path(grid, start, goal)
        dist = _bfs(grid, start, goal)
        if (path is None) != (dist is None):
            mismatches += 1
        elif path is not None and len(path) - 1 != dist:
            mismatches += 1
    report(7, "planned path lengths equal shortest-path distances",
           mismatches == 0, f"1000 maps, {mismatches} mismatches")


def test_criterion_08_deadlock_liveness():
    grid = GridMap(width=5, height=5)
    budget = DEADLOCK_THRESHOLD + RAMP_CAP
    assert budget == 10
    failed_seeds = []
    for seed in range(100):
        positions = {"a": Cell(1, 1), "b": Cell(2, 1),
                     "c": Cell(2, 2), "d": Cell(1, 2)}
        rotation = {"a": "b", "b": "c", "c": "d", "d": "a"}
        stuck = dict.fromkeys(positions, 0)
        moved = False
        for _ in range(budget):
            states = [KinematicState(agent=aid, current=positions[aid],
                                     intent=positions[rotation[aid]],
                                     priority=1.5, stuck=stuck[aid], has_job=True)
                      for aid in sorted(positions)]
            def rng_for(agent, _seed=seed):
                return random.Random(f"{_seed}:{agent}")
            final = resolve_zone_step(states, grid, rng_for)
            if any(final[aid] != positions[aid] for aid in positions):
                moved = True
                break
            for aid in positions:
                stuck[aid] += 1
        if not moved:
            failed_seeds.append(seed)
    report(8, "force ramping breaks the 4-agent rotation deadlock",
           not failed_seeds, f"100 seeds, stuck: {failed_seeds}")


def test_criterion_09_resolution_scaling(monkeypatch):
    """Ops of one resolver call, counted from outside it: two per agent (the
    contact scan and the reservation pass), one per pair classified, four per
    logged give-way and one per comparison of the rank sort."""
    classified = []

    def counted_classify(i, j):
        classified.append(None)
        return classify_conflict(i, j)

    monkeypatch.setattr(planner, "classify_conflict", counted_classify)
    points = []
    for g in (8, 64, 512):
        side = max(4, math.isqrt(2 * g) + 1)
        grid = GridMap(width=side, height=side)
        states = []
        placed = 0
        for y in range(side):
            for x in range(side):
                if placed >= g:
                    break
                cur = Cell(x, y)
                intent = Cell(x + 1, y) if grid.is_free(Cell(x + 1, y)) else cur
                states.append(KinematicState(agent=f"a{placed:04d}", current=cur,
                                             intent=intent, priority=1.0 + placed % 3,
                                             stuck=placed % 4, has_job=True))
                placed += 1
        classified.clear()
        log = []
        resolve_zone_step(states, grid, lambda a: random.Random(a), log=log)
        compared = []

        def by_rank(a, b):
            compared.append(None)
            return -1 if rank(a.priority, a.agent) < rank(b.priority, b.agent) else 1

        sorted(states, key=cmp_to_key(by_rank))
        ops = 2 * len(states) + len(classified) + 4 * len(log) + len(compared)
        points.append((g * math.log2(g), ops))
    xs = [math.log(b) for b, _ in points]
    ys = [math.log(o) for _, o in points]
    mx, my = sum(xs) / 3, sum(ys) / 3
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs)
    report(9, "conflict-resolution ops scale near G log G", slope <= 1.25,
           f"slope={slope:.3f} points={[(round(b), o) for b, o in points]}")


# Bound on the k=8 / k=2 ratio of host microseconds per agent-round in the
# weak-scaling scenarios (scripts/weak_scaling.py). On a shared 2-vCPU VM under
# Python 3.11, seven runs of this test gave 1.19-1.50 with zone-local kernels,
# and three gave 2.86-2.90 with the whole-map ones they replaced.
WEAK_SCALING_BOUND = 2.0


def test_criterion_12_weak_scaling():
    path = Path(__file__).resolve().parent.parent / "scripts" / "weak_scaling.py"
    spec = importlib.util.spec_from_file_location("weak_scaling", path)
    weak_scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(weak_scaling)
    scenarios = {k: weak_scaling.scale_scenario(k) for k in (2, 8)}

    def us_per_agent_round(k):
        config = scenario_from_dict(scenarios[k])
        start = time.perf_counter()
        metrics, _ = run_scenario(config)
        return 1e6 * (time.perf_counter() - start) / (metrics.rounds * len(config.agents))

    # Best of each, with the short k=2 runs spread around the two long ones
    # so that a slow spell of the machine hits both sizes.
    small, large = [], []
    for block in range(3):
        small += [us_per_agent_round(2) for _ in range(4)]
        if block < 2:
            large.append(us_per_agent_round(8))
    ratio = min(large) / min(small)
    report(12, "cost per agent-round stays flat as zones, map and swarm grow",
           ratio <= WEAK_SCALING_BOUND,
           f"k=2 {min(small):.1f} us, k=8 {min(large):.1f} us, ratio {ratio:.2f} "
           f"<= {WEAK_SCALING_BOUND}")


def test_criterion_10_digest_determinism():
    mismatched = []
    for pair in range(20):
        seed = 100 + pair
        kwargs = {"drop_prob": 0.05, "delay": 1} if pair % 2 else {}
        sc = random_scenario(seed, **kwargs)
        d1 = run_scenario(scenario_from_dict(sc))[1].digest()
        d2 = run_scenario(scenario_from_dict(sc))[1].digest()
        if d1 != d2:
            mismatched.append(seed)
    report(10, "identical seeds produce identical trace digests",
           not mismatched, f"20 pairs, mismatched: {mismatched}")


def test_criterion_11_load_balancing_improvement():
    # every job lands in the north-west zone; one agent starts in each zone
    agents = [{"id": f"a{r}{c}", "start": [15 * c + 7, 15 * r + 7]}
              for r in range(3) for c in range(3)]
    rng = random.Random(5)
    jobs = [{"spawn_tick": 0,
             "location": [rng.randint(0, 14), rng.randint(0, 14)],
             "priority": round(rng.uniform(1.2, 3.0), 2)} for _ in range(12)]
    cfg = scenario_from_dict({
        "map": {"width": 45, "height": 45},
        "partition": {"rows": 3, "cols": 3},
        "agents": agents, "jobs": jobs,
        "network": {}, "planner": {}, "consensus": {},
        "balance": {"period": 5},
        "seed": 5, "max_ticks": 600, "faults": [],
    })
    metrics, _ = run_scenario(cfg)
    h = metrics.deficit_history
    peak = h.index(max(h)) if h else 0
    tail = h[peak:]
    monotone = all(a >= b for a, b in zip(tail, tail[1:]))
    ok = (metrics.completed and metrics.migrations > 0 and bool(h)
          and monotone and tail[-1] == 0)
    report(11, "max zone deficit decays to zero with migrations", ok,
           f"history={h} migrations={metrics.migrations} "
           f"completed={metrics.completed}")
