"""Seeded input generators for the benchmark's workloads.

They live here, not in ``gridswarm.scenario``, so that a change to the
program cannot change what the benchmark feeds it. Each generator returns
plain scenario dicts in the documented file format; the benchmark writes them
to disk and loads them back through ``gridswarm.load_scenario``.
"""

from __future__ import annotations

import hashlib
import random

# Obstacle rectangles of the standard 30x30 nine-zone benchmark map.
BENCH_RECTS = ([4, 4, 6, 6], [22, 4, 24, 6], [4, 22, 6, 24],
               [22, 22, 24, 24], [13, 13, 16, 16])

# Layouts (map, agent starts, jobs) are drawn once per workload from
# LAYOUT_SEED; --seed becomes the scenario's own seed, which drives the
# program's random streams (tie-break jitter, drops, delays). Layouts drawn
# per --seed moved the outcome too much to compare commits: over six
# open_floor layouts the makespan ran from 37 to 57 rounds and the host time
# from 5.7 s to 8.2 s. crowd's jitter never changes its trace, so there
# --seed also picks one of the eight symmetries of the square map and a
# relabelling of the agents, which keeps the amount of work.
LAYOUT_SEED = 0

# Scenario seeds of the lossy_faults pass. Fixed too, because the role-drop
# fault fails some of them every time (drops come from the scenario seed), so
# the failed share of a pass must not depend on --seed.
LOSSY_SEEDS = tuple(range(11))


def rng_for(*parts: object) -> random.Random:
    text = "\x1f".join(str(p) for p in parts)
    return random.Random(int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big"))


def _free_cells(width: int, height: int, rects) -> list[tuple[int, int]]:
    blocked = {(x, y) for x0, y0, x1, y1 in rects
               for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)}
    return [(x, y) for y in range(height) for x in range(width) if (x, y) not in blocked]


def _scenario(width, height, rects, rows, cols, n_agents, n_jobs, spawn_max,
              rng, seed, max_ticks, network=None, faults=()) -> dict:
    free = _free_cells(width, height, rects)
    starts = rng.sample(free, n_agents)
    jobs = [{"spawn_tick": rng.randint(0, spawn_max),
             "location": list(rng.choice(free)),
             "priority": round(rng.uniform(1.2, 3.0), 2)}
            for _ in range(n_jobs)]
    return {
        "map": {"width": width, "height": height, "obstacle_rects": [list(r) for r in rects]},
        "partition": {"rows": rows, "cols": cols, "overlap": 1},
        "agents": [{"id": f"a{i:03d}", "start": list(c)} for i, c in enumerate(starts)],
        "jobs": jobs,
        "network": network or {"drop_prob": 0.0, "delay_steps": 0},
        "planner": {},
        "consensus": {"timeout_steps": 10},
        "balance": {"period": 10},
        "seed": seed,
        "max_ticks": max_ticks,
        "faults": list(faults),
    }


def open_floor(seed: int) -> list[dict]:
    """60x60 open map, 4x4 zones, 120 agents, 200 jobs spawned over ticks 0-20."""
    return [_scenario(60, 60, (), 4, 4, 120, 200, 20, rng_for("open_floor", LAYOUT_SEED),
                      seed=seed, max_ticks=400)]


def crowd(seed: int) -> list[dict]:
    """36x36 map, 2x2 zones, 200 agents (about 50 per zone), 60 jobs over ticks 0-30."""
    sc = _scenario(36, 36, (), 2, 2, 200, 60, 30, rng_for("crowd", LAYOUT_SEED),
                   seed=seed, max_ticks=400)
    return [_symmetric(sc, seed)]


def _symmetric(sc: dict, seed: int) -> dict:
    """Apply symmetry seed % 8 of the square open map and shuffle the agent ids."""
    side = sc["map"]["width"]
    flip_x, flip_y, swap = seed & 1, seed & 2, seed & 4

    def move(cell: list[int]) -> list[int]:
        x, y = cell
        if swap:
            x, y = y, x
        return [side - 1 - x if flip_x else x, side - 1 - y if flip_y else y]

    starts = [move(a["start"]) for a in sc["agents"]]
    rng_for("crowd/ids", seed).shuffle(starts)
    sc["agents"] = [{"id": a["id"], "start": c} for a, c in zip(sc["agents"], starts)]
    for job in sc["jobs"]:
        job["location"] = move(job["location"])
    return sc


def lossy_scenario(scenario_seed: int) -> dict:
    """30x30 nine-zone map under 5% drops, 0-2 step delays, kills and a partition."""
    rng = rng_for("lossy_faults", scenario_seed)
    sc = _scenario(30, 30, BENCH_RECTS, 3, 3, 30, 50, 20, rng,
                   seed=scenario_seed, max_ticks=400,
                   network={"drop_prob": 0.05, "delay_steps": [0, 2]})
    ids = [a["id"] for a in sc["agents"]]
    faults = []
    for agent in rng.sample(ids, 4):
        tick = rng.randint(5, 40)
        faults.append({"tick": tick, "kind": "kill", "agent": agent})
        faults.append({"tick": tick + 8, "kind": "revive", "agent": agent})
    tick = rng.randint(10, 40)
    faults.append({"tick": tick, "kind": "partition", "groups": [sorted(rng.sample(ids, 6))]})
    faults.append({"tick": tick + 6, "kind": "heal"})
    sc["faults"] = faults
    return sc


def lossy_faults(seed: int) -> list[dict]:
    """The fixed LOSSY_SEEDS set; --seed only decides the order of a pass."""
    order = list(LOSSY_SEEDS)
    rng_for("lossy_faults/order", seed).shuffle(order)
    return [lossy_scenario(s) for s in order]


WORKLOADS = {"open_floor": open_floor, "crowd": crowd, "lossy_faults": lossy_faults}
