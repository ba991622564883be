"""Output checks the benchmark computes apart from the program.

Each check takes the scenario dict the benchmark generated and the trace
events (parsed here with ``json``, not with ``gridswarm.parse_trace``), and
returns a list of error strings; an empty list means the output is correct.
None of them calls into gridswarm.
"""

from __future__ import annotations

import json
import random
from collections import deque
from typing import Optional

Cell = tuple[int, int]


def parse_events(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def free_cells(scenario: dict) -> set[Cell]:
    m = scenario["map"]
    blocked = set(tuple(c) for c in m.get("obstacles", []))
    for x0, y0, x1, y1 in m.get("obstacle_rects", []):
        blocked.update((x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1))
    return {(x, y) for x in range(m["width"]) for y in range(m["height"])
            if (x, y) not in blocked}


def bfs_distances(free: set[Cell], origin: Cell) -> dict[Cell, int]:
    dist = {origin: 0}
    queue = deque([origin])
    while queue:
        x, y = cur = queue.popleft()
        for nxt in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
            if nxt in free and nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def _by_tick(events: list[dict]) -> list[tuple[int, list[dict]]]:
    out: dict[int, list[dict]] = {}
    for e in events:
        out.setdefault(e["tick"], []).append(e)
    return sorted(out.items())


def check_motion(scenario: dict, events: list[dict]) -> list[str]:
    """No shared cell at any tick, no swaps, and every move is one free step
    from where the agent was. Positions come from StatePublish and Move."""
    free = free_cells(scenario)
    pos: dict[str, Cell] = {a["id"]: tuple(a["start"]) for a in scenario["agents"]}
    errors: list[str] = []
    for tick, evs in _by_tick(events):
        moves: dict[str, tuple[Cell, Cell]] = {}
        for e in evs:
            if e["kind"] == "StatePublish":
                cell = tuple(e["position"])
                if cell != pos[e["actor"]]:
                    errors.append(f"tick {tick}: {e['actor']} published {list(cell)} "
                                  f"but stands on {list(pos[e['actor']])}")
                pos[e["actor"]] = cell
            elif e["kind"] == "Move":
                src, dst = tuple(e["src"]), tuple(e["dst"])
                if src != pos[e["actor"]]:
                    errors.append(f"tick {tick}: {e['actor']} moved from {list(src)} "
                                  f"but stood on {list(pos[e['actor']])}")
                if abs(src[0] - dst[0]) + abs(src[1] - dst[1]) != 1 or dst not in free:
                    errors.append(f"tick {tick}: {e['actor']} step {list(src)}->{list(dst)} "
                                  "is not one free cell")
                pos[e["actor"]] = dst
                moves[e["actor"]] = (src, dst)
        holder: dict[Cell, str] = {}
        for agent in sorted(pos):
            cell = pos[agent]
            if cell in holder:
                errors.append(f"tick {tick}: {holder[cell]} and {agent} share {list(cell)}")
            holder[cell] = agent
        ends = {(src, dst): agent for agent, (src, dst) in moves.items()}
        for agent, (src, dst) in sorted(moves.items()):
            other = ends.get((dst, src))
            if other is not None and agent < other:
                errors.append(f"tick {tick}: {agent} and {other} swap {list(src)}-{list(dst)}")
    return errors


def check_jobs(scenario: dict, events: list[dict], makespan: Optional[int],
               job_waits: dict[str, tuple]) -> list[str]:
    """Every accepted JobSpawn has exactly one Complete, made by an agent on
    the job's cell; the makespan and the per-job waits match the trace."""
    pos: dict[str, Cell] = {a["id"]: tuple(a["start"]) for a in scenario["agents"]}
    spawned: dict[str, tuple[Cell, int]] = {}
    completed: dict[str, int] = {}
    errors: list[str] = []
    for e in events:
        kind = e["kind"]
        if kind == "StatePublish":
            pos[e["actor"]] = tuple(e["position"])
        elif kind == "Move":
            pos[e["actor"]] = tuple(e["dst"])
        elif kind == "JobSpawn" and not e["rejected"]:
            spawned[e["job"]] = (tuple(e["location"]), e["tick"])
        elif kind == "Complete":
            job = e["job"]
            if job not in spawned:
                errors.append(f"tick {e['tick']}: {job} completed but never spawned")
                continue
            if job in completed:
                errors.append(f"tick {e['tick']}: {job} completed twice")
            completed[job] = e["tick"]
            if pos[e["agent"]] != spawned[job][0]:
                errors.append(f"tick {e['tick']}: {e['agent']} completed {job} at "
                              f"{list(pos[e['agent']])}, job is at {list(spawned[job][0])}")
    for job in sorted(set(spawned) - set(completed)):
        errors.append(f"{job} spawned but never completed")
    if spawned and completed:
        expected = max(completed.values()) - min(t for _, t in spawned.values())
        if makespan != expected:
            errors.append(f"makespan {makespan}, trace says {expected}")
    for job, tick in sorted(completed.items()):
        wait = job_waits.get(job, (None, None))[1]
        if job in spawned and wait != tick - spawned[job][1]:
            errors.append(f"{job}: wait {wait}, trace says {tick - spawned[job][1]}")
    return errors


def check_bids(scenario: dict, events: list[dict], sample: int, seed: int) -> list[str]:
    """A seeded sample of Bid costs equals the shortest-path length from the
    bidder's position at that point of the trace to the job (None if cut off)."""
    free = free_cells(scenario)
    pos: dict[str, Cell] = {a["id"]: tuple(a["start"]) for a in scenario["agents"]}
    where: dict[str, Cell] = {}
    bids: list[tuple[int, str, str, Optional[int], Cell]] = []
    for e in events:
        kind = e["kind"]
        if kind == "StatePublish":
            pos[e["actor"]] = tuple(e["position"])
        elif kind == "Move":
            pos[e["actor"]] = tuple(e["dst"])
        elif kind == "JobSpawn" and not e["rejected"]:
            where[e["job"]] = tuple(e["location"])
        elif kind == "Bid":
            bids.append((e["tick"], e["actor"], e["job"], e["cost"], pos[e["actor"]]))
    chosen = random.Random(seed).sample(bids, min(sample, len(bids)))
    fields: dict[Cell, dict[Cell, int]] = {}
    errors: list[str] = []
    for tick, agent, job, cost, cell in sorted(chosen):
        target = where[job]
        if target not in fields:
            fields[target] = bfs_distances(free, target)
        expected = fields[target].get(cell)
        if cost != expected:
            errors.append(f"tick {tick}: {agent} bid {cost} for {job} from {list(cell)}, "
                          f"shortest path is {expected}")
    return errors


def check_run(scenario: dict, text: str, makespan: Optional[int],
              job_waits: dict[str, tuple], bid_sample: int, seed: int) -> list[str]:
    events = parse_events(text)
    return (check_motion(scenario, events)
            + check_jobs(scenario, events, makespan, job_waits)
            + check_bids(scenario, events, bid_sample, seed))
