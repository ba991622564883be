"""Scenario files: schema validation, loading, and seeded scenario generation."""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from typing import Any, Optional

from .jobs import CostField
from .netsim import BusConfig, derive_seed
from .planner import PlannerParams
from .world import Cell, GridMap, build_partition


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class FaultEvent:
    tick: int
    kind: str  # kill | revive | partition | heal
    agent: Optional[str] = None
    groups: tuple[frozenset[str], ...] = ()


@dataclass(frozen=True)
class JobSpec:
    spawn_tick: int
    location: Cell
    priority: float


@dataclass(frozen=True)
class ScenarioConfig:
    grid: GridMap
    rows: int
    cols: int
    overlap: int
    agents: tuple[tuple[str, Cell], ...]
    jobs: tuple[JobSpec, ...]
    network: BusConfig
    planner: PlannerParams
    timeout_steps: int
    balance_period: int
    seed: int
    max_ticks: int
    faults: tuple[FaultEvent, ...]


def _rect_cells(rects: list[list[int]]) -> set[Cell]:
    """The cells of the inclusive rectangles [x0, y0, x1, y1]."""
    return {Cell(x, y) for x0, y0, x1, y1 in rects
            for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)}


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


# Typed field readers. Each names the field by its JSON path in its error.

def _int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _number(value: Any, where: str) -> float:
    """A finite float. ``json`` reads NaN and Infinity, which no trace may
    hold, and integers too large for a float."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _list(value: Any, where: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return value


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    return value


def _cell(value: Any, where: str) -> Cell:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        raise ConfigError(f"{where}: expected [x, y] integer pair, got {value!r}")
    return Cell(*value)


def _groups(value: Any, where: str, known: set[str]) -> tuple[frozenset[str], ...]:
    """Disjoint groups of known agent ids."""
    groups: list[frozenset[str]] = []
    seen: set[str] = set()
    for i, g in enumerate(_list(value, where)):
        members = _list(g, f"{where}[{i}]")
        if not all(isinstance(m, str) for m in members):
            raise ConfigError(f"{where}[{i}]: expected a list of agent ids, got {g!r}")
        group = frozenset(members)
        if group - known:
            raise ConfigError(f"{where}[{i}]: unknown agents {sorted(group - known)}")
        if group & seen:
            raise ConfigError(f"{where}[{i}]: agents {sorted(group & seen)} are already "
                              f"in an earlier group; groups must be disjoint")
        seen |= group
        groups.append(group)
    return tuple(groups)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Strict parse; unknown keys anywhere are rejected."""
    _object(data, "scenario")
    _require_keys(data, {"map", "partition", "agents", "jobs", "network", "planner",
                         "consensus", "balance", "seed", "max_ticks", "faults"},
                  "scenario")
    m = _object(data.get("map"), "map")
    _require_keys(m, {"width", "height", "obstacles", "obstacle_rects"}, "map")
    width = _int(m.get("width", 0), "map.width")
    height = _int(m.get("height", 0), "map.height")
    obstacles = {_cell(c, "map.obstacles")
                 for c in _list(m.get("obstacles", []), "map.obstacles")}
    for idx, rect in enumerate(_list(m.get("obstacle_rects", []), "map.obstacle_rects")):
        where = f"map.obstacle_rects[{idx}]"
        if not (isinstance(rect, (list, tuple)) and len(rect) == 4):
            raise ConfigError(f"{where}: expected [x0,y0,x1,y1], got {rect!r}")
        x0, y0, x1, y1 = (_int(v, where) for v in rect)
        # Before the expansion, whose cost grows with the rect's area.
        if not (0 <= x0 < width and 0 <= x1 < width and 0 <= y0 < height and 0 <= y1 < height):
            raise ConfigError(f"{where}: corner off the {width}x{height} map in {rect!r}")
        obstacles |= _rect_cells([[x0, y0, x1, y1]])
    try:
        grid = GridMap(width=width, height=height, obstacles=frozenset(obstacles))
    except ValueError as exc:
        raise ConfigError(f"map: {exc}") from exc

    part = _object(data.get("partition", {}), "partition")
    _require_keys(part, {"rows", "cols", "overlap"}, "partition")
    rows = _int(part.get("rows", 1), "partition.rows")
    cols = _int(part.get("cols", 1), "partition.cols")
    overlap = _int(part.get("overlap", 1), "partition.overlap")
    try:
        build_partition(grid, rows, cols, overlap)
    except ValueError as exc:
        raise ConfigError(f"partition: {exc}") from exc

    agents: list[tuple[str, Cell]] = []
    seen_ids: set[str] = set()
    seen_cells: set[Cell] = set()
    for idx, a in enumerate(_list(data.get("agents", []), "agents")):
        a = _object(a, f"agents[{idx}]")
        _require_keys(a, {"id", "start"}, f"agents[{idx}]")
        aid = a.get("id")
        start = _cell(a.get("start"), f"agents[{idx}].start")
        if not isinstance(aid, str) or not aid:
            raise ConfigError(f"agents[{idx}]: id must be a non-empty string")
        if aid in seen_ids:
            raise ConfigError(f"agents[{idx}]: duplicate id {aid}")
        if aid in ("super", "controller"):
            raise ConfigError(f"agents[{idx}]: id {aid!r} is reserved")
        if not grid.is_free(start) or start in seen_cells:
            raise ConfigError(f"agents[{idx}]: start {start} not a distinct free cell")
        seen_ids.add(aid)
        seen_cells.add(start)
        agents.append((aid, start))

    jobs: list[JobSpec] = []
    for idx, j in enumerate(_list(data.get("jobs", []), "jobs")):
        j = _object(j, f"jobs[{idx}]")
        _require_keys(j, {"spawn_tick", "location", "priority"}, f"jobs[{idx}]")
        loc = _cell(j.get("location"), f"jobs[{idx}].location")
        if not grid.in_bounds(loc):
            raise ConfigError(f"jobs[{idx}]: location {loc} out of bounds")
        prio = _number(j.get("priority", 1.0), f"jobs[{idx}].priority")
        if prio <= 0:
            raise ConfigError(f"jobs[{idx}]: priority must be > 0")
        jobs.append(JobSpec(spawn_tick=_int(j.get("spawn_tick", 0), f"jobs[{idx}].spawn_tick"),
                            location=loc, priority=prio))

    net = _object(data.get("network", {}), "network")
    _require_keys(net, {"drop_prob", "delay_steps"}, "network")
    delay = net.get("delay_steps", 0)
    if isinstance(delay, (list, tuple)):
        if len(delay) != 2:
            raise ConfigError(
                f"network.delay_steps: expected an integer or [min, max], got {delay!r}")
        delay = (_int(delay[0], "network.delay_steps[0]"),
                 _int(delay[1], "network.delay_steps[1]"))
    else:
        delay = _int(delay, "network.delay_steps")
    drop_prob = _number(net.get("drop_prob", 0.0), "network.drop_prob")
    try:
        network = BusConfig(drop_prob=drop_prob, delay_steps=delay)
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc

    pl = _object(data.get("planner", {}), "planner")
    _require_keys(pl, {"deadlock_threshold", "ramp_cap"}, "planner")
    threshold = _int(pl.get("deadlock_threshold", 2), "planner.deadlock_threshold")
    ramp_cap = _int(pl.get("ramp_cap", 8), "planner.ramp_cap")
    try:
        planner = PlannerParams(deadlock_threshold=threshold, ramp_cap=ramp_cap)
    except ValueError as exc:
        raise ConfigError(f"planner: {exc}") from exc

    cons = _object(data.get("consensus", {}), "consensus")
    _require_keys(cons, {"timeout_steps"}, "consensus")
    timeout_steps = _int(cons.get("timeout_steps", 10), "consensus.timeout_steps")
    # An election closes timeout_steps bus steps after its solicit, and a
    # candidacy takes two deliveries (the solicit out, the candidacy back) of
    # at least max(1, least delay) steps each: a shorter timeout never elects.
    least = max(1, delay if isinstance(delay, int) else delay[0])
    if timeout_steps < 2 * least:
        raise ConfigError(f"consensus.timeout_steps must be >= {2 * least}, twice the "
                          f"least delivery time, got {timeout_steps}")

    bal = _object(data.get("balance", {}), "balance")
    _require_keys(bal, {"period"}, "balance")
    period = _int(bal.get("period", 10), "balance.period")
    if period < 1:
        raise ConfigError("balance.period must be >= 1")

    faults: list[FaultEvent] = []
    known_ids = {aid for aid, _ in agents}
    for idx, f in enumerate(_list(data.get("faults", []), "faults")):
        f = _object(f, f"faults[{idx}]")
        _require_keys(f, {"tick", "kind", "agent", "groups"}, f"faults[{idx}]")
        kind = f.get("kind")
        if kind not in ("kill", "revive", "partition", "heal"):
            raise ConfigError(f"faults[{idx}]: unknown kind {kind!r}")
        agent = f.get("agent")
        if agent is not None and not isinstance(agent, str):
            raise ConfigError(f"faults[{idx}].agent: expected an agent id, got {agent!r}")
        if kind in ("kill", "revive"):
            if agent not in known_ids:
                raise ConfigError(f"faults[{idx}]: unknown agent {agent!r}")
        elif "agent" in f:
            raise ConfigError(f"faults[{idx}].agent: a {kind} fault names no agent")
        if kind != "partition" and "groups" in f:
            raise ConfigError(f"faults[{idx}].groups: a {kind} fault has no groups")
        groups = _groups(f.get("groups", []), f"faults[{idx}].groups", known_ids)
        if kind == "partition" and not groups:
            raise ConfigError(f"faults[{idx}].groups: a partition needs at least one group")
        tick = _int(f.get("tick"), f"faults[{idx}].tick")
        if tick < 1:  # round 1 is the first round a fault can fire in
            raise ConfigError(f"faults[{idx}].tick: expected a round >= 1, got {tick}")
        faults.append(FaultEvent(tick=tick, kind=kind, agent=agent, groups=groups))
    faults.sort(key=lambda f: (f.tick, f.kind, f.agent or ""))

    max_ticks = _int(data.get("max_ticks", 1000), "max_ticks")
    if max_ticks < 1:
        raise ConfigError("max_ticks must be >= 1")

    return ScenarioConfig(grid=grid, rows=rows, cols=cols, overlap=overlap,
                          agents=tuple(agents), jobs=tuple(jobs), network=network,
                          planner=planner, timeout_steps=timeout_steps,
                          balance_period=period, seed=_int(data.get("seed", 0), "seed"),
                          max_ticks=max_ticks, faults=tuple(faults))


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    # ValueError covers undecodable bytes, bad JSON and over-long integers.
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(data)


# Shared by the scenario generators below.

def _free_cells(grid: GridMap) -> list[Cell]:
    """Every free cell, in (y, x) order."""
    return [Cell(x, y) for y in range(grid.height) for x in range(grid.width)
            if grid.is_free(Cell(x, y))]


def _free_connected(grid: GridMap) -> bool:
    free = _free_cells(grid)
    costs = CostField(grid)
    return bool(free) and all(costs.cost(c, free[0]) is not None for c in free)


def _draw_jobs(rng: random.Random, free: list[Cell], count: int,
               spawn_max: int) -> list[dict]:
    return [{"spawn_tick": rng.randint(0, spawn_max),
             "location": list(rng.choice(free)),
             "priority": round(rng.uniform(1.2, 3.0), 2)}
            for _ in range(count)]


def _scenario_dict(width: int, height: int, rects: list[list[int]], rows: int,
                   cols: int, starts: list[Cell], jobs: list[dict], network: dict,
                   seed: int, max_ticks: int) -> dict:
    return {
        "map": {"width": width, "height": height, "obstacle_rects": rects},
        "partition": {"rows": rows, "cols": cols, "overlap": 1},
        "agents": [{"id": f"a{i:02d}", "start": list(c)} for i, c in enumerate(starts)],
        "jobs": jobs,
        "network": network,
        "planner": {},
        "consensus": {"timeout_steps": 10},
        "balance": {"period": 10},
        "seed": seed,
        "max_ticks": max_ticks,
        "faults": [],
    }


def bench_scenario(n_agents: int, n_jobs: int, seed: int,
                   max_ticks: int = 5000) -> dict:
    """Fixed benchmark setup: 30x30 map, nine zones, rectangular obstacles.

    Agent starts and job placements are seeded; the obstacle layout is fixed
    so sweep cells are comparable.
    """
    rects = [[4, 4, 6, 6], [22, 4, 24, 6], [4, 22, 6, 24],
             [22, 22, 24, 24], [13, 13, 16, 16]]
    free = _free_cells(GridMap(30, 30, _rect_cells(rects)))
    if not 0 <= n_agents <= len(free):
        raise ConfigError(f"bench: {n_agents} agents do not fit on {len(free)} free cells")
    rng = random.Random(derive_seed(seed, "bench", n_agents, n_jobs))
    starts = rng.sample(free, n_agents)
    return _scenario_dict(30, 30, rects, 3, 3, starts, _draw_jobs(rng, free, n_jobs, 20),
                          {"drop_prob": 0.0, "delay_steps": 0}, seed, max_ticks)


def random_scenario(seed: int, *, max_agents: int = 12, max_jobs: int = 15,
                    max_side: int = 30, drop_prob: float = 0.0,
                    delay: int = 0, max_ticks: int = 300) -> dict:
    """Seeded random scenario as a plain config dict.

    Maps use rectangular obstacles and are regenerated until the free space
    is connected, so every spawned job is reachable.
    """
    rng = random.Random(derive_seed(seed, "scenario"))
    width = rng.randint(10, max_side)
    height = rng.randint(10, max_side)
    rows = rng.choice([1, 2, 3])
    cols = rng.choice([1, 2, 3])
    rows = min(rows, height // 4) or 1
    cols = min(cols, width // 4) or 1
    for _ in range(50):
        rects = []
        for _ in range(rng.randint(0, 4)):
            w = rng.randint(1, max(1, width // 5))
            h = rng.randint(1, max(1, height // 5))
            x0 = rng.randint(0, width - w)
            y0 = rng.randint(0, height - h)
            rects.append([x0, y0, x0 + w - 1, y0 + h - 1])
        grid = GridMap(width, height, _rect_cells(rects))
        if (_free_connected(grid)
                and width * height - len(grid.obstacles) >= 2 * max_agents):
            break
    else:
        rects = []
        grid = GridMap(width=width, height=height)

    free = _free_cells(grid)
    starts = rng.sample(free, rng.randint(2, max_agents))
    jobs = _draw_jobs(rng, free, rng.randint(1, max_jobs), 10)
    return _scenario_dict(width, height, rects, rows, cols, starts, jobs,
                          {"drop_prob": drop_prob, "delay_steps": delay}, seed, max_ticks)
