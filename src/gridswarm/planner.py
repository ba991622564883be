"""Path planning and force-based cooperative conflict resolution.

Base paths come from A* with the Manhattan heuristic over the map's
neighbour table; `blocked` cells count as obstacles. Per-tick movement
conflicts between agents (vertex, edge, static) are resolved by a piecewise
force law: the lower-priority agent of a conflicting pair recomputes its
intent from a force vector, and agents stuck in a blocking cycle ramp their
force exponentially with their stuck counter until the cycle breaks.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Collection, Container, NamedTuple, Optional

from .world import Cell, DIRECTIONS, GridMap


class ConflictKind(Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    STATIC = "static"
    WAIT = "wait"
    NONE = "none"


class KinematicState(NamedTuple):
    agent: str
    current: Cell
    intent: Cell
    priority: float = 1.0
    stuck: int = 0
    has_job: bool = False


@dataclass(frozen=True)
class PlannerParams:
    deadlock_threshold: int = 2
    ramp_cap: int = 8

    def __post_init__(self) -> None:
        if self.deadlock_threshold < 1 or self.ramp_cap < 1:
            raise ValueError("thresholds must be >= 1")


class OpCounter:
    """Counts elementary conflict-resolution operations for scaling checks."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def tick(self, k: int = 1) -> None:
        self.n += k


def manhattan(a: Cell, b: Cell) -> int:
    return abs(a.x - b.x) + abs(a.y - b.y)


def plan_path(grid: GridMap, start: Cell, goal: Cell,
              blocked: Collection[Cell] = ()) -> Optional[list[Cell]]:
    """Shortest 4-connected path around obstacles and `blocked` cells, or
    None if there is none (so also if `blocked` holds the start or goal).

    Open-list ties break on (f, h, y, x), the flat index y * width + x
    ordering cells as (y, x) does, so plans are deterministic.
    """
    start, goal = Cell(*start), Cell(*goal)
    if not grid.is_free(start) or not grid.is_free(goal):
        raise ValueError("start and goal must be free cells")
    if start in blocked or goal in blocked:
        return None
    if start == goal:
        return [start]
    w = grid.width
    table = grid.neighbor_table
    skip = {c.y * w + c.x for c in blocked}
    gx, gy = goal
    s, t = start.y * w + start.x, gy * w + gx
    h0 = manhattan(start, goal)
    open_heap: list[tuple[int, int, int]] = [(h0, h0, s)]
    g_score = {s: 0}
    parent: dict[int, int] = {}
    closed: set[int] = set()
    while open_heap:
        _f, _h, i = heapq.heappop(open_heap)
        if i in closed:
            continue
        if i == t:
            path = [goal]
            while i in parent:
                i = parent[i]
                path.append(Cell(i % w, i // w))
            path.reverse()
            return path
        closed.add(i)
        ng = g_score[i] + 1
        for j in table[i]:
            if ng < g_score.get(j, ng + 1) and j not in skip:
                g_score[j] = ng
                parent[j] = i
                nh = abs(j % w - gx) + abs(j // w - gy)
                heapq.heappush(open_heap, (ng + nh, nh, j))
    return None


def classify_conflict(i: KinematicState, j: KinematicState) -> ConflictKind:
    """Pairwise conflict taxonomy over current cells and next-step intents.

    Precedence on simultaneous matches is Edge > Static > Vertex. The static
    case is recognized from either side of the pair (one agent intruding on a
    stationary one) so that vertex/edge results stay symmetric.
    """
    if i.agent == j.agent:
        raise ValueError("conflict classification needs two distinct agents")
    if i.intent == j.current and j.intent == i.current:
        return ConflictKind.EDGE
    if (i.intent == j.current and j.intent == j.current) or (
            j.intent == i.current and i.intent == i.current):
        return ConflictKind.STATIC
    if i.intent == j.intent:
        return ConflictKind.VERTEX
    if i.intent == i.current:
        return ConflictKind.WAIT
    return ConflictKind.NONE


def _unit_dir(state: KinematicState) -> tuple[float, float]:
    dx = state.intent.x - state.current.x
    dy = state.intent.y - state.current.y
    norm = math.hypot(dx, dy)
    if norm == 0:
        return (0.0, 0.0)
    return (dx / norm, dy / norm)


def random_safe_vector(state: KinematicState, grid: GridMap, rng: random.Random,
                       blocked: Container[Cell] = ()) -> tuple[float, float]:
    """Unit vector toward a seeded-uniform free 4-neighbor, avoiding the
    contested cell (the agent's own intent) and the cells in `blocked`.

    Zero vector when no safe neighbor exists.
    """
    options = [n for n in grid.free_neighbors(state.current)
               if n != state.intent and n not in blocked]
    if not options:
        return (0.0, 0.0)
    pick = options[rng.randrange(len(options))]
    return (float(pick.x - state.current.x), float(pick.y - state.current.y))


def compute_force(i: KinematicState, j: Optional[KinematicState],
                  conflict: ConflictKind, params: PlannerParams, grid: GridMap,
                  rng: random.Random, deadlock: bool = False,
                  blocked: Container[Cell] = ()) -> tuple[float, float]:
    """Piecewise force on agent `i`.

    No conflict: follow own intent direction. Conflict with `j`: align with
    j's direction scaled by own priority plus a random safe escape scaled by
    j's priority. Under deadlock the own-priority factor is ramped to
    priority**stuck (exponent capped). The scale is arbitrary: quantize_move
    reads only the sign and order of dot products.
    """
    if j is None or conflict in (ConflictKind.NONE, ConflictKind.WAIT):
        return _unit_dir(i)
    p_i = i.priority ** min(i.stuck, params.ramp_cap) if deadlock else i.priority
    jdx, jdy = _unit_dir(j)
    rx, ry = random_safe_vector(i, grid, rng, blocked=blocked)
    return (p_i * jdx + j.priority * rx, p_i * jdy + j.priority * ry)


def quantize_move(force: tuple[float, float], current: Cell, grid: GridMap,
                  occupied: Container[Cell]) -> Cell:
    """Map a force vector to the admissible move maximizing the dot product.

    Waiting scores 0; ties resolve in N, E, S, W, wait order. A zero force
    always waits. Only the four neighbours of `current` are tested against
    `occupied`, never `current` itself.
    """
    fx, fy = force
    if fx == 0 and fy == 0:
        return current
    best: Optional[Cell] = None
    best_score = 0.0
    for d in DIRECTIONS:
        target = Cell(current.x + d.x, current.y + d.y)
        if not grid.is_free(target) or target in occupied:
            continue
        score = fx * d.x + fy * d.y
        if score < 0:
            continue
        if best is None or score > best_score:
            best, best_score = target, score
    return best if best is not None else current


def _blockers(states: list[KinematicState]) -> dict[str, KinematicState]:
    """The agent whose current cell each agent intends to enter, if any."""
    by_cell = {s.current: s for s in states}
    out = {}
    for s in states:
        b = by_cell.get(s.intent)
        if b is not None and b.agent != s.agent:
            out[s.agent] = b
    return out


def detect_deadlock(states: list[KinematicState], threshold: int) -> set[str]:
    """Agents whose stuck counter has matured inside a cycle of blocking relations.

    Agent i blocks j iff j intends i's current cell; since intents are single
    cells and positions are distinct, the blocking relation is a functional
    graph and cycles are found by pointer chasing.
    """
    info = {s.agent: s for s in states}
    succ = {a: b.agent for a, b in _blockers(states).items()}
    on_cycle: set[str] = set()
    color: dict[str, int] = {}  # 0 visiting, 1 done
    for a in sorted(info):
        if a in color:
            continue
        trail = []
        node: Optional[str] = a
        while node is not None and node not in color:
            color[node] = 0
            trail.append(node)
            node = succ.get(node)
        if node is not None and color.get(node) == 0:
            on_cycle.update(trail[trail.index(node):])
        for t in trail:
            color[t] = 1
    return {a for a in on_cycle
            if info[a].stuck >= threshold and info[a].has_job}


def reserve_moves(order: list[tuple[str, Cell]], proposal: dict[str, Cell],
                  occ: dict[Cell, str], grid: GridMap,
                  blocked: Collection[Cell] = ()) -> dict[str, Cell]:
    """Commit each (agent, current cell) in `order` to its proposed cell or
    to its current one.

    An agent may enter a cell only if it is free on the map, not in
    `blocked`, not yet reserved, and either empty or left by an occupant
    that has already committed elsewhere. Earlier agents in `order` win;
    waiting is always safe, and swaps are excluded outright.
    """
    final: dict[str, Cell] = {}
    reserved: set[Cell] = set(blocked)
    for agent, current in order:
        target = proposal[agent]
        ok = target == current or (
            grid.is_free(target)
            and target not in reserved
            and (target not in occ
                 or (occ[target] in final and final[occ[target]] != target)))
        if not ok:
            target = current
        final[agent] = target
        reserved.add(target)
    return final


def _rank_key(s: KinematicState) -> tuple[float, str]:
    # Higher priority first; ties keep the lower agent id ahead.
    return (-s.priority, s.agent)


class _Ranked:
    """Sort wrapper that counts every comparison of the rank sort."""

    __slots__ = ("s", "ops")

    def __init__(self, s: KinematicState, ops: OpCounter) -> None:
        self.s = s
        self.ops = ops

    def __lt__(self, other: "_Ranked") -> bool:
        self.ops.tick()
        return _rank_key(self.s) < _rank_key(other.s)


# Cell offsets within Manhattan distance 2: the only pairs that can interact,
# since intents move at most one cell.
_NEAR = tuple((dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)
              if abs(dx) + abs(dy) <= 2)


def resolve_zone_step(states: list[KinematicState], grid: GridMap,
                      params: PlannerParams,
                      rng_for: Callable[[str], random.Random],
                      counter: Optional[OpCounter] = None,
                      log: Optional[list] = None,
                      blocked: Collection[Cell] = ()) -> dict[str, Cell]:
    """Resolve one tick of movement for a set of co-located agents.

    Returns a collision-free intent per agent: no two intents share a cell,
    none enters a cell in `blocked`, and no pair swaps cells. Lower-priority
    members of conflicting pairs recompute their intent from the force law;
    agents in matured blocking cycles use the deadlock branch; anything
    still unsafe waits.
    """
    ops = counter or OpCounter()
    info = {s.agent: s for s in states}
    proposal = {s.agent: s.intent for s in states}
    cur_of = {s.agent: s.current for s in states}
    occ = {s.current: s.agent for s in states}
    if len(occ) != len(states):
        raise ValueError("agents must occupy distinct cells")
    taken = occ.keys() | blocked if blocked else occ  # no yielder steps onto these
    # Flat indices on the map padded by two cells on every side, so that no
    # offset in _NEAR wraps from one row into the next.
    w, h = grid.width, grid.height
    pw = w + 4
    at: dict[int, str] = {}
    for s in states:
        x, y = s.current
        if not (0 <= x < w and 0 <= y < h):
            raise ValueError(f"agent {s.agent} at {s.current} is off the map")
        at[(y + 2) * pw + x + 2] = s.agent

    deadlocked = detect_deadlock(states, params.deadlock_threshold)
    ops.tick(len(states))

    # Nearby pairs only (see _NEAR).
    steps = [dy * pw + dx for dx, dy in _NEAR]
    ops.tick(len(steps) * len(states))
    pairs: list[tuple[str, str]] = []
    for s in states:
        x, y = s.current
        base = (y + 2) * pw + x + 2
        for step in steps:
            other = at.get(base + step)
            if other is not None and other > s.agent:
                pairs.append((s.agent, other))
    pairs.sort()

    def yield_order(a: KinematicState, b: KinematicState) -> tuple[KinematicState, KinematicState]:
        # Returns (keeper, yielder): lower priority yields, ties yield the higher id.
        if (a.priority, b.agent) > (b.priority, a.agent):
            return a, b
        return b, a

    def give_way(yielder: KinematicState, keeper: KinematicState, kind: ConflictKind,
                 deadlock: bool, tag: ConflictKind | str) -> None:
        force = compute_force(yielder, keeper, kind, params, grid,
                              rng_for(yielder.agent), deadlock=deadlock, blocked=blocked)
        # taken still holds the yielder's own cell; quantize_move never tests it.
        proposal[yielder.agent] = quantize_move(force, yielder.current, grid, taken)
        ops.tick(4)
        if log is not None:
            log.append((tag, keeper.agent, yielder.agent))

    for ai, aj in pairs:
        si, sj = info[ai], info[aj]
        kind = classify_conflict(si, sj)
        ops.tick()
        if kind in (ConflictKind.VERTEX, ConflictKind.EDGE, ConflictKind.STATIC):
            keeper, yielder = yield_order(si, sj)
            give_way(yielder, keeper, kind, yielder.agent in deadlocked, kind)

    # Matured blocking cycles get the ramped branch even without a pairwise
    # conflict (a rotation cycle classifies as no-conflict on every pair).
    blockers = _blockers(states)
    for agent in sorted(deadlocked):
        if agent in blockers:
            give_way(info[agent], blockers[agent], ConflictKind.STATIC, True, "deadlock")

    # Final reservation pass, in priority rank order. _rank_key is unique per
    # agent, so counting the comparisons leaves the order as it is.
    if counter is None:
        ranked = sorted(states, key=_rank_key)
    else:
        ranked = [r.s for r in sorted(_Ranked(s, counter) for s in states)]
    order = [(s.agent, s.current) for s in ranked]
    ops.tick(len(order))
    final = reserve_moves(order, proposal, occ, grid, blocked)

    # Safety: distinct targets and no swaps.
    assert len(set(final.values())) == len(final)
    for a, t in final.items():
        if t != cur_of[a]:
            back = occ.get(t)
            assert not (back is not None and final.get(back) == cur_of[a])
    return final
