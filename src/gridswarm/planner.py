"""Path planning and force-based cooperative conflict resolution.

Base paths come from A* with the Manhattan heuristic over the map's
neighbour table; `blocked` cells count as obstacles. Two agents can conflict
in a tick (vertex, edge, static) only if one intends the other's cell or
both intend the same cell, so the resolver finds every conflicting pair and
every blocker in one pass over the agents intending each cell, joined with
the cell map. Of a conflicting pair, the agent that `rank` puts second
(lower priority, ties to the higher id) recomputes its intent from a
piecewise force law, and agents stuck `DEADLOCK_THRESHOLD` rounds in a
blocking cycle ramp their force exponentially with their stuck counter (the
exponent capped at `RAMP_CAP`) until the cycle breaks. The same rank orders
the final reservation pass. A group where no agent intends another's cell
or shares an intent skips it: each intent stands unless the map or `blocked`
forbids it.
"""

from __future__ import annotations

import heapq
import math
import random
from enum import Enum
from itertools import combinations
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


DEADLOCK_THRESHOLD = 2
RAMP_CAP = 8


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


def compute_force(i: KinematicState, j: KinematicState, grid: GridMap,
                  rng: random.Random, deadlock: bool = False,
                  blocked: Container[Cell] = ()) -> tuple[float, float]:
    """Piecewise force on agent `i`, which gives way to `j` in a conflict.

    Align with j's direction scaled by own priority plus a random safe escape
    scaled by j's priority. Under deadlock the own-priority factor is ramped
    to priority**stuck (exponent capped). The scale is arbitrary:
    quantize_move reads only the sign and order of dot products.
    """
    p_i = i.priority ** min(i.stuck, RAMP_CAP) if deadlock else i.priority
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


def _contacts(info: dict[str, KinematicState], occ: dict[Cell, str]
              ) -> tuple[dict[str, KinematicState], list[tuple[str, str]]]:
    """The blocking map and the sorted pairs that can conflict, over the
    states in `info` (by agent).

    A pair can conflict only if one agent intends the other's cell or both
    intend the same cell, so one pass over the agents intending each cell,
    joined with the cell's occupant, finds every such pair and every blocker.
    """
    entrants: dict[Cell, list[str]] = {}
    for s in info.values():
        entrants.setdefault(s.intent, []).append(s.agent)
    blockers: dict[str, KinematicState] = {}
    pairs: set[tuple[str, str]] = set()
    for cell, group in entrants.items():
        here = occ.get(cell)
        if here is not None:
            for a in group:
                if a != here:
                    blockers[a] = info[here]
            if here not in group:
                group.append(here)
        if len(group) > 1:
            pairs.update(combinations(sorted(group), 2))
    return blockers, sorted(pairs)


def _matured_cycles(blockers: dict[str, KinematicState]) -> set[str]:
    """Agents with a job whose stuck counter has reached `DEADLOCK_THRESHOLD`
    inside a cycle of the blocking map (agent -> the state of the agent on the
    cell it intends). Intents are single cells and positions are distinct, so
    the map is a functional graph and cycles are found by pointer chasing."""
    on_cycle: set[str] = set()
    seen: set[str] = set()
    for node in blockers:
        trail = []
        while node in blockers and node not in seen:
            seen.add(node)
            trail.append(node)
            node = blockers[node].agent
        if node in trail:
            on_cycle.update(trail[trail.index(node):])
    # Every agent on a cycle blocks the one before it, so its state is a value.
    return {b.agent for b in blockers.values()
            if b.agent in on_cycle and b.stuck >= DEADLOCK_THRESHOLD and b.has_job}


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


def rank(priority: float, agent: str) -> tuple[float, str]:
    """Sort key of the swarm's one rank rule: higher priority first, ties to
    the lower agent id. It picks the keeper of a conflicting pair, orders
    both reservation passes and picks the tick used in a zone overlap."""
    return (-priority, agent)


def resolve_zone_step(states: list[KinematicState], grid: GridMap,
                      rng_for: Callable[[str], random.Random],
                      log: Optional[list] = None,
                      blocked: Collection[Cell] = ()) -> dict[str, Cell]:
    """Resolve one tick of movement for a set of co-located agents.

    Returns a collision-free intent per agent: no two intents share a cell,
    none enters a cell in `blocked`, and no pair swaps cells. The member of
    a conflicting pair that `rank` puts second recomputes its intent from
    the force law; agents in matured blocking cycles use the deadlock
    branch; anything still unsafe waits. A group where no agent intends
    another's cell or shares an intent skips the reservation pass: each
    agent keeps its intent if that is its own cell or a free map cell
    outside `blocked`, and waits otherwise.
    """
    info = {s.agent: s for s in states}
    occ = {s.current: s.agent for s in states}
    if len(occ) != len(states):
        raise ValueError("agents must occupy distinct cells")
    for s in states:
        if not grid.in_bounds(s.current):
            raise ValueError(f"agent {s.agent} at {s.current} is off the map")
    blockers, pairs = _contacts(info, occ)
    if not pairs:
        # No one intends another's cell or shares an intent, so no one gives
        # way and the reservation pass would test each intent on its own.
        return {s.agent: s.intent if s.intent == s.current or (
                    grid.is_free(s.intent) and s.intent not in blocked) else s.current
                for s in states}
    proposal = {s.agent: s.intent for s in states}
    taken = occ.keys() | blocked if blocked else occ  # no yielder steps onto these
    deadlocked = _matured_cycles(blockers)

    def give_way(yielder: KinematicState, keeper: KinematicState, deadlock: bool,
                 tag: str) -> None:
        force = compute_force(yielder, keeper, grid, rng_for(yielder.agent),
                              deadlock=deadlock, blocked=blocked)
        # taken still holds the yielder's own cell; quantize_move never tests it.
        proposal[yielder.agent] = quantize_move(force, yielder.current, grid, taken)
        if log is not None:
            log.append((tag, keeper.agent, yielder.agent))

    for ai, aj in pairs:
        si, sj = info[ai], info[aj]
        kind = classify_conflict(si, sj)
        if kind in (ConflictKind.VERTEX, ConflictKind.EDGE, ConflictKind.STATIC):
            keeper, yielder = ((si, sj) if rank(si.priority, ai) < rank(sj.priority, aj)
                               else (sj, si))
            give_way(yielder, keeper, yielder.agent in deadlocked, kind.value)

    # Matured blocking cycles get the ramped branch even without a pairwise
    # conflict (a rotation cycle classifies as no-conflict on every pair).
    for agent in sorted(deadlocked):
        give_way(info[agent], blockers[agent], True, "deadlock")

    # Final reservation pass, in rank order.
    order = [(s.agent, s.current)
             for s in sorted(states, key=lambda s: rank(s.priority, s.agent))]
    final = reserve_moves(order, proposal, occ, grid, blocked)

    # Safety: distinct targets and no swaps.
    assert len(set(final.values())) == len(final)
    for a, t in final.items():
        here = info[a].current
        if t != here:
            back = occ.get(t)
            assert not (back is not None and final.get(back) == here)
    return final
