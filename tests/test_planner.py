import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gridswarm.planner import (ConflictKind, KinematicState, OpCounter,
                               PlannerParams, classify_conflict, compute_force,
                               manhattan, plan_path, quantize_move,
                               random_safe_vector, resolve_zone_step)
from gridswarm.world import Cell, GridMap


def ks(agent, cur, intent=None, priority=1.0, stuck=0, has_job=False):
    return KinematicState(agent=agent, current=Cell(*cur),
                          intent=Cell(*(intent if intent is not None else cur)),
                          priority=priority, stuck=stuck, has_job=has_job)


def bfs_distance(grid, start, goal):
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


# ---------------------------------------------------------------- path planning

def test_plan_path_straight_line():
    grid = GridMap(width=5, height=1)
    assert plan_path(grid, Cell(0, 0), Cell(4, 0)) == [
        Cell(0, 0), Cell(1, 0), Cell(2, 0), Cell(3, 0), Cell(4, 0)]


def test_plan_path_start_equals_goal():
    grid = GridMap(width=3, height=3)
    assert plan_path(grid, Cell(1, 1), Cell(1, 1)) == [Cell(1, 1)]


def test_plan_path_routes_around_wall():
    grid = GridMap(width=5, height=5,
                   obstacles=frozenset({Cell(2, y) for y in range(4)}))
    path = plan_path(grid, Cell(0, 0), Cell(4, 0))
    assert path[0] == Cell(0, 0) and path[-1] == Cell(4, 0)
    assert len(path) - 1 == bfs_distance(grid, Cell(0, 0), Cell(4, 0))
    assert all(manhattan(a, b) == 1 for a, b in zip(path, path[1:]))


def test_plan_path_unreachable_returns_none():
    grid = GridMap(width=5, height=1, obstacles=frozenset({Cell(2, 0)}))
    assert plan_path(grid, Cell(0, 0), Cell(4, 0)) is None


def test_plan_path_rejects_blocked_endpoints():
    grid = GridMap(width=3, height=3, obstacles=frozenset({Cell(1, 1)}))
    with pytest.raises(ValueError):
        plan_path(grid, Cell(1, 1), Cell(0, 0))
    with pytest.raises(ValueError):
        plan_path(grid, Cell(0, 0), Cell(1, 1))


def test_plan_path_deterministic():
    grid = GridMap(width=8, height=8)
    p1 = plan_path(grid, Cell(0, 0), Cell(7, 7))
    p2 = plan_path(grid, Cell(0, 0), Cell(7, 7))
    assert p1 == p2


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_astar_length_equals_bfs(data):
    w = data.draw(st.integers(2, 10))
    h = data.draw(st.integers(2, 10))
    density = data.draw(st.floats(0, 0.35))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    obstacles = frozenset(Cell(x, y) for x in range(w) for y in range(h)
                          if rng.random() < density)
    free = [Cell(x, y) for x in range(w) for y in range(h)
            if Cell(x, y) not in obstacles]
    if len(free) < 2:
        return
    grid = GridMap(width=w, height=h, obstacles=obstacles)
    start, goal = rng.sample(free, 2)
    path = plan_path(grid, start, goal)
    dist = bfs_distance(grid, start, goal)
    if dist is None:
        assert path is None
    else:
        assert path is not None and len(path) - 1 == dist


def pocket_map(data):
    """A small map walled into pockets, some of them sealed, and a seeded rng."""
    w = data.draw(st.integers(3, 12))
    h = data.draw(st.integers(3, 12))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    walls = set()
    for _ in range(rng.randint(0, 3)):
        x0, y0 = rng.randrange(w - 2), rng.randrange(h - 2)
        x1, y1 = rng.randint(x0 + 2, w - 1), rng.randint(y0 + 2, h - 1)
        ring = [Cell(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)
                if x in (x0, x1) or y in (y0, y1)]
        if rng.random() < 0.6:  # a door into the pocket
            ring.remove(rng.choice(ring))
        walls.update(ring)
    return GridMap(width=w, height=h, obstacles=frozenset(walls)), rng


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_plan_path_with_blocked_cells_matches_a_map_with_them_as_obstacles(data):
    grid, rng = pocket_map(data)
    free = [Cell(x, y) for y in range(grid.height) for x in range(grid.width)
            if grid.is_free(Cell(x, y))]
    if not free:
        return
    start, goal = rng.choice(free), rng.choice(free)
    density = data.draw(st.sampled_from([0.0, 0.1, 0.3]))
    blocked = {c for c in free if c not in (start, goal) and rng.random() < density}
    if data.draw(st.booleans()):
        blocked.add(goal)
    path = plan_path(grid, start, goal, blocked)
    if goal in blocked:
        assert path is None
    else:
        walled = GridMap(width=grid.width, height=grid.height,
                         obstacles=grid.obstacles | blocked)
        assert path == plan_path(walled, start, goal)


def test_plan_path_is_none_when_blocked_holds_the_start_or_cuts_the_way():
    grid = GridMap(width=4, height=1)
    assert plan_path(grid, Cell(0, 0), Cell(3, 0), {Cell(0, 0)}) is None
    assert plan_path(grid, Cell(0, 0), Cell(0, 0), {Cell(0, 0)}) is None
    assert plan_path(grid, Cell(0, 0), Cell(3, 0), {Cell(2, 0)}) is None
    assert plan_path(grid, Cell(0, 0), Cell(1, 0), {Cell(2, 0)}) == [Cell(0, 0), Cell(1, 0)]


# ------------------------------------------------------- conflict classification

def test_classify_edge_swap():
    i = ks("a", (0, 0), (1, 0))
    j = ks("b", (1, 0), (0, 0))
    assert classify_conflict(i, j) is ConflictKind.EDGE


def test_classify_static_both_directions():
    mover = ks("a", (0, 0), (1, 0))
    parked = ks("b", (1, 0))
    assert classify_conflict(mover, parked) is ConflictKind.STATIC
    assert classify_conflict(parked, mover) is ConflictKind.STATIC


def test_classify_vertex():
    i = ks("a", (0, 0), (1, 0))
    j = ks("b", (2, 0), (1, 0))
    assert classify_conflict(i, j) is ConflictKind.VERTEX


def test_classify_wait_and_none():
    assert classify_conflict(ks("a", (0, 0)), ks("b", (3, 3), (3, 4))) is ConflictKind.WAIT
    assert classify_conflict(ks("a", (0, 0), (0, 1)),
                             ks("b", (3, 3), (3, 4))) is ConflictKind.NONE


def test_classify_requires_distinct_agents():
    with pytest.raises(ValueError):
        classify_conflict(ks("a", (0, 0)), ks("a", (1, 1)))


@given(st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_classify_symmetric_for_blocking_kinds(ci, ii, cj, ij):
    if ci == cj:
        return
    a = ks("a", ci, ii)
    b = ks("b", cj, ij)
    ab = classify_conflict(a, b)
    ba = classify_conflict(b, a)
    blocking = {ConflictKind.EDGE, ConflictKind.STATIC, ConflictKind.VERTEX}
    assert (ab in blocking) == (ba in blocking)
    if ab in blocking:
        assert ab is ba


# ---------------------------------------------------------------- force algebra

def test_deadlock_ramp_amplifies_with_stuck():
    params = PlannerParams(ramp_cap=8)
    grid = GridMap(width=9, height=9)
    j = ks("b", (4, 5), (5, 5))  # blocker moving east
    magnitudes = []
    for stuck in (1, 3, 6):
        i = ks("a", (4, 4), (4, 5), priority=2.0, stuck=stuck, has_job=True)
        fx, fy = compute_force(i, j, params, grid, random.Random(0), deadlock=True)
        magnitudes.append(abs(fx) + abs(fy))
    assert magnitudes == sorted(magnitudes)
    assert magnitudes[0] < magnitudes[-1]


def test_deadlock_ramp_caps():
    params = PlannerParams(ramp_cap=3)
    grid = GridMap(width=9, height=9)
    j = ks("b", (4, 5), (5, 5))
    outs = set()
    for stuck in (3, 5, 50):
        i = ks("a", (4, 4), (4, 5), priority=2.0, stuck=stuck, has_job=True)
        outs.add(compute_force(i, j, params, grid, random.Random(0), deadlock=True))
    assert len(outs) == 1


def test_random_safe_vector_avoids_contested():
    grid = GridMap(width=3, height=3)
    s = ks("a", (1, 1), (2, 1))
    for seed in range(20):
        vx, vy = random_safe_vector(s, grid, random.Random(seed))
        assert (vx, vy) != (1.0, 0.0)  # never toward the contested cell
        assert abs(vx) + abs(vy) == 1.0


def test_random_safe_vector_zero_when_boxed_in():
    grid = GridMap(width=3, height=1,
                   obstacles=frozenset({Cell(0, 0)}))
    s = ks("a", (1, 0), (2, 0))
    assert random_safe_vector(s, grid, random.Random(0)) == (0.0, 0.0)


# -------------------------------------------------------------- move quantizing

def test_quantize_picks_best_dot_product():
    grid = GridMap(width=5, height=5)
    assert quantize_move((0.0, 1.0), Cell(2, 2), grid, set()) == Cell(2, 3)
    assert quantize_move((-1.0, 0.2), Cell(2, 2), grid, set()) == Cell(1, 2)


def test_quantize_blocked_preferred_direction_takes_orthogonal():
    # force points north, north is blocked, east scores zero but beats waiting
    grid = GridMap(width=5, height=5, obstacles=frozenset({Cell(2, 3)}))
    assert quantize_move((0.0, 1.0), Cell(2, 2), grid, set()) == Cell(3, 2)


def test_quantize_zero_force_waits():
    grid = GridMap(width=5, height=5)
    assert quantize_move((0.0, 0.0), Cell(2, 2), grid, set()) == Cell(2, 2)


def test_quantize_waits_when_every_move_scores_negative():
    grid = GridMap(width=5, height=5,
                   obstacles=frozenset({Cell(2, 3), Cell(3, 2), Cell(1, 2)}))
    # only south is open and the force points north
    assert quantize_move((0.0, 1.0), Cell(2, 2), grid, {Cell(2, 1)}) == Cell(2, 2)


def test_quantize_tie_order_north_first():
    grid = GridMap(width=5, height=5)
    # diagonal force ties north and east; N comes first in the order
    assert quantize_move((1.0, 1.0), Cell(2, 2), grid, set()) == Cell(2, 3)


# ------------------------------------------------------------- zone resolution

def rng_factory(seed):
    def rng_for(agent):
        return random.Random((seed, agent).__hash__())
    return rng_for


# ------------------------------------------------------------ deadlock detection

def rotation_square(stuck=2, has_job=True, priority=1.5):
    return [
        ks("a", (1, 1), (2, 1), priority, stuck, has_job),
        ks("b", (2, 1), (2, 2), priority, stuck, has_job),
        ks("c", (2, 2), (1, 2), priority, stuck, has_job),
        ks("d", (1, 2), (1, 1), priority, stuck, has_job),
    ]


def deadlocked(states, threshold=2):
    """The yielders of the "deadlock" entries resolve_zone_step logs."""
    log = []
    resolve_zone_step(states, GridMap(width=5, height=5),
                      PlannerParams(deadlock_threshold=threshold), rng_factory(0), log=log)
    return {yielder for tag, _keeper, yielder in log if tag == "deadlock"}


def test_detects_rotation_cycle():
    assert deadlocked(rotation_square()) == {"a", "b", "c", "d"}


def test_threshold_gates_detection():
    assert deadlocked(rotation_square(stuck=1)) == set()


def test_idle_agents_not_flagged():
    assert deadlocked(rotation_square(has_job=False)) == set()


def test_chain_without_cycle_not_flagged():
    states = [ks("a", (0, 0), (1, 0), stuck=5, has_job=True),
              ks("b", (1, 0), (2, 0), stuck=5, has_job=True),
              ks("c", (2, 0), (3, 0), stuck=5, has_job=True)]
    assert deadlocked(states) == set()


def test_two_agent_swap_cycle_detected():
    states = [ks("a", (0, 0), (1, 0), stuck=3, has_job=True),
              ks("b", (1, 0), (0, 0), stuck=3, has_job=True)]
    assert deadlocked(states) == {"a", "b"}


def test_resolution_keeps_higher_priority_intent():
    grid = GridMap(width=6, height=6)
    states = [ks("hi", (1, 2), (2, 2), priority=3.0),
              ks("lo", (3, 2), (2, 2), priority=1.0)]
    final = resolve_zone_step(states, grid, PlannerParams(), rng_factory(0))
    assert final["hi"] == Cell(2, 2)
    assert final["lo"] != Cell(2, 2)


def test_resolution_priority_tie_keeps_lower_id():
    grid = GridMap(width=6, height=6)
    states = [ks("b", (1, 2), (2, 2)), ks("a", (3, 2), (2, 2))]
    final = resolve_zone_step(states, grid, PlannerParams(), rng_factory(0))
    assert final["a"] == Cell(2, 2)
    assert final["b"] != Cell(2, 2)


def test_resolution_never_swaps():
    grid = GridMap(width=6, height=1)
    states = [ks("a", (2, 0), (3, 0)), ks("b", (3, 0), (2, 0))]
    final = resolve_zone_step(states, grid, PlannerParams(), rng_factory(1))
    assert not (final["a"] == Cell(3, 0) and final["b"] == Cell(2, 0))


def test_yielder_vacates_corridor_cell():
    # high-priority mover bears down on a parked agent in a width-1 corridor
    # that has a single side pocket; the parked agent must clear the lane
    grid = GridMap(width=5, height=2,
                   obstacles=frozenset({Cell(0, 1), Cell(1, 1), Cell(3, 1), Cell(4, 1)}))
    mover = ks("m", (1, 0), (2, 0), priority=3.0)
    parked = ks("p", (2, 0))
    moved_somewhere = set()
    for seed in range(10):
        final = resolve_zone_step([mover, parked], grid, PlannerParams(),
                                  rng_factory(seed))
        # the mover holds until the cell is free; the parked agent clears it
        assert final["p"] != Cell(2, 0)
        moved_somewhere.add(final["p"])
    # across seeds the escape uses the pocket and/or the corridor ahead
    assert moved_somewhere <= {Cell(2, 1), Cell(3, 0)}
    assert moved_somewhere


def test_resolution_is_deterministic():
    grid = GridMap(width=8, height=8)
    states = [ks("a", (1, 1), (2, 1), 2.0), ks("b", (2, 1), (2, 2), 1.0),
              ks("c", (3, 1), (2, 1), 1.5), ks("d", (2, 2), (2, 1), 1.0)]
    r1 = resolve_zone_step(states, grid, PlannerParams(), rng_factory(5))
    r2 = resolve_zone_step(states, grid, PlannerParams(), rng_factory(5))
    assert r1 == r2


def test_op_counter_accumulates():
    grid = GridMap(width=8, height=8)
    states = [ks("a", (1, 1), (2, 1)), ks("b", (2, 1), (3, 1))]
    counter = OpCounter()
    resolve_zone_step(states, grid, PlannerParams(), rng_factory(0), counter)
    assert counter.n > 0


def test_resolution_rejects_agents_off_the_map():
    grid = GridMap(width=4, height=4)
    for cell in ((-1, 0), (4, 2), (0, -3), (1, 6)):
        with pytest.raises(ValueError, match="off the map"):
            resolve_zone_step([ks("a", (1, 1)), ks("b", cell)], grid,
                              PlannerParams(), rng_factory(0))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_resolution_same_with_and_without_op_counter(data):
    """Counting the rank sort's comparisons changes neither the moves nor
    the conflict log; agents stand anywhere, map edges included."""
    w = data.draw(st.integers(2, 9))
    h = data.draw(st.integers(2, 9))
    grid = GridMap(width=w, height=h)
    cells = [Cell(x, y) for x in range(w) for y in range(h)]
    currents = data.draw(st.lists(st.sampled_from(cells), min_size=2,
                                  max_size=min(12, len(cells)), unique=True))
    states = [KinematicState(
        agent=f"a{idx:02d}", current=cur,
        intent=data.draw(st.sampled_from([cur] + grid.free_neighbors(cur))),
        priority=data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
        stuck=data.draw(st.integers(0, 5)), has_job=data.draw(st.booleans()))
        for idx, cur in enumerate(currents)]
    seed = data.draw(st.integers(0, 99))
    plain_log, counted_log = [], []
    plain = resolve_zone_step(states, grid, PlannerParams(), rng_factory(seed),
                              log=plain_log)
    counter = OpCounter()
    counted = resolve_zone_step(states, grid, PlannerParams(), rng_factory(seed),
                                counter, log=counted_log)
    assert plain == counted
    assert plain_log == counted_log
    assert counter.n > 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_resolution_log_matches_classifying_every_pair(data):
    """The resolver logs, in order, exactly the vertex, edge and static
    conflicts that classifying every sorted pair of agents finds, so its
    candidate search misses none. Agents stand anywhere, map edges and
    cells beside blocked ones included, and ids follow no list order."""
    w = data.draw(st.integers(2, 6))
    h = data.draw(st.integers(1, 6))
    grid = GridMap(width=w, height=h)
    cells = [Cell(x, y) for y in range(h) for x in range(w)]
    currents = data.draw(st.lists(st.sampled_from(cells), min_size=2,
                                  max_size=min(12, len(cells)), unique=True))
    rest = [c for c in cells if c not in currents]
    blocked = set(data.draw(st.lists(st.sampled_from(rest), unique=True))) if rest else set()
    ids = data.draw(st.permutations(range(len(currents))))
    states = [KinematicState(
        agent=f"a{ids[idx]:02d}", current=cur,
        intent=data.draw(st.sampled_from([cur] + grid.free_neighbors(cur))),
        priority=data.draw(st.sampled_from([1.0, 1.5, 2.0])),
        stuck=data.draw(st.integers(0, 4)), has_job=data.draw(st.booleans()))
        for idx, cur in enumerate(currents)]
    log = []
    resolve_zone_step(states, grid, PlannerParams(), rng_factory(data.draw(st.integers(0, 99))),
                      log=log, blocked=blocked)
    expected = []
    for i, j in combinations(sorted(states, key=lambda s: s.agent), 2):
        kind = classify_conflict(i, j)
        if kind in (ConflictKind.VERTEX, ConflictKind.EDGE, ConflictKind.STATIC):
            # i has the lower id, so it keeps its intent unless j outranks it.
            keeper, yielder = (i, j) if i.priority >= j.priority else (j, i)
            expected.append((kind, keeper.agent, yielder.agent))
    assert [entry for entry in log if entry[0] != "deadlock"] == expected


def test_deadlocked_agent_steps_aside_from_a_blocked_cell():
    """a and b try to swap in a matured deadlock. b's ramped force points
    north at a blocked cell, so b steps east, as it would beside a wall."""
    states = [ks("a", (0, 1), (0, 2), 1.0, stuck=4, has_job=True),
              ks("b", (0, 2), (0, 1), 2.0, stuck=2, has_job=True)]
    blocked = {Cell(0, 3)}
    walled = GridMap(width=4, height=4, obstacles=frozenset(blocked))
    for seed in range(3):
        moves = resolve_zone_step(states, GridMap(width=4, height=4), PlannerParams(),
                                  rng_factory(seed), blocked=blocked)
        assert moves["b"] == Cell(1, 2)
        assert moves == resolve_zone_step(states, walled, PlannerParams(), rng_factory(seed))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_resolution_with_blocked_cells_matches_a_map_with_them_as_obstacles(data):
    """Blocked cells act exactly like obstacles on the moves and the log."""
    grid, rng = pocket_map(data)
    free = [Cell(x, y) for y in range(grid.height) for x in range(grid.width)
            if grid.is_free(Cell(x, y))]
    if len(free) < 2:
        return
    # A cluster of agents around a random cell, with blocked cells among them.
    centre = rng.choice(free)
    near = sorted(free, key=lambda c: (manhattan(c, centre), rng.random()))[:16]
    rng.shuffle(near)
    n = data.draw(st.integers(2, 10))
    currents = near[:n]
    blocked = {c for c in near[n:] if rng.random() < 0.6}
    states = [KinematicState(
        agent=f"a{idx:02d}", current=cur,
        intent=data.draw(st.sampled_from([cur] + grid.free_neighbors(cur))),
        priority=data.draw(st.sampled_from([1.0, 1.5, 2.0])),
        stuck=data.draw(st.integers(0, 4)), has_job=data.draw(st.booleans()))
        for idx, cur in enumerate(currents)]
    seed = data.draw(st.integers(0, 99))
    walled = GridMap(width=grid.width, height=grid.height,
                     obstacles=grid.obstacles | blocked)
    log, walled_log = [], []
    moves = resolve_zone_step(states, grid, PlannerParams(), rng_factory(seed),
                              log=log, blocked=blocked)
    assert moves == resolve_zone_step(states, walled, PlannerParams(),
                                      rng_factory(seed), log=walled_log)
    assert log == walled_log
    assert not set(moves.values()) & blocked


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_resolution_safety_property(data):
    """Arbitrary nearby agents: outputs are distinct cells with no swaps and
    every move is a legal single step."""
    grid = GridMap(width=6, height=6)
    n = data.draw(st.integers(2, 8))
    cells = [Cell(x, y) for x in range(6) for y in range(6)]
    currents = data.draw(st.lists(st.sampled_from(cells), min_size=n, max_size=n,
                                  unique=True))
    states = []
    for idx, cur in enumerate(currents):
        options = [cur] + grid.free_neighbors(cur)
        intent = data.draw(st.sampled_from(options))
        states.append(KinematicState(
            agent=f"a{idx}", current=cur, intent=intent,
            priority=data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
            stuck=data.draw(st.integers(0, 5)),
            has_job=data.draw(st.booleans())))
    final = resolve_zone_step(states, grid, PlannerParams(),
                              rng_factory(data.draw(st.integers(0, 99))))
    assert set(final) == {s.agent for s in states}
    assert len(set(final.values())) == len(final)
    cur_of = {s.agent: s.current for s in states}
    occ = {s.current: s.agent for s in states}
    for agent, target in final.items():
        assert manhattan(cur_of[agent], target) <= 1
        assert grid.is_free(target)
        if target != cur_of[agent]:
            other = occ.get(target)
            if other is not None:
                assert final[other] != cur_of[agent]  # no swap
