from collections import deque

import pytest

from hypothesis import given, settings, strategies as st

from gridswarm.jobs import Bid, CostField, SpawnRejected, choose_assignee, spawn_job
from gridswarm.world import Cell, GridMap, InvalidPositionError


def bfs_distance(grid, start, goal):
    """Independent shortest-path oracle."""
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


def test_spawn_rejects_obstacle_and_out_of_bounds():
    grid = GridMap(width=4, height=4, obstacles=frozenset({Cell(1, 1)}))
    with pytest.raises(SpawnRejected):
        spawn_job(grid, "j", Cell(1, 1), 1.0, 0)
    with pytest.raises(SpawnRejected):
        spawn_job(grid, "j", Cell(9, 9), 1.0, 0)
    with pytest.raises(SpawnRejected):
        spawn_job(grid, "j", Cell(0, 0), 0.0, 0)


def test_spawn_creates_pending_job():
    grid = GridMap(width=4, height=4)
    job = spawn_job(grid, "j0", Cell(2, 3), 1.5, 7)
    assert job.assign_tick is None and job.completion_tick is None
    assert job.spawn_tick == 7


def test_cost_matches_bfs_oracle():
    grid = GridMap(width=8, height=8,
                   obstacles=frozenset({Cell(3, y) for y in range(1, 8)}))
    cache = CostField(grid)
    goal = Cell(6, 6)
    for y in range(8):
        for x in range(8):
            c = Cell(x, y)
            if not grid.is_free(c):
                continue
            assert cache.cost(c, goal) == bfs_distance(grid, c, goal)


def test_cost_none_when_unreachable():
    grid = GridMap(width=5, height=1, obstacles=frozenset({Cell(2, 0)}))
    assert CostField(grid).cost(Cell(0, 0), Cell(4, 0)) is None
    assert CostField(grid).cost(Cell(3, 0), Cell(4, 0)) == 1


def test_cost_field_origin_off_the_map_raises():
    with pytest.raises(InvalidPositionError):
        CostField(GridMap(width=3, height=3)).cost(Cell(0, 0), Cell(3, 0))


@st.composite
def pocket_maps(draw):
    """Random obstacle maps, some with a walled-off pocket in one corner."""
    w = draw(st.integers(1, 12))
    h = draw(st.integers(1, 12))
    obstacles = set(draw(st.sets(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
                                 max_size=w * h // 3)))
    if draw(st.booleans()) and w >= 4 and h >= 4:
        k = draw(st.integers(2, min(w, h) - 2))
        obstacles -= {(x, y) for x in range(k) for y in range(k)}
        obstacles |= {(k, y) for y in range(k + 1)} | {(x, k) for x in range(k + 1)}
    return GridMap(width=w, height=h, obstacles=frozenset(obstacles))


@given(pocket_maps(), st.data())
def test_cost_matches_bfs_oracle_on_random_maps(grid, data):
    cells = [Cell(x, y) for y in range(grid.height) for x in range(grid.width)]
    free = [c for c in cells if grid.is_free(c)]
    if not free:
        return
    goal = data.draw(st.sampled_from(free))
    field = CostField(grid)
    for c in cells:
        assert field.cost(c, goal) == (bfs_distance(grid, c, goal)
                                       if grid.is_free(c) else None)
    for c in (Cell(-1, 0), Cell(0, -1), Cell(grid.width, 0), Cell(0, grid.height)):
        assert field.cost(c, goal) is None


@settings(deadline=None)
@given(pocket_maps(), st.data())
def test_resumable_fields_match_reference_in_any_order(grid, data):
    """Several fields queried in a random interleaved order, some dropped and
    rebuilt on the way, always answer the reference BFS distance."""
    cells = [Cell(x, y) for y in range(grid.height) for x in range(grid.width)]
    free = [c for c in cells if grid.is_free(c)]
    if not free:
        return
    origins = data.draw(st.lists(st.sampled_from(free), min_size=1, max_size=4, unique=True))
    off_map = [Cell(-1, 0), Cell(0, -1), Cell(grid.width, 0), Cell(0, grid.height)]
    queries = data.draw(st.lists(
        st.tuples(st.sampled_from(origins), st.sampled_from(cells + off_map), st.booleans()),
        max_size=40))
    field = CostField(grid)
    for goal, position, drop_first in queries:
        if drop_first:
            field.release(goal, [])
            assert goal not in field._fields
        expected = bfs_distance(grid, position, goal) if grid.is_free(position) else None
        assert field.cost(position, goal) == expected


def test_field_search_stops_at_the_queried_cell():
    grid = GridMap(width=30, height=30)
    field = CostField(grid)
    assert field.cost(Cell(16, 15), Cell(15, 15)) == 1
    assert sum(d is not None for d in field._fields[Cell(15, 15)].dist) == 5
    assert field.cost(Cell(0, 0), Cell(15, 15)) == 30
    assert field.cost(Cell(15, 14), Cell(15, 15)) == 1


def test_release_keeps_a_field_while_an_open_job_shares_its_cell():
    grid = GridMap(width=6, height=6)
    field = CostField(grid)
    first = spawn_job(grid, "j0", Cell(2, 2), 1.0, 0)
    second = spawn_job(grid, "j1", Cell(2, 2), 1.0, 0)
    other = spawn_job(grid, "j2", Cell(4, 4), 1.0, 0)
    field.cost(Cell(0, 0), first.location)
    field.cost(Cell(0, 0), other.location)
    # The engine passes the zone's pool, which holds its open jobs only.
    first.assign_tick = first.completion_tick = 1
    for assign_tick in (None, 1):  # pending, then assigned
        second.assign_tick = assign_tick
        field.release(first.location, [second, other])
        assert Cell(2, 2) in field._fields
    second.completion_tick = 2
    field.release(first.location, [other])
    assert Cell(2, 2) not in field._fields
    assert Cell(4, 4) in field._fields
    assert field.cost(Cell(0, 0), Cell(2, 2)) == 4


def test_cost_field_is_cached():
    grid = GridMap(width=6, height=6)
    cache = CostField(grid)
    cache.cost(Cell(0, 0), Cell(5, 5))
    assert Cell(5, 5) in cache._fields
    cache.cost(Cell(1, 1), Cell(5, 5))
    assert len(cache._fields) == 1


def test_choose_assignee_minimum_cost():
    best = choose_assignee([Bid("b", "j", 4), Bid("a", "j", 2), Bid("c", "j", 7)])
    assert best.agent == "a"


def test_choose_assignee_tie_to_lower_id():
    best = choose_assignee([Bid("b", "j", 3), Bid("a", "j", 3)])
    assert best.agent == "a"


def test_choose_assignee_skips_unreachable():
    assert choose_assignee([Bid("a", "j", None)]) is None
    best = choose_assignee([Bid("a", "j", None), Bid("b", "j", 9)])
    assert best.agent == "b"
    assert choose_assignee([]) is None
