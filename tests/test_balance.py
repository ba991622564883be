import random
from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from gridswarm.balance import MigrationMandate, _zone_path, nearest_free_cell, plan_daisy_chain
from gridswarm.engine import CONTROLLER, Simulation
from gridswarm.scenario import scenario_from_dict
from gridswarm.trace import parse_trace
from gridswarm.world import Cell, GridMap, Zone, zone_centroid


def test_mandate_must_cross_one_boundary():
    MigrationMandate("m", "a", (0, 0), (0, 1))
    with pytest.raises(ValueError):
        MigrationMandate("m", "a", (0, 0), (1, 1))
    with pytest.raises(ValueError):
        MigrationMandate("m", "a", (0, 0), (0, 0))


def test_deficit_computation_with_carry():
    # The super-leader keeps each zone's latest report: a fresh report
    # replaces its zone's, and a zone not heard from keeps its previous one.
    sim = Simulation(scenario_from_dict({
        "map": {"width": 12, "height": 6}, "partition": {"rows": 1, "cols": 2},
        "agents": [], "jobs": [], "seed": 0, "max_ticks": 10}))
    for zone, pending, idle_ids in [((0, 0), 5, ["a1"]), ((0, 1), 0, ["a2", "a3"]),
                                    ((0, 0), 2, ["a1"])]:
        sim._publish(CONTROLLER, "super/loads",
                     {"kind": "load", "zone": zone, "pending": pending,
                      "total": len(idle_ids), "idle_ids": idle_ids})
        sim._pump(1)
    assert sim.sup.deficits == {(0, 0): 1, (0, 1): -2}
    assert [e["idle"] for e in parse_trace(sim.trace.dump())
            if e["kind"] == "LoadReport"] == [1, 2, 1]
    # The balancing period plans from the carried deficits.
    sim.round = sim.cfg.balance_period
    sim._phase_balance()
    assert sim.metrics.deficit_history == [1]


def test_single_hop_mandate():
    deficits = {(0, 0): 1, (0, 1): -1}
    mandates, starved = plan_daisy_chain(deficits, {(0, 1): ["a2", "a1"]})
    assert not starved
    assert len(mandates) == 1
    m = mandates[0]
    assert (m.agent, m.from_zone, m.to_zone) == ("a1", (0, 1), (0, 0))


def test_starved_when_surplus_insufficient():
    deficits = {(0, 0): 2, (0, 1): -1}
    mandates, starved = plan_daisy_chain(deficits, {(0, 1): ["a1"]})
    assert len(mandates) == 1
    assert starved  # one unit of demand is left with no surplus anywhere


def test_multi_hop_chain_staffed_per_zone():
    # surplus two zones away; every intermediate zone has an idle agent
    deficits = {(0, 2): 1, (0, 0): -1, (0, 1): 0}
    idle = {(0, 0): ["far"], (0, 1): ["mid"]}
    mandates, starved = plan_daisy_chain(deficits, idle)
    assert not starved
    assert [(m.agent, m.from_zone, m.to_zone) for m in mandates] == [
        ("far", (0, 0), (0, 1)), ("mid", (0, 1), (0, 2))]


def test_chain_truncates_at_unstaffable_hop():
    deficits = {(0, 2): 1, (0, 0): -1}
    mandates, starved = plan_daisy_chain(deficits, {(0, 0): ["a"]})
    # first hop issued, the stranded unit resumes from (0,1) next period
    assert [(m.from_zone, m.to_zone) for m in mandates] == [((0, 0), (0, 1))]
    assert not starved


def test_starved_when_no_surplus():
    mandates, starved = plan_daisy_chain({(0, 0): 3}, {})
    assert mandates == []
    assert starved


def test_largest_deficit_served_first():
    deficits = {(0, 0): 1, (0, 2): 3, (0, 1): -1}
    mandates, _ = plan_daisy_chain(deficits, {(0, 1): ["x"]})
    assert mandates[0].to_zone == (0, 2)


def test_mandate_ids_sequential_from_start():
    deficits = {(0, 0): 1, (0, 1): -1}
    mandates, _ = plan_daisy_chain(deficits, {(0, 1): ["a", "b"]}, start_id=5)
    assert [m.id for m in mandates] == ["m5"]


def test_total_hops_match_min_cost_flow_oracle():
    """With ample staffing, greedy chain hop count equals an independent
    min-cost-flow solution on the zone adjacency graph."""
    rows, cols = 2, 3
    deficits = {(0, 0): 2, (1, 2): 1, (0, 2): -2, (1, 0): -1}
    idle = {(r, c): [f"a{r}{c}x", f"a{r}{c}y", f"a{r}{c}z"]
            for r in range(rows) for c in range(cols)}
    mandates, starved = plan_daisy_chain(dict(deficits), idle)
    assert not starved

    g = nx.DiGraph()
    for r in range(rows):
        for c in range(cols):
            for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= nr < rows and 0 <= nc < cols:
                    g.add_edge((r, c), (nr, nc), weight=1)
    g.add_node("src")
    g.add_node("dst")
    for z, d in deficits.items():
        if d < 0:
            g.add_edge("src", z, weight=0, capacity=-d)
        elif d > 0:
            g.add_edge(z, "dst", weight=0, capacity=d)
    cost = nx.max_flow_min_cost(g, "src", "dst")
    flow_cost = nx.cost_of_flow(g, cost)
    assert len(mandates) == flow_cost


def bfs_zone_path(src, dst, rows, cols):
    """Reference: breadth-first search on the zone grid, trying each zone's
    neighbours up, left, right, down, and the path back through the parent
    that first reached each zone."""
    parent = {src: None}
    queue = deque([src])
    while dst not in parent:
        r, c = queue.popleft()
        for nxt in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)):
            if 0 <= nxt[0] < rows and 0 <= nxt[1] < cols and nxt not in parent:
                parent[nxt] = (r, c)
                queue.append(nxt)
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def test_zone_path_matches_breadth_first_search_on_every_grid_to_8x8():
    for rows in range(1, 9):
        for cols in range(1, 9):
            zones = [(r, c) for r in range(rows) for c in range(cols)]
            for src in zones:
                for dst in zones:
                    assert _zone_path(src, dst) == bfs_zone_path(src, dst, rows, cols)


def scan_nearest(grid, zone):
    """Reference: the first minimum over the zone's free cells in (y, x) order."""
    x0, y0, x1, y1 = zone.bounds
    px, py = zone_centroid(zone)
    return min((Cell(x, y) for y in range(y0, y1 + 1) for x in range(x0, x1 + 1)
                if grid.is_free(Cell(x, y))),
               key=lambda c: (c.x - px) ** 2 + (c.y - py) ** 2, default=None)


def test_nearest_free_cell_matches_exhaustive_scan():
    grid = GridMap(width=7, height=5,
                   obstacles=frozenset({Cell(3, 2), Cell(2, 2), Cell(3, 1)}))
    for bounds in [(0, 0, 6, 4), (0, 0, 0, 0), (2, 1, 3, 2), (3, 0, 6, 4), (1, 1, 4, 3)]:
        zone = Zone(id=(0, 0), bounds=bounds)
        x0, y0, x1, y1 = bounds
        px, py = zone_centroid(zone)
        expected = min((c for y in range(y0, y1 + 1) for x in range(x0, x1 + 1)
                        if grid.is_free(c := Cell(x, y))),
                       key=lambda c: ((c.x - px) ** 2 + (c.y - py) ** 2, c.y, c.x))
        assert nearest_free_cell(grid, zone) == expected
    # A walled-off centroid: the map's free cell nearest (4, 2) is (2, 2),
    # outside the zone; the zone's own free cell is the answer.
    walled = GridMap(width=7, height=5, obstacles=frozenset(
        Cell(x, y) for x in range(3, 6) for y in range(5) if (x, y) != (5, 4)))
    assert nearest_free_cell(walled, Zone(id=(0, 1), bounds=(3, 0, 5, 4))) == Cell(5, 4)


def test_nearest_free_cell_none_on_full_map():
    grid = GridMap(width=2, height=1,
                   obstacles=frozenset({Cell(0, 0), Cell(1, 0)}))
    assert nearest_free_cell(grid, Zone(id=(0, 0), bounds=(0, 0, 1, 0))) is None


@settings(deadline=None)
@given(st.data())
def test_ring_search_matches_full_scan(data):
    """Random maps, some full, and random zones on them."""
    w = data.draw(st.integers(1, 14))
    h = data.draw(st.integers(1, 14))
    cells = [(x, y) for y in range(h) for x in range(w)]
    blocked = data.draw(st.sets(st.sampled_from(cells)) | st.just(set(cells)))
    grid = GridMap(width=w, height=h, obstacles=frozenset(Cell(*c) for c in blocked))
    xs = st.tuples(st.integers(0, w - 1), st.integers(0, w - 1)).map(sorted)
    ys = st.tuples(st.integers(0, h - 1), st.integers(0, h - 1)).map(sorted)
    for (x0, x1), (y0, y1) in data.draw(st.lists(st.tuples(xs, ys), min_size=1, max_size=8)):
        zone = Zone(id=(0, 0), bounds=(x0, y0, x1, y1))
        assert nearest_free_cell(grid, zone) == scan_nearest(grid, zone)


def test_ring_search_breaks_distance_ties_by_y_then_x():
    grid = GridMap(width=8, height=8, obstacles=frozenset({Cell(4, 4)}))
    # (3, 4), (4, 3), (5, 4) and (4, 5) are all 1 away from the centroid
    # (4, 4); (4, 3) has the lowest y.
    assert nearest_free_cell(grid, Zone(id=(0, 0), bounds=(1, 1, 7, 7))) == Cell(4, 3)
    # A centroid between four cells: the lowest y, then the lowest x.
    assert nearest_free_cell(GridMap(width=8, height=8),
                             Zone(id=(0, 0), bounds=(0, 0, 7, 7))) == Cell(3, 3)


def test_ring_search_matches_full_scan_at_every_half_point():
    # Seeded obstacle patterns, and every rectangle of the map as a zone, so
    # every half-cell point of the map is a centroid, and every ring side and
    # corner gets to hold the answer.
    rng = random.Random(7)
    for density in (0.2, 0.5, 0.8, 0.95):
        grid = GridMap(width=9, height=7, obstacles=frozenset(
            Cell(x, y) for y in range(7) for x in range(9) if rng.random() < density))
        for x0, x1, y0, y1 in ((x0, x1, y0, y1) for x0 in range(9) for x1 in range(x0, 9)
                               for y0 in range(7) for y1 in range(y0, 7)):
            zone = Zone(id=(0, 0), bounds=(x0, y0, x1, y1))
            assert nearest_free_cell(grid, zone) == scan_nearest(grid, zone)
