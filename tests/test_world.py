import re

import pytest
from hypothesis import given, settings, strategies as st

from gridswarm.world import (Cell, GridMap, InvalidPositionError, build_partition,
                             home_zone, subscribed_zones, zone_centroid)


def test_grid_bounds_and_obstacles():
    grid = GridMap(width=5, height=4, obstacles=frozenset({Cell(2, 2)}))
    assert grid.in_bounds(Cell(0, 0))
    assert grid.in_bounds(Cell(4, 3))
    assert not grid.in_bounds(Cell(5, 0))
    assert not grid.in_bounds(Cell(0, -1))
    assert grid.is_free(Cell(1, 1))
    assert not grid.is_free(Cell(2, 2))
    assert not grid.is_free(Cell(-1, 0))


def test_grid_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        GridMap(width=0, height=3)
    with pytest.raises(ValueError):
        GridMap(width=3, height=3, obstacles=frozenset({Cell(3, 0)}))


def test_free_neighbors_order():
    # N, E, S, W with blocked and out-of-bounds cells skipped.
    grid = GridMap(width=3, height=3, obstacles=frozenset({Cell(2, 1)}))
    assert grid.free_neighbors(Cell(1, 1)) == [Cell(1, 2), Cell(1, 0), Cell(0, 1)]
    assert grid.free_neighbors(Cell(0, 0)) == [Cell(0, 1), Cell(1, 0)]


def test_partition_even_split():
    grid = GridMap(width=10, height=10)
    part = build_partition(grid, 2, 2, overlap=1)
    assert part.zone((0, 0)).bounds == (0, 0, 4, 4)
    assert part.zone((1, 1)).bounds == (5, 5, 9, 9)
    assert part.zone_ids() == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_partition_remainder_goes_to_last():
    grid = GridMap(width=11, height=7)
    part = build_partition(grid, 2, 3)
    # base widths 3, last column takes the leftover 5 cells
    assert part.zone((0, 0)).bounds == (0, 0, 2, 2)
    assert part.zone((0, 2)).bounds == (6, 0, 10, 2)
    assert part.zone((1, 2)).bounds == (6, 3, 10, 6)


def test_partition_validation():
    grid = GridMap(width=4, height=4)
    with pytest.raises(ValueError):
        build_partition(grid, 0, 1)
    with pytest.raises(ValueError):
        build_partition(grid, 5, 1)
    with pytest.raises(ValueError):
        build_partition(grid, 1, 1, overlap=-1)


def test_expanded_bounds_clamped_at_map_edge():
    grid = GridMap(width=10, height=10)
    part = build_partition(grid, 2, 2, overlap=2)
    assert part.expanded_bounds((0, 0)) == (0, 0, 6, 6)
    assert part.expanded_bounds((1, 1)) == (3, 3, 9, 9)


def test_zone_centroid_midpoint():
    grid = GridMap(width=10, height=10)
    part = build_partition(grid, 2, 2)
    assert zone_centroid(part.zone((0, 0))) == (2.0, 2.0)
    grid2 = GridMap(width=9, height=9)
    part2 = build_partition(grid2, 1, 1)
    assert zone_centroid(part2.zone((0, 0))) == (4.0, 4.0)


def test_home_zone_matches_bounds():
    grid = GridMap(width=11, height=7)
    part = build_partition(grid, 2, 3)
    for y in range(7):
        for x in range(11):
            z = home_zone(Cell(x, y), part)
            assert part.zone(z).contains(Cell(x, y))


# Each side of the map, negative coordinates included: the lookup tables are
# lists, which would wrap a negative index to the far edge.
OFF_MAP = [Cell(4, 0), Cell(0, 3), Cell(-1, 0), Cell(0, -1), Cell(-1, -1), Cell(-4, 2)]


def test_home_zone_out_of_bounds():
    part = build_partition(GridMap(width=4, height=3), 2, 2)
    for cell in OFF_MAP:
        with pytest.raises(InvalidPositionError, match=re.escape(f"cell {cell} outside 4x3 map")):
            home_zone(cell, part)


def test_subscribed_zones_out_of_bounds():
    part = build_partition(GridMap(width=4, height=3), 2, 2, overlap=1)
    for cell in OFF_MAP:
        with pytest.raises(InvalidPositionError, match=re.escape(f"cell {cell} outside 4x3 map")):
            subscribed_zones(cell, part)


def test_subscribed_zones_overlap_band():
    grid = GridMap(width=10, height=10)
    part = build_partition(grid, 1, 2, overlap=1)
    # interior of zone (0,0), far from the boundary at x=5
    assert subscribed_zones(Cell(1, 5), part) == ((0, 0),)
    # just inside the neighbor's expanded band
    assert subscribed_zones(Cell(4, 5), part) == ((0, 0), (0, 1))
    assert subscribed_zones(Cell(5, 5), part) == ((0, 0), (0, 1))


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 3), st.integers(0, 3))
def test_subscribed_zones_grow_with_overlap(x, y, k1, k2):
    """A wider overlap band never removes subscriptions. (Sets: `<=` on
    tuples would compare them lexicographically.)"""
    grid = GridMap(width=11, height=11)
    small = build_partition(grid, 2, 2, overlap=min(k1, k2))
    large = build_partition(grid, 2, 2, overlap=max(k1, k2))
    assert set(subscribed_zones(Cell(x, y), small)) <= set(subscribed_zones(Cell(x, y), large))


@given(st.integers(1, 9), st.integers(1, 9),
       st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8))))
def test_neighbor_table_matches_free_neighbors(w, h, obstacle_xy):
    obstacles = frozenset(Cell(x, y) for x, y in obstacle_xy if x < w and y < h)
    grid = GridMap(width=w, height=h, obstacles=obstacles)
    table = grid.neighbor_table
    assert len(table) == w * h
    for y in range(h):
        for x in range(w):
            expected = tuple(n.y * w + n.x for n in grid.free_neighbors(Cell(x, y)))
            assert table[y * w + x] == expected
    assert list(grid.free_flags) == [int(grid.is_free(Cell(x, y)))
                                     for y in range(h) for x in range(w)]


def test_flat_views_built_on_first_use():
    grid = GridMap(width=4, height=3, obstacles=frozenset({Cell(1, 1)}))
    assert "neighbor_table" not in vars(grid)
    assert grid.neighbor_table[0] == (4, 1)  # (0,0): N is (0,1), E is (1,0)
    assert "neighbor_table" in vars(grid)
    assert grid == GridMap(width=4, height=3, obstacles=frozenset({Cell(1, 1)}))


def scan_subscribed(cell, part):
    """Reference: every zone whose expanded bounds contain the cell, in the
    partition's zone order."""
    out = []
    for z in part.zones:
        x0, y0, x1, y1 = part.expanded_bounds(z.id)
        if x0 <= cell.x <= x1 and y0 <= cell.y <= y1:
            out.append(z.id)
    return tuple(out)


@settings(deadline=None)
@given(st.data())
def test_subscribed_zones_match_scan_over_all_zones(data):
    """Random partitions, remainder rows and columns included, at overlap 0,
    1 and wider than a zone (the parser accepts overlaps such as 50): the home
    zone is the one zone that contains the cell, and the subscribed zones
    come in zone order."""
    w = data.draw(st.integers(1, 40))
    h = data.draw(st.integers(1, 40))
    rows = data.draw(st.integers(1, min(h, 7)))
    cols = data.draw(st.integers(1, min(w, 7)))
    overlap = data.draw(st.sampled_from([0, 1]) | st.integers(2, 50))
    part = build_partition(GridMap(width=w, height=h), rows, cols, overlap)
    for _ in range(10):
        cell = Cell(data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1)))
        assert [z.id for z in part.zones if z.contains(cell)] == [home_zone(cell, part)]
        assert subscribed_zones(cell, part) == scan_subscribed(cell, part)


def test_subscribed_zones_overlap_wider_than_a_zone():
    # 4x4 zones of 5x5 cells (the last row and column take 6), overlap 7.
    part = build_partition(GridMap(width=21, height=21), 4, 4, overlap=7)
    assert subscribed_zones(Cell(0, 0), part) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert subscribed_zones(Cell(10, 10), part) == tuple(part.zone_ids())
    for cell in (Cell(x, y) for y in range(21) for x in range(21)):
        assert part.zone(home_zone(cell, part)).contains(cell)
        assert subscribed_zones(cell, part) == scan_subscribed(cell, part)
    with pytest.raises(InvalidPositionError):
        subscribed_zones(Cell(21, 0), part)
