"""Static grid world: obstacle map, overlapping zone decomposition, centroid geometry.

Everything here is immutable after construction and safe to share; lookup
tables are filled in on first use and never change what a query returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

ZoneId = tuple[int, int]  # (row, col)
Span = tuple[int, int]  # first and last zone index along one axis


class Cell(NamedTuple):
    x: int
    y: int


class InvalidPositionError(ValueError):
    """Query used a cell outside the map bounds."""


# Fixed expansion order used by planning and BFS helpers: N, E, S, W.
DIRECTIONS: tuple[Cell, ...] = (Cell(0, 1), Cell(1, 0), Cell(0, -1), Cell(-1, 0))


@dataclass(frozen=True)
class GridMap:
    width: int
    height: int
    obstacles: frozenset[Cell] = frozenset()

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("map dimensions must be >= 1")
        cells = frozenset(Cell(x, y) for x, y in self.obstacles)
        object.__setattr__(self, "obstacles", cells)
        for c in cells:
            if not self.in_bounds(c):
                raise ValueError(f"obstacle {c} out of bounds")

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell.x < self.width and 0 <= cell.y < self.height

    def is_free(self, cell: Cell) -> bool:
        """True iff `cell` is in bounds and not an obstacle."""
        return self.in_bounds(cell) and cell not in self.obstacles

    def free_neighbors(self, cell: Cell) -> list[Cell]:
        out = []
        for d in DIRECTIONS:
            n = Cell(cell.x + d.x, cell.y + d.y)
            if self.is_free(n):
                out.append(n)
        return out

    # Flat-index views, built on first use and cached on the instance. A cell
    # (x, y) has flat index y * width + x.

    @cached_property
    def free_flags(self) -> bytearray:
        """1 at the flat index of every free cell, 0 at every obstacle."""
        w = self.width
        flags = bytearray(b"\x01") * (w * self.height)
        for c in self.obstacles:
            flags[c.y * w + c.x] = 0
        return flags

    @cached_property
    def neighbor_table(self) -> tuple[tuple[int, ...], ...]:
        """Row i holds the flat indices of `free_neighbors` of cell i, in order."""
        w, h = self.width, self.height
        free = self.free_flags
        steps = [(d.x, d.y, d.y * w + d.x) for d in DIRECTIONS]
        rows = []
        for y in range(h):
            for x in range(w):
                i = y * w + x
                rows.append(tuple(i + off for dx, dy, off in steps
                                  if 0 <= x + dx < w and 0 <= y + dy < h and free[i + off]))
        return tuple(rows)


@dataclass(frozen=True)
class Zone:
    id: ZoneId
    bounds: tuple[int, int, int, int]  # (x0, y0, x1, y1), inclusive

    def __post_init__(self) -> None:
        x0, y0, x1, y1 = self.bounds
        if x0 > x1 or y0 > y1:
            raise ValueError(f"invalid zone bounds {self.bounds}")

    def contains(self, cell: Cell) -> bool:
        x0, y0, x1, y1 = self.bounds
        return x0 <= cell.x <= x1 and y0 <= cell.y <= y1


def zone_centroid(zone: Zone) -> tuple[float, float]:
    """Midpoint of the zone's inclusive cell bounds."""
    x0, y0, x1, y1 = zone.bounds
    return ((x0 + x1) / 2, (y0 + y1) / 2)


@dataclass(frozen=True)
class ZonePartition:
    rows: int
    cols: int
    overlap: int
    zones: tuple[Zone, ...]
    width: int
    height: int

    def zone(self, zone_id: ZoneId) -> Zone:
        row, col = zone_id
        return self.zones[row * self.cols + col]

    def zone_ids(self) -> list[ZoneId]:
        return [z.id for z in self.zones]

    def expanded_bounds(self, zone_id: ZoneId) -> tuple[int, int, int, int]:
        """Zone bounds grown by `overlap` cells, clamped to the map."""
        x0, y0, x1, y1 = self.zone(zone_id).bounds
        k = self.overlap
        return (max(0, x0 - k), max(0, y0 - k),
                min(self.width - 1, x1 + k), min(self.height - 1, y1 + k))

    # Per-axis tables, built on first use and cached on the instance. Zones
    # tile the map in rows and columns, so a cell's home zone is its row's and
    # its column's, and the zones whose expanded bounds hold it are a range of
    # rows times a range of columns.

    @cached_property
    def home_tables(self) -> tuple[list[int], list[int]]:
        """(zone row of each y, zone column of each x); the last row and
        column absorb the remainder, as in `build_partition`."""
        base_h, base_w = self.height // self.rows, self.width // self.cols
        return ([min(y // base_h, self.rows - 1) for y in range(self.height)],
                [min(x // base_w, self.cols - 1) for x in range(self.width)])

    @cached_property
    def span_tables(self) -> tuple[list[Span], list[Span],
                                   dict[tuple[Span, Span], tuple[ZoneId, ...]]]:
        """(first and last zone row whose expanded bounds hold each y, the same
        for the columns of each x, and the memo of `subscribed_zones` by that
        pair of ranges)."""
        rows_of, cols_of = self.home_tables
        return _axis_spans(rows_of, self.overlap), _axis_spans(cols_of, self.overlap), {}


def _axis_spans(homes: list[int], overlap: int) -> list[Span]:
    """A zone's expanded bounds hold a coordinate exactly when the zone meets
    the window of half-width `overlap` around it: the zones from the home of
    the window's low end to the home of its high end, clamped to the axis."""
    last = len(homes) - 1
    return [(homes[max(0, i - overlap)], homes[min(last, i + overlap)])
            for i in range(len(homes))]


def build_partition(grid: GridMap, rows: int, cols: int, overlap: int = 1) -> ZonePartition:
    """Tile the map into rows x cols zones.

    When a dimension is not divisible, the last row/column of zones absorbs
    the remainder so the zone count stays fixed.
    """
    if rows < 1 or cols < 1:
        raise ValueError("partition needs at least one row and column")
    if overlap < 0:
        raise ValueError("overlap must be >= 0")
    if rows > grid.height or cols > grid.width:
        raise ValueError("more zones than cells along an axis")
    base_w = grid.width // cols
    base_h = grid.height // rows
    zones = []
    for r in range(rows):
        for c in range(cols):
            x0 = c * base_w
            y0 = r * base_h
            x1 = grid.width - 1 if c == cols - 1 else x0 + base_w - 1
            y1 = grid.height - 1 if r == rows - 1 else y0 + base_h - 1
            zones.append(Zone(id=(r, c), bounds=(x0, y0, x1, y1)))
    return ZonePartition(rows=rows, cols=cols, overlap=overlap, zones=tuple(zones),
                         width=grid.width, height=grid.height)


def home_zone(cell: Cell, partition: ZonePartition) -> ZoneId:
    """The unique zone whose bounds contain `cell`."""
    x, y = cell
    # Checked before indexing: a list would wrap a negative index.
    if not (0 <= x < partition.width and 0 <= y < partition.height):
        raise InvalidPositionError(f"cell {cell} outside {partition.width}x{partition.height} map")
    rows_of, cols_of = partition.home_tables
    return (rows_of[y], cols_of[x])


def subscribed_zones(cell: Cell, partition: ZonePartition) -> tuple[ZoneId, ...]:
    """Home zone plus every zone whose overlap-expanded region contains `cell`,
    in zone (row-major) order. One tuple is shared by all cells with the same
    row and column ranges."""
    x, y = cell
    if not (0 <= x < partition.width and 0 <= y < partition.height):
        raise InvalidPositionError(f"cell {cell} outside {partition.width}x{partition.height} map")
    row_spans, col_spans, memo = partition.span_tables
    key = (row_spans[y], col_spans[x])
    zones = memo.get(key)
    if zones is None:
        (r0, r1), (c0, c1) = key
        zones = memo[key] = tuple((r, c) for r in range(r0, r1 + 1) for c in range(c0, c1 + 1))
    return zones
