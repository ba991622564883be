"""Static grid world: obstacle map, overlapping zone decomposition, centroid geometry.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

ZoneId = tuple[int, int]  # (row, col)


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
    if not (0 <= cell.x < partition.width and 0 <= cell.y < partition.height):
        raise InvalidPositionError(f"cell {cell} outside {partition.width}x{partition.height} map")
    base_w = partition.width // partition.cols
    base_h = partition.height // partition.rows
    col = min(cell.x // base_w, partition.cols - 1)
    row = min(cell.y // base_h, partition.rows - 1)
    return (row, col)


def subscribed_zones(cell: Cell, partition: ZonePartition) -> set[ZoneId]:
    """Home zone plus every zone whose overlap-expanded region contains `cell`.

    A zone's expanded region holds the cell exactly when the zone meets the
    square of half-side `overlap` around it. Zones tile the map in rows and
    columns, so those are the zones between the home zones of the square's
    corners, clamped to the map, whatever the overlap.
    """
    home_zone(cell, partition)  # validates bounds
    k = partition.overlap
    x, y = cell
    r0, c0 = home_zone(Cell(max(0, x - k), max(0, y - k)), partition)
    r1, c1 = home_zone(Cell(min(partition.width - 1, x + k),
                            min(partition.height - 1, y + k)), partition)
    return {(r, c) for r in range(r0, r1 + 1) for c in range(c0, c1 + 1)}
