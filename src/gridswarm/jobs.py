"""Jobs: controller spawning, distance-cost bidding, leader-mediated assignment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .world import Cell, GridMap, InvalidPositionError


class SpawnRejected(ValueError):
    """Job placed on an obstacle or out of bounds."""


@dataclass
class Job:
    """A job is pending until `assign_tick` is set and open until
    `completion_tick` is; a release by `MarkDead` clears `assign_tick`."""

    id: str
    location: Cell
    priority: float
    spawn_tick: int
    assign_tick: Optional[int] = None
    completion_tick: Optional[int] = None


class Bid(NamedTuple):
    agent: str
    job: str
    cost: Optional[int]  # None means unreachable


def spawn_job(grid: GridMap, job_id: str, location: Cell, priority: float,
              spawn_tick: int) -> Job:
    location = Cell(*location)
    if priority <= 0:
        raise SpawnRejected(f"job {job_id}: priority must be > 0")
    if not grid.is_free(location):
        raise SpawnRejected(f"job {job_id}: location {location} is not a free cell")
    return Job(id=job_id, location=location, priority=priority, spawn_tick=spawn_tick)


class _Search:
    """One resumable BFS from a job location: the distance of every cell
    settled so far (None where not yet reached), the cells at distance
    `level` whose neighbours are still unexplored, and that level."""

    __slots__ = ("dist", "frontier", "level")

    def __init__(self, size: int, start: int) -> None:
        self.dist: list[Optional[int]] = [None] * size
        self.dist[start] = 0
        self.frontier = [start]
        self.level = 0


class CostField:
    """Resumable BFS distance fields from job locations, one per location.

    Values equal shortest obstacle-respecting path lengths, i.e. exactly what
    an A* plan from the agent to the job would produce. A query grows its
    location's search level by level only until the queried cell is settled,
    and later queries resume where it stopped (the backward search of
    Silver's Reverse Resumable A*); settled distances are exact, and a cell
    the search has exhausted without reaching is unreachable. Distances live
    in a flat list indexed by ``y * width + x`` (see
    ``GridMap.neighbor_table``): one 8-byte slot per map cell, about 29 KB
    for a 60x60 map, plus a frontier of at most one BFS level. The engine
    drops a location's field once no open job sits there, so memory grows
    with the open job locations, not with every location ever seen.
    """

    def __init__(self, grid: GridMap) -> None:
        self.grid = grid
        self._fields: dict[Cell, _Search] = {}

    def cost(self, position: Cell, job_location: Cell) -> Optional[int]:
        """Path length from `position` to the job; None if unreachable or off the map."""
        x, y = position
        grid = self.grid
        w = grid.width
        if not (0 <= x < w and 0 <= y < grid.height):
            return None
        search = self._fields.get(job_location)
        if search is None:
            origin = Cell(*job_location)
            if not grid.in_bounds(origin):
                raise InvalidPositionError(f"cost field origin {origin} outside the map")
            search = _Search(w * grid.height, origin.y * w + origin.x)
            self._fields[origin] = search
        dist = search.dist
        target = y * w + x
        if dist[target] is None and search.frontier:
            table = grid.neighbor_table
            frontier, d = search.frontier, search.level
            while frontier and dist[target] is None:
                d += 1
                reached = []
                for i in frontier:
                    for j in table[i]:
                        if dist[j] is None:
                            dist[j] = d
                            reached.append(j)
                frontier = reached
            search.frontier, search.level = frontier, d
        return dist[target]

    def release(self, job_location: Cell, jobs: Iterable[Job]) -> None:
        """Drop the field of `job_location` unless a job in `jobs` (a zone's
        open jobs) still sits there; jobs may share a cell."""
        if not any(j.location == job_location for j in jobs):
            self._fields.pop(Cell(*job_location), None)


def choose_assignee(bids: list[Bid]) -> Optional[Bid]:
    """Minimum-cost bid, ties to the lower agent id; None if nothing reachable."""
    usable = [b for b in bids if b.cost is not None]
    if not usable:
        return None
    return min(usable, key=lambda b: (b.cost, b.agent))
