"""Jobs: controller spawning, distance-cost bidding, leader-mediated assignment."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .world import Cell, GridMap, InvalidPositionError


class JobStatus(Enum):
    PENDING = "pending"
    ASSIGNED = "assigned"
    COMPLETED = "completed"


class SpawnRejected(ValueError):
    """Job placed on an obstacle or out of bounds."""


@dataclass
class Job:
    id: str
    location: Cell
    priority: float
    spawn_tick: int
    status: JobStatus = JobStatus.PENDING
    assignee: Optional[str] = None
    assign_tick: Optional[int] = None
    completion_tick: Optional[int] = None


@dataclass(frozen=True)
class Bid:
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


class CostField:
    """BFS distance fields from job locations, cached per location.

    Values equal shortest obstacle-respecting path lengths, i.e. exactly what
    an A* plan from the agent to the job would produce. A field is a flat
    list indexed by ``y * width + x`` (see ``GridMap.neighbor_table``) holding
    the distance, or None where the cell is unreachable: one 8-byte slot per
    map cell, about 29 KB for a 60x60 map. Distances up to 256 are shared int
    objects, so on such maps the slots are the whole cost.
    """

    def __init__(self, grid: GridMap) -> None:
        self.grid = grid
        self._fields: dict[Cell, list[Optional[int]]] = {}

    def _field(self, origin: Cell) -> list[Optional[int]]:
        cached = self._fields.get(origin)
        if cached is not None:
            return cached
        grid = self.grid
        if not grid.in_bounds(origin):
            raise InvalidPositionError(f"cost field origin {origin} outside the map")
        table = grid.neighbor_table
        dist: list[Optional[int]] = [None] * (grid.width * grid.height)
        start = origin.y * grid.width + origin.x
        dist[start] = 0
        frontier = [start]
        d = 0
        while frontier:
            d += 1
            reached = []
            for i in frontier:
                for j in table[i]:
                    if dist[j] is None:
                        dist[j] = d
                        reached.append(j)
            frontier = reached
        self._fields[origin] = dist
        return dist

    def cost(self, position: Cell, job_location: Cell) -> Optional[int]:
        """Path length from `position` to the job; None if unreachable or off the map."""
        x, y = position
        w = self.grid.width
        if not (0 <= x < w and 0 <= y < self.grid.height):
            return None
        return self._field(Cell(*job_location))[y * w + x]


def choose_assignee(bids: list[Bid]) -> Optional[Bid]:
    """Minimum-cost bid, ties to the lower agent id; None if nothing reachable."""
    usable = [b for b in bids if b.cost is not None]
    if not usable:
        return None
    return min(usable, key=lambda b: (b.cost, b.agent))
