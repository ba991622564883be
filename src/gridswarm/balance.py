"""Super-leader load monitoring and daisy-chain migration planning.

Imbalance is measured as deficit = pending_jobs - idle_agents per zone. Each
balancing period the planner moves surplus agents toward deficit zones one
zone-boundary hop at a time: a multi-zone transfer becomes a chain of
mandates, one per hop, so no single agent crosses more than one boundary per
period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .world import Cell, GridMap, Zone, ZoneId, zone_centroid


@dataclass(frozen=True)
class MigrationMandate:
    id: str
    agent: str
    from_zone: ZoneId
    to_zone: ZoneId

    def __post_init__(self) -> None:
        dr = abs(self.from_zone[0] - self.to_zone[0])
        dc = abs(self.from_zone[1] - self.to_zone[1])
        if dr + dc != 1:
            raise ValueError("mandates move across exactly one zone boundary")


def _zone_path(src: ZoneId, dst: ZoneId) -> list[ZoneId]:
    """A shortest path on the 4-neighbour zone grid: up to the target's row
    if the target is above, then along the row, then down. This is the path
    a breadth-first search that tries up, left, right, down finds."""
    (r, c), (tr, tc) = src, dst
    row = min(r, tr)
    step = 1 if tc >= c else -1
    return ([(y, c) for y in range(r, row - 1, -1)]
            + [(row, x) for x in range(c + step, tc + step, step)]
            + [(y, tc) for y in range(row + 1, tr + 1)])


def plan_daisy_chain(deficits: dict[ZoneId, int], idle_by_zone: dict[ZoneId, list[str]],
                     start_id: int = 0) -> tuple[list[MigrationMandate], bool]:
    """Plan one period of migrations.

    Greedy matching: the largest deficit pulls from its nearest surplus zone
    (ties by zone id order); the unit of flow is realized as one mandate per
    hop, each hop staffed by an idle agent currently in that hop's source
    zone. A chain truncates at the first unstaffable hop and the stranded
    flow resumes next period. Returns (mandates, starved) where `starved`
    flags demand with no surplus anywhere.
    """
    deficits = dict(deficits)
    avail = {z: sorted(ids) for z, ids in idle_by_zone.items()}
    mandates: list[MigrationMandate] = []
    next_id = start_id
    starved = False
    for _ in range(sum(max(d, 0) for d in deficits.values()) + 1):
        target = min((z for z, d in deficits.items() if d > 0),
                     key=lambda z: (-deficits[z], z), default=None)
        if target is None:
            break
        sources = [z for z, d in deficits.items() if d < 0 and avail.get(z)]
        if not sources:
            # Unstaffable surplus only delays the transfer; starvation means
            # there is demand left and no surplus anywhere to serve it.
            starved = not any(d < 0 for d in deficits.values())
            break
        dist = lambda z: abs(z[0] - target[0]) + abs(z[1] - target[1])
        source = min(sources, key=lambda z: (dist(z), z))
        path = _zone_path(source, target)
        reached = source
        for frm, to in zip(path, path[1:]):
            agents = avail.get(frm)
            if not agents:
                break
            mandates.append(MigrationMandate(id=f"m{next_id}", agent=agents.pop(0),
                                             from_zone=frm, to_zone=to))
            next_id += 1
            reached = to
        deficits[source] = deficits.get(source, 0) + 1
        deficits[reached] = deficits.get(reached, 0) - 1
    return mandates, starved


def nearest_free_cell(grid: GridMap, zone: Zone) -> Optional[Cell]:
    """The zone's free cell closest to its centroid (Euclidean; the first in
    (y, x) order on a tie); None if the zone has no free cell."""
    x0, y0, x1, y1 = zone.bounds
    px, py = zone_centroid(zone)
    w = grid.width
    free = grid.free_flags
    best, best_d = None, float("inf")
    for y in range(y0, y1 + 1):
        dy = (y - py) ** 2
        for x in range(x0, x1 + 1):
            if free[y * w + x]:
                d = (x - px) ** 2 + dy
                if d < best_d:
                    best, best_d = (x, y), d
    return None if best is None else Cell(*best)
