"""Zone-leader election by minimum distance to the zone centroid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .world import Cell, Zone, zone_centroid


class ElectionReason(Enum):
    BOOTSTRAP = "bootstrap"
    LEADER_DEAD = "leader_dead"
    LEADER_MIGRATED = "leader_migrated"


class NoCandidatesError(ValueError):
    """Election solicited in a zone with no eligible agents."""


@dataclass(frozen=True)
class Candidacy:
    agent: str
    distance: float


def centroid_distance(position: Cell, zone: Zone) -> float:
    gx, gy = zone_centroid(zone)
    return math.hypot(gx - position.x, gy - position.y)


def elect_zone_leader(candidates: list[Candidacy]) -> str:
    """Agent with minimum centroid distance; ties break to the lower id."""
    if not candidates:
        raise NoCandidatesError("no candidates for zone leadership")
    return min(candidates, key=lambda c: (c.distance, c.agent)).agent
