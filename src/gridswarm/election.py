"""Zone-leader election by minimum distance to the zone centroid."""

from __future__ import annotations

import math
from enum import Enum

from .world import Cell, Zone, zone_centroid


class ElectionReason(Enum):
    BOOTSTRAP = "bootstrap"
    LEADER_DEAD = "leader_dead"
    LEADER_MIGRATED = "leader_migrated"


class NoCandidatesError(ValueError):
    """Election solicited in a zone with no eligible agents."""


def centroid_distance(position: Cell, zone: Zone) -> float:
    gx, gy = zone_centroid(zone)
    return math.hypot(gx - position.x, gy - position.y)


def elect_zone_leader(distances: dict[str, float]) -> str:
    """The candidate nearest the centroid, from a map of agent id to centroid
    distance; ties break to the lower id."""
    if not distances:
        raise NoCandidatesError("no candidates for zone leadership")
    return min(distances, key=lambda aid: (distances[aid], aid))
