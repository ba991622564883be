"""Zone-leader election by minimum distance to the zone centroid.

``SuperLeader`` owns the super-leader's decisions: when an election opens and
closes, who wins from which tick, whether a leader suspecting its isolation
still holds the role, and which migration chains a balancing period plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional

from . import balance as bal
from .world import Cell, Zone, ZoneId, zone_centroid

SUPER = "super"


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


@dataclass(slots=True)
class Election:
    election_id: int
    reason: ElectionReason
    deadline: int
    candidacies: dict[str, tuple[float, int]] = field(default_factory=dict)  # distance, tick


@dataclass(slots=True, eq=False)
class SuperLeader:
    """An ``on_<kind>`` method reads one message (sender, payload), and ``step``
    runs once per bus step, read from `clock`; an election closes `timeout`
    steps after it opens. `publish` and `emit` are as ``ZoneRound``'s, and the
    engine sets each round's `emit`; no port reaches the engine or the bus."""
    timeout: int
    publish: Callable[[str, str, dict], Any]
    emit: Callable[..., None]
    clock: Callable[[], int]
    roles: dict[ZoneId, Optional[str]] = field(default_factory=dict)  # zone -> role holder
    elections: dict[ZoneId, Election] = field(default_factory=dict)
    next_election: int = 0
    deficits: dict[ZoneId, int] = field(default_factory=dict)  # last reported pending - idle
    idle_ids: dict[ZoneId, list[str]] = field(default_factory=dict)  # zones reporting this period
    controller_pending: dict[ZoneId, int] = field(default_factory=dict)
    mandate_counter: int = 0

    def start_election(self, zone: ZoneId, reason: ElectionReason) -> None:
        self.next_election += 1
        self.elections[zone] = Election(self.next_election, reason, self.clock() + self.timeout)
        self.publish(SUPER, "super/election",
                     {"kind": "solicit", "zone": zone, "election": self.next_election})

    def step(self) -> None:
        """Close each due election, in zone order: a `role` names the winner;
        with no candidate, the zone has no role holder."""
        if not self.elections:
            return
        now = self.clock()
        for zone in sorted(self.elections):
            st = self.elections[zone]
            if now < st.deadline:
                continue
            del self.elections[zone]
            if not st.candidacies:
                self.roles[zone] = None
                continue
            winner = elect_zone_leader({aid: d for aid, (d, _t) in st.candidacies.items()})
            since = max(t for _d, t in st.candidacies.values())
            self.roles[zone] = winner
            self.publish(SUPER, "super/election",
                         {"kind": "role", "zone": zone, "leader": winner, "since_tick": since})
            self.emit("Election", SUPER, zone, winner, since, st.reason.value)

    def on_job_notice(self, sender: str, payload: dict) -> None:
        # Unserved demand until a load report from the zone's leader pops it.
        zone = payload["zone"]
        self.controller_pending[zone] = self.controller_pending.get(zone, 0) + 1

    def on_load(self, sender: str, payload: dict) -> None:
        zone, idle_ids = payload["zone"], payload["idle_ids"]
        self.deficits[zone] = payload["pending"] - len(idle_ids)
        self.idle_ids[zone] = idle_ids
        self.controller_pending.pop(zone, None)
        self.emit("LoadReport", SUPER, zone, payload["pending"], len(idle_ids), payload["total"])

    def on_leader_loss(self, sender: str, payload: dict) -> None:
        if payload["zone"] not in self.elections:
            self.start_election(payload["zone"], ElectionReason.LEADER_DEAD)

    def on_stepdown(self, sender: str, payload: dict) -> None:
        zone = payload["zone"]
        if self.roles.get(zone) == sender:
            self.roles[zone] = None
        if zone not in self.elections:
            self.start_election(zone, ElectionReason.LEADER_MIGRATED)

    def on_candidacy(self, sender: str, payload: dict) -> None:
        st = self.elections.get(payload["zone"])
        if st is not None and st.election_id == payload["election"]:
            st.candidacies[sender] = (payload["distance"], payload["tick"])

    def on_suspect(self, sender: str, payload: dict) -> None:
        if self.roles.get(payload["zone"]) == sender:
            self.publish(SUPER, "super/election", {"kind": "suspect_ok", "zone": payload["zone"]})

    def plan_period(self) -> tuple[int, bool]:
        """Plan a balancing period's daisy chains on the loads delivered so
        far and publish a mandate per hop; (the largest deficit, starved).
        Chains are staffed only from zones heard from this period; stale
        rosters would mandate agents that have long since moved on."""
        idle_by_zone, self.idle_ids = self.idle_ids, {}
        deficits = dict(self.deficits)
        for zone, count in self.controller_pending.items():
            deficits[zone] = max(deficits.get(zone, 0), count)
        mandates, starved = bal.plan_daisy_chain(deficits, idle_by_zone,
                                                 start_id=self.mandate_counter)
        self.mandate_counter += len(mandates)
        for m in mandates:
            self.emit("Mandate", SUPER, m.id, m.agent, m.from_zone, m.to_zone)
            self.publish(SUPER, "super/mandates", {"kind": "mandate", "mandate": m})
        return max([d for d in deficits.values() if d > 0], default=0), starved
