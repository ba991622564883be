"""Tick-synchronized leader-driven state replication.

``ZoneRound``, the leader's side of a zone's round, owns its decisions: how
long to wait for members, when to suspect its own isolation, whom to mark
dead, what the snapshot holds and which jobs a tick solicits. It reaches the
run only through what it is given, never the engine or the bus; the
functions under it are pure. Snapshots are leader-authoritative: agents
commit exactly the record set the leader broadcast, which makes per-zone
agreement hold by construction even under message loss.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, NamedTuple, Optional

from .jobs import Bid, Job
from .planner import rank
from .trace import _q
from .world import Cell, ZoneId


class Liveness(Enum):
    ALIVE = "alive"
    DEAD = "dead"
    RECOVERING = "recovering"


class StateRecord(NamedTuple):
    agent: str
    position: Cell
    intent: Cell
    job: Optional[str]
    priority: float
    tick: int


# A record as json.dumps writes the NamedTuple, after a comma, formatted the way
# the trace's line writers (generated in trace.py from its schema table) write
# those shapes: agent, two cells, job or null, the finite priority by its repr,
# and the tick.
_RECORD = ",[%s,[%d,%d],[%d,%d],%s,%r,%d]"


@dataclass(frozen=True)
class ZoneSnapshot:
    tick: int
    records: tuple[StateRecord, ...]  # sorted by agent id
    _digest: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def digest(self) -> str:
        # Every roster member acknowledges the same snapshot, so compute once.
        if self._digest is None:
            # json.dumps((tick, *records), separators=(",", ":")).
            blob = "[%d%s]" % (self.tick, "".join([
                _RECORD % (_q(agent), *position, *intent, "null" if job is None else _q(job),
                            priority, tick)
                for agent, position, intent, job, priority, tick in self.records]))
            object.__setattr__(self, "_digest", hashlib.sha256(blob.encode()).hexdigest()[:16])
        return self._digest


def make_snapshot(tick: int, records: dict[str, StateRecord]) -> ZoneSnapshot:
    return ZoneSnapshot(tick=tick, records=tuple(records[a] for a in sorted(records)))


@dataclass(frozen=True)
class Advance:
    pass


@dataclass(frozen=True)
class Wait:
    pass


@dataclass(frozen=True)
class MarkDeadAndAdvance:
    missing: frozenset[str]


def leader_tick_decision(ack_set: set[str], expected: set[str], waited_steps: int,
                         timeout_steps: int) -> Advance | Wait | MarkDeadAndAdvance:
    """Advance when coverage is full, wait below the timeout, then mark the
    missing agents dead and advance over the reduced set."""
    if ack_set >= expected:
        return Advance()
    if waited_steps < timeout_steps:
        return Wait()
    return MarkDeadAndAdvance(missing=frozenset(expected - ack_set))


def tick_gap_requires_resync(local_tick: int, new_tick: int) -> bool:
    """A broadcast skipping past local+1 means a missed round."""
    return new_tick > local_tick + 1


def resolve_overlap_tick(tick_i: int, tick_j: int, prio_i: float, prio_j: float,
                         id_i: str, id_j: str) -> int:
    """Tick used when agents from different zones meet in an overlap region:
    the tick of the agent that `planner.rank` puts first."""
    return tick_i if rank(prio_i, id_i) < rank(prio_j, id_j) else tick_j


@dataclass(slots=True)
class ZoneState:
    """What a zone's leaders keep between rounds, and its pool of jobs."""
    leader: Optional[str] = None
    tick: int = 0
    snapshot: Optional[ZoneSnapshot] = None
    pool: dict[str, Job] = field(default_factory=dict)


@dataclass(slots=True, eq=False)
class ZoneRound:
    """The leader's side of one round of a zone from tick `tick`: the members'
    states, a broadcast of the next tick, their acks and bids. ``on_<kind>``
    reads one message (sender, payload). Ports: `publish` (sender, topic,
    payload), `emit` (kind, actor, *values), `mark_dead` (the member's job id)."""
    zone: ZoneId
    leader: str
    tick: int
    expected: set[str]  # the members the round waits for, the leader among them
    state: ZoneState
    topic: str  # the zone's global_tick topic
    timeout: int
    publish: Callable[[str, str, dict], Any]
    emit: Callable[..., None]
    mark_dead: Callable[[str], Optional[str]]
    states: dict[str, StateRecord] = field(default_factory=dict)
    tick_acks: set[str] = field(default_factory=set)
    # From the broadcast on: every solicited job id, in id order, to its bids.
    bids: dict[str, list[Bid]] = field(default_factory=dict)
    # Bus steps waited: from 1 for the states, from 0 for the acks after the
    # broadcast, so the states half times out one step sooner.
    waited: int = 1
    probe_sent: bool = False
    confirm_ok: bool = False
    broadcast: bool = False

    def on_state(self, sender: str, payload: dict) -> None:
        if sender in self.expected:
            self.states[sender] = payload["record"]

    def on_tick_ack(self, sender: str, payload: dict) -> None:
        self.tick_acks.add(sender)
        for job_id, cost in payload["bids"]:
            offers = self.bids.get(job_id)
            if offers is not None:  # solicited in this round's broadcast
                self._bid(offers, sender, job_id, cost)

    def on_resync_req(self, sender: str, payload: dict) -> None:
        if self.state.snapshot is not None:
            self.publish(self.leader, self.topic,
                         {"kind": "resync_resp", "target": sender, "tick": self.state.tick})

    def on_suspect_ok(self, sender: str, payload: dict) -> None:
        self.confirm_ok = True

    def step(self) -> bool:
        """One bus step of the half in progress, states then acks; True once
        it is over. Each half waits by one rule and marks the silent dead."""
        heard = self.tick_acks if self.broadcast else self.states.keys()
        decision = leader_tick_decision(heard | {self.leader}, self.expected, self.waited,
                                        self.timeout)
        if isinstance(decision, Wait):
            self.waited += 1
            return False
        if isinstance(decision, MarkDeadAndAdvance):
            if not self.broadcast and not self.states:
                # Zero contact: suspect own isolation before declaring a
                # whole zone dead; the super-leader acts as the arbiter.
                if not self.probe_sent:
                    self.probe_sent = True
                    self.publish(self.leader, "super/inbox", {"kind": "suspect", "zone": self.zone})
                if not self.confirm_ok:
                    return False
            for aid in sorted(decision.missing):
                self.emit("MarkDead", self.leader, self.zone, aid, self.mark_dead(aid))
                self.expected.discard(aid)
        return True

    def broadcast_tick(self, record: StateRecord,
                       cost: Callable[[Cell, Cell], Optional[int]]) -> None:
        """The leader, of record `record`, broadcasts the next tick with the
        snapshot, the roster and the pool's unassigned jobs, and bids on them
        by `cost` if it holds no job."""
        pool = self.state.pool
        snapshot = make_snapshot(self.tick, {**self.states, self.leader: record})
        new_tick = self.tick + 1
        pending = sorted(j for j, job in pool.items() if job.assign_tick is None)
        self.bids = {job_id: [] for job_id in pending}
        self.publish(self.leader, self.topic,
                     {"kind": "tick", "new_tick": new_tick, "roster": frozenset(self.expected),
                      "snapshot": snapshot, "solicit": [(j, pool[j].location) for j in pending]})
        if record.job is None:
            for job_id, offers in self.bids.items():
                self._bid(offers, self.leader, job_id, cost(record.position, pool[job_id].location))
        self.state.tick = new_tick
        self.state.snapshot = snapshot
        self.broadcast = True
        self.waited = 0
        self.emit("TickBroadcast", self.leader, self.zone, new_tick, tuple(sorted(self.expected)),
                  snapshot.digest())

    def _bid(self, offers: list[Bid], agent: str, job_id: str, cost: Optional[int]) -> None:
        offers.append(Bid(agent, job_id, cost))
        self.emit("Bid", agent, job_id, cost, self.zone)
