"""Tick-synchronized leader-driven state replication primitives.

The decision functions here are pure; the engine wires them to the bus.
Snapshots are leader-authoritative: agents commit exactly the record set the
leader broadcast, which makes per-zone agreement hold by construction even
under message loss.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

from .planner import rank
from .trace import _q, _qn
from .world import Cell


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
# trace._LINES writes rows: agent, two cells, job or null, the finite priority
# by its repr, and the tick.
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
                _RECORD % (_q(agent), *position, *intent, _qn(job), priority, tick)
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
