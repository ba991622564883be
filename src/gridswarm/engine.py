"""Deterministic tick-loop orchestrator.

One engine round attempts to advance every zone's logical tick by one via the
leader-gated consensus conversation on the simulated bus, then applies the
remaining phases in fixed order: scripted faults, job spawns, bid assignment,
periodic load balancing, per-zone conflict resolution, simultaneous movement,
and completion checks. Every run is a pure function of (config, seed).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple, Optional

from . import balance as bal
from . import consensus as cons
from . import election as elec
from . import jobs as jobmod
from . import planner as plan
from .netsim import Bus, Envelope, derive_seed, zone_topic
from .scenario import ScenarioConfig, scenario_from_dict
from .trace import TraceWriter
from .world import Cell, ZoneId, build_partition, home_zone, subscribed_zones

SUPER = "super"
CONTROLLER = "controller"
TO_SUPER = ("super/loads", "super/inbox")  # the topics only the super-leader reads


@dataclass
class Metrics:
    completed: bool = False
    makespan: Optional[int] = None
    rounds: int = 0
    migrations: int = 0
    collisions: int = 0
    ticks_halted: int = 0
    starvation: bool = False
    messages: dict[str, int] = field(default_factory=dict)
    job_waits: dict[str, tuple[Optional[int], Optional[int]]] = field(default_factory=dict)
    deficit_history: list[int] = field(default_factory=list)  # max zone deficit per period

    def flat(self) -> dict[str, Any]:
        waits_a = [w[0] for w in self.job_waits.values() if w[0] is not None]
        waits_c = [w[1] for w in self.job_waits.values() if w[1] is not None]
        out: dict[str, Any] = {
            "completed": self.completed,
            "makespan": self.makespan,
            "rounds": self.rounds,
            "migrations": self.migrations,
            "collisions": self.collisions,
            "ticks_halted": self.ticks_halted,
            "starvation": self.starvation,
            "mean_wait_assign": round(sum(waits_a) / len(waits_a), 3) if waits_a else None,
            "mean_wait_complete": round(sum(waits_c) / len(waits_c), 3) if waits_c else None,
            "deficit_history": ",".join(str(d) for d in self.deficit_history),
        }
        for topic, count in sorted(self.messages.items()):
            out[f"messages.{topic}"] = count
        return out


@dataclass(slots=True)
class AgentSim:
    id: str
    position: Cell
    powered: bool = True
    status: cons.Liveness = cons.Liveness.ALIVE
    local_tick: int = 0
    committed_round: int = -1
    stale_rounds: int = 0
    is_leader: bool = False  # leads its home zone
    solo_rounds: int = 0
    home: ZoneId = (0, 0)
    # Zones whose expanded bounds hold the agent, in zone order: its planning
    # groups and the zones its state publishes go to.
    subscribed: tuple[ZoneId, ...] = ()
    job: Optional[jobmod.Job] = None
    mandate: Optional[bal.MigrationMandate] = None
    goal: Optional[Cell] = None
    path: Optional[list[Cell]] = None  # the cells still ahead, the next one last
    stuck: int = 0

    @property
    def idle(self) -> bool:
        return self.job is None

    @property
    def priority(self) -> float:
        return 1.0 if self.job is None else self.job.priority


@dataclass(slots=True)
class LeaderRound:
    zone: ZoneId
    leader: str
    tick: int
    expected: set[str]
    states: dict[str, cons.StateRecord] = field(default_factory=dict)
    tick_acks: set[str] = field(default_factory=set)
    # From the broadcast on: every solicited job id, in id order, to its bids.
    bids: dict[str, list[jobmod.Bid]] = field(default_factory=dict)
    # Bus steps waited: from 1 for the states, from 0 for the acks after the
    # broadcast, so the states half times out one step sooner.
    waited: int = 1
    probe_sent: bool = False
    confirm_ok: bool = False
    broadcast: bool = False


class ZoneTopics(NamedTuple):
    """A zone's topic names, formatted once per run."""
    db_update: str
    global_tick: str
    tick_ack: str


@dataclass(slots=True)
class ZoneState:
    leader: Optional[str] = None
    tick: int = 0
    snapshot: Optional[cons.ZoneSnapshot] = None
    pool: dict[str, jobmod.Job] = field(default_factory=dict)


@dataclass(slots=True)
class ElectionState:
    election_id: int
    reason: elec.ElectionReason
    deadline: int
    candidacies: dict[str, tuple[float, int]] = field(default_factory=dict)


class SuperState:
    def __init__(self, zones: Iterable[ZoneId]) -> None:
        self.roles: dict[ZoneId, Optional[str]] = dict.fromkeys(zones)
        self.elections: dict[ZoneId, ElectionState] = {}
        self.next_election = 0
        # Each zone's last reported pending - idle, kept while it is silent.
        self.deficits: dict[ZoneId, int] = {}
        self.idle_ids: dict[ZoneId, list[str]] = {}  # zones reporting this period
        self.controller_pending: dict[ZoneId, int] = {}
        self.mandate_counter = 0


class Simulation:
    """One deterministic scenario run."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.cfg = config
        self.grid = config.grid
        self.partition = build_partition(self.grid, config.rows, config.cols,
                                         config.overlap)
        self.timeout = config.timeout_steps
        self.trace = TraceWriter()
        self.metrics = Metrics()
        self.bus = Bus(config.network, config.seed)
        self.round = 0
        self.leader_rounds: dict[ZoneId, LeaderRound] = {}  # this round's, by zone
        self.costs = jobmod.CostField(self.grid)
        self.jobs: dict[str, jobmod.Job] = {}
        # Stable on spawn_tick, so jobs keep their file order within a tick.
        self._spawn_order = sorted(config.jobs, key=lambda s: s.spawn_tick)
        self._spawn_idx = 0

        # Zones in row-major order and agents by id: the canonical orders
        # every phase iterates in.
        self.zones = {z: ZoneState() for z in self.partition.zone_ids()}
        self._zone_topics = {z: ZoneTopics(*(zone_topic(z, kind) for kind in ZoneTopics._fields))
                             for z in self.zones}
        # (zone, kind) of every topic; the kind is also its message-count class.
        self._topics: dict[str, tuple[Optional[ZoneId], str]] = {
            topic: (z, kind) for z, topics in self._zone_topics.items()
            for kind, topic in zip(ZoneTopics._fields, topics)}
        for topic in ("super/loads", "super/election", "super/mandates"):
            self._topics[topic] = (None, topic.replace("/", "_"))
        self._topics["super/inbox"] = (None, "super_election")
        self.sup = SuperState(self.zones)

        self.bus.register(SUPER)
        self.bus.register(CONTROLLER)
        for topic in TO_SUPER:
            self.bus.subscribe(SUPER, topic)
        self.agents: dict[str, AgentSim] = {}
        for aid, start in sorted(config.agents):
            a = self.agents[aid] = AgentSim(id=aid, position=start)
            a.home = home_zone(start, self.partition)
            a.subscribed = subscribed_zones(start, self.partition)
            self.bus.register(aid)
            self.bus.subscribe(aid, "super/election")
            self.bus.subscribe(aid, "super/mandates")
            self.bus.subscribe(aid, self._zone_topics[a.home].global_tick)

    # ------------------------------------------------------------------ utils

    def _demote(self, a: AgentSim) -> None:
        """Step `a` down from leading its home zone."""
        a.is_leader = False
        topics = self._zone_topics[a.home]
        self.bus.unsubscribe(a.id, topics.db_update)
        self.bus.unsubscribe(a.id, topics.tick_ack)
        zs = self.zones[a.home]
        if zs.leader == a.id:
            zs.leader = None

    def _homed(self, zone: ZoneId) -> Iterable[AgentSim]:
        """The agents whose home is `zone`, by id: its global_tick subscribers."""
        return map(self.agents.__getitem__,
                   self.bus.subscribers(self._zone_topics[zone].global_tick))

    def _members(self, zone: ZoneId) -> list[AgentSim]:
        return [a for a in self._homed(zone) if a.status is cons.Liveness.ALIVE]

    def _active_leader(self, zone: ZoneId) -> Optional[AgentSim]:
        # A `role` message sets the zone's leader only on an agent that takes
        # office there, and _demote clears it: it leads from inside the zone.
        a = self.agents.get(self.zones[zone].leader)
        return a if a is not None and a.powered and a.status is cons.Liveness.ALIVE else None

    @staticmethod
    def _next_cell(a: AgentSim) -> Cell:
        """The next cell on `a`'s path, or its own cell at the path's end."""
        return a.path[-1] if a.path else a.position

    @staticmethod
    def _drop_job(a: AgentSim) -> None:
        a.job = a.goal = a.path = None

    def _commit(self, a: AgentSim, tick: int) -> None:
        """`a` commits zone-tick `tick` in this round."""
        a.local_tick = tick
        a.committed_round = self.round
        a.stale_rounds = 0

    def _record_for(self, a: AgentSim) -> cons.StateRecord:
        return cons.StateRecord(a.id, a.position, self._next_cell(a),
                                None if a.job is None else a.job.id, a.priority,
                                a.local_tick)

    def _force_rng(self, agent: str) -> random.Random:
        return random.Random(derive_seed(self.cfg.seed, "force", self.round, agent))

    # ------------------------------------------------------------ run control

    def run(self) -> tuple[Metrics, TraceWriter]:
        self._bootstrap()
        while self.round < self.cfg.max_ticks and not self._all_jobs_done():
            self.round += 1
            self._run_round()
        self.metrics.rounds = self.round
        self.metrics.completed = self._all_jobs_done()
        messages = self.metrics.messages
        for topic, count in self.bus.published().items():
            cls = self._topics[topic][1]
            messages[cls] = messages.get(cls, 0) + count
        self.metrics.job_waits = {
            j.id: tuple(None if t is None else t - j.spawn_tick
                        for t in (j.assign_tick, j.completion_tick))
            for j in self.jobs.values()}
        if self.metrics.completed and self.jobs:
            self.metrics.makespan = (
                max(j.completion_tick for j in self.jobs.values())
                - min(j.spawn_tick for j in self.jobs.values()))
        if not self.metrics.completed and not any(
                a.powered for a in self.agents.values()):
            self.metrics.starvation = True
        return self.metrics, self.trace

    def _all_jobs_done(self) -> bool:
        return (self._spawn_idx == len(self._spawn_order)
                and not any(zs.pool for zs in self.zones.values()))

    def _bootstrap(self) -> None:
        for zone in self.zones:
            self._start_election(zone, elec.ElectionReason.BOOTSTRAP)
        self._pump(2 * self.timeout + 6)

    def _pump(self, max_steps: int) -> None:
        """Step the bus, the leaders' rounds and the super-leader until every
        round is complete and the bus is quiet, or `max_steps` run out."""
        open_rounds = list(self.leader_rounds.values())
        for _ in range(max_steps):
            for env, recipients in self.bus.step_deliver():
                self._deliver(env, recipients)
            open_rounds = [lr for lr in open_rounds if not self._leader_eval(lr)]
            self._super_eval()
            if not open_rounds and not self.sup.elections and self.bus.pending() == 0:
                break

    # ------------------------------------------------------------- the phases

    def _run_round(self) -> None:
        self._phase_consensus()
        self._phase_faults()
        self._phase_spawns()
        self._phase_assign()
        self._phase_balance()
        proposals, movable = self._phase_plan()
        self._phase_move(proposals, movable)
        self._phase_complete()

    # Phase 1: one consensus round per led zone, over shared bus steps.
    def _phase_consensus(self) -> None:
        self.leader_rounds = rounds = {}
        for zone in self.zones:
            leader = self._active_leader(zone)
            if leader is None:
                continue
            expected = {m.id for m in self._members(zone)}
            rounds[zone] = LeaderRound(zone=zone, leader=leader.id,
                                       tick=self.zones[zone].tick, expected=expected)
        publish = self.bus.publish
        zone_topics = self._zone_topics
        for aid, a in self.agents.items():
            if not a.powered:
                continue
            if a.status is cons.Liveness.ALIVE:
                rec = self._record_for(a)
                self.trace.emit(self.round, "StatePublish", aid, a.home, tuple(a.position),
                                tuple(rec.intent), rec.job, a.local_tick)
                state = {"kind": "state", "record": rec}  # one payload for every zone
                for z in a.subscribed:
                    publish(aid, zone_topics[z].db_update, state)
            else:
                publish(aid, zone_topics[a.home].db_update, {"kind": "resync_req"})
        self._pump(3 * self.timeout + 6)
        for zone in self.zones:
            lr = rounds.get(zone)
            has_live = any(a.powered and a.status is not cons.Liveness.DEAD
                           for a in self._homed(zone))
            if has_live and (lr is None or not lr.broadcast):
                self.metrics.ticks_halted += 1
            if lr is not None and not lr.broadcast and lr.probe_sent and not lr.confirm_ok:
                # Probe unanswered: the leader halted this round suspecting
                # its own isolation; after two such rounds it steps down.
                leader = self.agents[lr.leader]
                leader.solo_rounds += 1
                if leader.solo_rounds >= 2 and leader.is_leader:
                    self._demote(leader)
                    self.bus.publish(lr.leader, "super/inbox", {"kind": "stepdown", "zone": zone})
        # Cross-round staleness drives leader-loss reporting; _commit resets it.
        for aid, a in self.agents.items():
            if not a.powered or a.is_leader or a.committed_round == self.round:
                continue
            a.stale_rounds += 1
            if a.stale_rounds >= 2 and a.stale_rounds % 2 == 0:
                self.bus.publish(aid, "super/inbox",
                                 {"kind": "leader_loss", "zone": a.home})

    def _leader_eval(self, lr: LeaderRound) -> bool:
        """One bus step of a round; True once the round is over. Each half,
        states then acks, waits for its members by one rule and marks the
        silent ones dead when it runs out."""
        if not self.agents[lr.leader].is_leader:  # demoted mid-round by a role broadcast
            return True
        heard = lr.tick_acks if lr.broadcast else lr.states.keys()
        decision = cons.leader_tick_decision(
            heard | {lr.leader}, lr.expected, lr.waited, self.timeout)
        if isinstance(decision, cons.Wait):
            lr.waited += 1
            return False
        if isinstance(decision, cons.MarkDeadAndAdvance):
            if not lr.broadcast and not lr.states:
                # Zero contact: suspect own isolation before declaring a
                # whole zone dead; the super-leader acts as the arbiter.
                if not lr.probe_sent:
                    lr.probe_sent = True
                    self.bus.publish(lr.leader, "super/inbox",
                                     {"kind": "suspect", "zone": lr.zone})
                if not lr.confirm_ok:
                    return False
            self._mark_dead(lr, decision.missing)
        if lr.broadcast:
            return True
        self._leader_broadcast(lr)
        return False

    def _mark_dead(self, lr: LeaderRound, missing: Iterable[str]) -> None:
        for aid in sorted(missing):
            a = self.agents[aid]
            a.status = cons.Liveness.DEAD
            job = a.job
            if job is not None:
                job.assign_tick = None
                self._drop_job(a)
            self.trace.emit(self.round, "MarkDead", lr.leader, lr.zone, aid,
                            None if job is None else job.id)
            lr.expected.discard(aid)

    def _leader_broadcast(self, lr: LeaderRound) -> None:
        leader = self.agents[lr.leader]
        zs = self.zones[lr.zone]
        records = dict(lr.states)
        records[lr.leader] = self._record_for(leader)
        snapshot = cons.make_snapshot(lr.tick, records)
        new_tick = lr.tick + 1
        pending = sorted(j for j, job in zs.pool.items() if job.assign_tick is None)
        lr.bids = {job_id: [] for job_id in pending}
        roster = tuple(sorted(lr.expected))
        self.bus.publish(lr.leader, self._zone_topics[lr.zone].global_tick,
                         {"kind": "tick", "new_tick": new_tick,
                          "roster": frozenset(lr.expected), "snapshot": snapshot,
                          "solicit": [(j, zs.pool[j].location) for j in pending]})
        if leader.idle:
            for job_id in pending:
                self._bid(lr, lr.leader, job_id,
                          self.costs.cost(leader.position, zs.pool[job_id].location))
        zs.tick = new_tick
        zs.snapshot = snapshot
        self._commit(leader, new_tick)
        lr.broadcast = True
        lr.waited = 0
        self.trace.emit(self.round, "TickBroadcast", lr.leader, lr.zone, new_tick, roster,
                        snapshot.digest())

    def _bid(self, lr: LeaderRound, agent: str, job_id: str, cost: Optional[int]) -> None:
        lr.bids[job_id].append(jobmod.Bid(agent, job_id, cost))
        self.trace.emit(self.round, "Bid", agent, job_id, cost, lr.zone)

    # ---------------------------------------------------------- bus handlers

    def _deliver(self, env: Envelope, recipients: tuple[str, ...]) -> None:
        """Hand one envelope to its readers, in id order. A message's kind
        names its readers:
        - db_update and tick_ack, the bulk of the traffic, and suspect_ok:
          the zone's round leader
        - tick: the recipients whose home is the zone
        - resync_resp: its target; mandate: its agent, ``m.agent``
        - solicit: the zone's home agents; role: those of them that win or lead
        - super/loads and super/inbox: the super-leader
        They are picked on arrival, as an agent can change home in flight, and
        an agent reads only if powered and among the sorted `recipients`,
        fixed at publish without the sender and whoever a partition cut off."""
        zone, kind = self._topics[env.topic]
        if kind == "db_update" or kind == "tick_ack":
            lr = self.leader_rounds.get(zone)
            if (lr is not None and self.agents[lr.leader].powered
                    and _among(lr.leader, recipients)):
                self._handle_round_msg(lr, kind, env)
            return
        if env.topic in TO_SUPER:
            self._handle_super(env)
            return
        payload = env.payload
        msg = payload.get("kind")
        if msg == "tick":
            self._handle_tick(zone, payload, recipients)
            return
        if msg == "resync_resp":
            ids = (payload["target"],)
        elif kind == "super_mandates":
            ids = (payload["mandate"].agent,)
        elif msg in ("solicit", "role"):
            ids = [a.id for a in self._homed(payload["zone"])
                   if msg == "solicit" or a.is_leader or a.id == payload["leader"]]
        else:  # suspect_ok
            lr = self.leader_rounds.get(payload["zone"])
            ids = () if lr is None else (lr.leader,)
        for aid in ids:
            a = self.agents[aid]
            if not a.powered or not _among(aid, recipients):
                continue
            if kind == "global_tick":
                self._handle_global_tick(a, zone, payload)
            elif kind == "super_election":
                self._handle_election_msg(a, payload)
            else:
                self._handle_mandate_msg(a, payload["mandate"])

    def _handle_round_msg(self, lr: LeaderRound, kind: str, env: Envelope) -> None:
        """The round's leader reads an ack, a state or a resync request."""
        if kind == "tick_ack":
            lr.tick_acks.add(env.sender)
            for job_id, cost in env.payload["bids"]:
                if job_id in lr.bids:  # solicited in this round's broadcast
                    self._bid(lr, env.sender, job_id, cost)
        elif env.payload["kind"] == "state":
            if env.sender in lr.expected:
                lr.states[env.sender] = env.payload["record"]
        else:  # resync_req
            zs = self.zones[lr.zone]
            if zs.snapshot is not None:
                self.bus.publish(lr.leader, self._zone_topics[lr.zone].global_tick,
                                 {"kind": "resync_resp", "target": env.sender, "tick": zs.tick})

    def _handle_tick(self, zone: ZoneId, payload: dict, recipients: tuple[str, ...]) -> None:
        """The zone's home agents among `recipients` read one tick broadcast,
        in id order, from one read of it. A powered member that is alive and
        not a leader asks to resync if it is off the roster or missed a tick,
        and otherwise commits a newer tick and acks it, with bids if idle."""
        new_tick = payload["new_tick"]
        roster: frozenset[str] = payload["roster"]
        solicit = payload["solicit"]
        digest = payload["snapshot"].digest()
        topics = self._zone_topics[zone]
        publish = self.bus.publish
        alive = cons.Liveness.ALIVE
        for aid in recipients:
            a = self.agents[aid]
            # A recovering agent rejoins through the resync path.
            if a.home != zone or not a.powered or a.is_leader or a.status is not alive:
                continue
            if aid not in roster or cons.tick_gap_requires_resync(a.local_tick, new_tick):
                a.status = cons.Liveness.RECOVERING
                publish(aid, topics.db_update, {"kind": "resync_req"})
                continue
            if new_tick <= a.local_tick:
                continue
            self._commit(a, new_tick)
            bids = ([[job_id, self.costs.cost(a.position, loc)] for job_id, loc in solicit]
                    if a.idle else [])
            self.trace.emit(self.round, "TickAck", aid, zone, new_tick, digest)
            publish(aid, topics.tick_ack, {"bids": bids})

    def _handle_global_tick(self, a: AgentSim, zone: ZoneId, payload: dict) -> None:
        """`a`, the target of a resync reply, rejoins at its tick."""
        if a.status is cons.Liveness.ALIVE:
            return
        a.status = cons.Liveness.ALIVE
        self._commit(a, payload["tick"])
        # Rejoins the leader's expected set from the next round on; it has
        # not published state this round, so gating on it would stall.
        self.trace.emit(self.round, "Resync", a.id, zone, payload["tick"])

    def _handle_election_msg(self, a: AgentSim, payload: dict) -> None:
        kind, zone = payload["kind"], payload["zone"]
        if kind == "solicit":
            if a.status is cons.Liveness.ALIVE:
                dist = elec.centroid_distance(a.position, self.partition.zone(zone))
                self.bus.publish(a.id, "super/inbox",
                                 {"kind": "candidacy", "zone": zone,
                                  "election": payload["election"], "distance": dist,
                                  "tick": a.local_tick})
        elif kind == "suspect_ok":
            self.leader_rounds[zone].confirm_ok = True
        elif a.id != payload["leader"]:  # a role naming another: the leader steps down
            self._demote(a)
        elif a.status is cons.Liveness.ALIVE:  # the role's winner takes office
            a.is_leader = True
            a.solo_rounds = 0
            zs = self.zones[zone]
            zs.leader = a.id
            zs.tick = max(zs.tick, payload["since_tick"])
            if zs.tick > a.local_tick:
                self.trace.emit(self.round, "Resync", a.id, zone, zs.tick)
                a.local_tick = zs.tick
            topics = self._zone_topics[zone]
            self.bus.subscribe(a.id, topics.db_update)
            self.bus.subscribe(a.id, topics.tick_ack)

    def _handle_mandate_msg(self, a: AgentSim, m: bal.MigrationMandate) -> None:
        if not a.idle or a.status is not cons.Liveness.ALIVE or a.home != m.from_zone:
            return  # busy, dead, or already moved: the mandate lapses
        a.mandate = m
        # Inside the target zone, so _after_move clears it on arrival.
        a.goal = bal.nearest_free_cell(self.grid, self.partition.zone(m.to_zone))
        a.path = None

    def _handle_super(self, env: Envelope) -> None:
        payload = env.payload
        kind, zone = payload["kind"], payload["zone"]
        if kind == "job_notice":
            # Counts as unserved demand until a leader's load report covers
            # the zone again; a fresh report pops the counter.
            self.sup.controller_pending[zone] = (
                self.sup.controller_pending.get(zone, 0) + 1)
        elif kind == "load":
            idle_ids = payload["idle_ids"]
            self.sup.deficits[zone] = payload["pending"] - len(idle_ids)
            self.sup.idle_ids[zone] = idle_ids
            self.sup.controller_pending.pop(zone, None)
            self.trace.emit(self.round, "LoadReport", SUPER, zone, payload["pending"],
                            len(idle_ids), payload["total"])
        elif kind == "leader_loss":
            if zone not in self.sup.elections:
                self._start_election(zone, elec.ElectionReason.LEADER_DEAD)
        elif kind == "stepdown":
            if self.sup.roles.get(zone) == env.sender:
                self.sup.roles[zone] = None
            if zone not in self.sup.elections:
                self._start_election(zone, elec.ElectionReason.LEADER_MIGRATED)
        elif kind == "candidacy":
            st = self.sup.elections.get(zone)
            if st is not None and st.election_id == payload["election"]:
                st.candidacies[env.sender] = (payload["distance"], payload["tick"])
        elif kind == "suspect":
            if self.sup.roles.get(zone) == env.sender:
                self.bus.publish(SUPER, "super/election", {"kind": "suspect_ok", "zone": zone})

    def _start_election(self, zone: ZoneId, reason: elec.ElectionReason) -> None:
        self.sup.next_election += 1
        self.sup.elections[zone] = ElectionState(
            election_id=self.sup.next_election, reason=reason,
            deadline=self.bus.now + self.timeout)
        self.bus.publish(SUPER, "super/election",
                         {"kind": "solicit", "zone": zone,
                          "election": self.sup.next_election})

    def _super_eval(self) -> None:
        if not self.sup.elections:
            return
        for zone in sorted(self.sup.elections):
            st = self.sup.elections[zone]
            if self.bus.now < st.deadline:
                continue
            del self.sup.elections[zone]
            if not st.candidacies:
                self.sup.roles[zone] = None
                continue
            winner = elec.elect_zone_leader(
                {aid: d for aid, (d, _t) in st.candidacies.items()})
            since = max(t for _d, t in st.candidacies.values())
            self.sup.roles[zone] = winner
            self.bus.publish(SUPER, "super/election",
                             {"kind": "role", "zone": zone, "leader": winner,
                              "since_tick": since})
            self.trace.emit(self.round, "Election", SUPER, zone, winner, since,
                            st.reason.value)

    # Phase 2: scripted faults.
    def _phase_faults(self) -> None:
        for f in self.cfg.faults:
            if f.tick != self.round:
                continue
            if f.kind == "kill":
                a = self.agents[f.agent]
                a.powered = False
                if a.is_leader:  # a rebooted robot does not retain leadership
                    self._demote(a)
            elif f.kind == "revive":
                a = self.agents[f.agent]
                a.powered = True
                if a.status is cons.Liveness.ALIVE:
                    # Never marked dead: a stale tick will trip the gap check.
                    a.stale_rounds = 0
            elif f.kind == "partition":
                self.bus.set_partition(f.groups)
            elif f.kind == "heal":
                self.bus.set_partition(())

    # Phase 3: job spawns from the independent controller.
    def _phase_spawns(self) -> None:
        while self._spawn_idx < len(self._spawn_order):
            spec = self._spawn_order[self._spawn_idx]
            if spec.spawn_tick > self.round:
                break
            self._spawn_idx += 1
            job_id = f"j{self._spawn_idx - 1:03d}"
            try:
                job = jobmod.spawn_job(self.grid, job_id, spec.location,
                                       spec.priority, self.round)
            except jobmod.SpawnRejected:
                self.trace.emit(self.round, "JobSpawn", CONTROLLER, job_id,
                                tuple(spec.location), spec.priority, None, True)
                continue
            zone = home_zone(job.location, self.partition)
            self.jobs[job_id] = job
            self.zones[zone].pool[job_id] = job
            self.trace.emit(self.round, "JobSpawn", CONTROLLER, job_id,
                            tuple(job.location), job.priority, zone, False)
            self.bus.publish(CONTROLLER, "super/loads",
                             {"kind": "job_notice", "zone": zone})

    # Phase 4: leaders assign solicited jobs from bus-delivered bids.
    def _phase_assign(self) -> None:
        for zone, lr in self.leader_rounds.items():
            if not lr.broadcast:
                continue
            leader = self._active_leader(zone)
            if leader is None:
                continue
            zs = self.zones[zone]
            for job_id, offers in lr.bids.items():
                # An agent assigned earlier in this loop holds a job: not idle.
                bids = [b for b in offers if self.agents[b.agent].idle
                        and self.agents[b.agent].status is cons.Liveness.ALIVE]
                best = jobmod.choose_assignee(bids)
                if best is None:
                    continue
                a = self.agents[best.agent]
                job = zs.pool[job_id]
                job.assign_tick = self.round
                a.job = job
                a.goal = job.location
                a.path = None
                a.mandate = None  # assignment takes precedence over migration
                self.trace.emit(self.round, "Assign", leader.id, job_id, best.agent, best.cost,
                                zone)

    # Phase 5: periodic load reporting and daisy-chain planning.
    def _phase_balance(self) -> None:
        if self.round % self.cfg.balance_period != 0:
            return
        for zone in self.zones:
            leader = self._active_leader(zone)
            if leader is None:
                continue
            members = self._members(zone)
            pending = sum(1 for j in self.zones[zone].pool.values()
                          if j.assign_tick is None)
            idle_ids = [m.id for m in members if m.idle and m.mandate is None and m.powered]
            self.bus.publish(leader.id, "super/loads",
                             {"kind": "load", "zone": zone, "pending": pending,
                              "total": len(members), "idle_ids": idle_ids})
        # The super-leader plans on the loads delivered so far (previous
        # period's reports); this period's reports arrive next round. Chains
        # are staffed only from zones heard from this period; stale rosters
        # would mandate agents that have long since moved on.
        idle_by_zone = self.sup.idle_ids
        self.sup.idle_ids = {}
        deficits = dict(self.sup.deficits)
        for zone, count in self.sup.controller_pending.items():
            deficits[zone] = max(deficits.get(zone, 0), count)
        self.metrics.deficit_history.append(
            max([d for d in deficits.values() if d > 0], default=0))
        mandates, starved = bal.plan_daisy_chain(
            deficits, idle_by_zone, start_id=self.sup.mandate_counter)
        self.sup.mandate_counter += len(mandates)
        if starved:
            self.metrics.starvation = True
        for m in mandates:
            self.trace.emit(self.round, "Mandate", SUPER, m.id, m.agent, m.from_zone,
                            m.to_zone)
            self.bus.publish(SUPER, "super/mandates", {"mandate": m})

    # Phases 6-7: per-zone conflict resolution, then simultaneous movement.
    def _phase_plan(self) -> tuple[dict[str, Cell], set[str]]:
        # Powered-off agents sit still indefinitely: plan around them.
        off = {a.position for a in self.agents.values() if not a.powered}
        proposals: dict[str, Cell] = {}
        movable: set[str] = set()
        # A zone's group: powered agents inside its expanded bounds.
        groups: dict[ZoneId, list[plan.KinematicState]] = {z: [] for z in self.zones}
        for aid, a in self.agents.items():
            can_move = (a.powered and a.status is cons.Liveness.ALIVE
                        and a.committed_round == self.round)
            intent = a.position  # an agent that cannot move keeps its cell
            if can_move:
                movable.add(aid)
                if a.goal is not None and a.position != a.goal and not a.path:
                    # Around powered-off agents, or the plain route if they box it in.
                    path = (plan.plan_path(self.grid, a.position, a.goal, off)
                            or plan.plan_path(self.grid, a.position, a.goal))
                    a.path = path[:0:-1] if path else None
                intent = self._next_cell(a)
            proposals[aid] = intent
            if a.powered:
                state = plan.KinematicState(aid, a.position, intent, a.priority, a.stuck,
                                            a.goal is not None and can_move)
                for zone in a.subscribed:
                    groups[zone].append(state)
        for zone, group in groups.items():
            members = {s.agent for s in group if self.agents[s.agent].home == zone}
            if not members or len(group) < 2:
                continue
            log: list = []
            result = plan.resolve_zone_step(group, self.grid, self._force_rng,
                                            log=log, blocked=off)
            for aid in members & movable:
                proposals[aid] = result[aid]
            for kind, keeper, yielder in log:
                if yielder not in members:
                    continue
                ka, ya = self.agents[keeper], self.agents[yielder]
                if ka.home != ya.home:
                    tick_used = cons.resolve_overlap_tick(
                        ya.local_tick, ka.local_tick, ya.priority, ka.priority,
                        yielder, keeper)
                else:
                    tick_used = self.zones[ya.home].tick
                kind_name = kind.value if isinstance(kind, plan.ConflictKind) else kind
                self.trace.emit(self.round, "ConflictResolved", yielder, zone, kind_name,
                                keeper, yielder, tick_used)
        return proposals, movable

    def _phase_move(self, proposals: dict[str, Cell], movable: set[str]) -> None:
        # Non-movable agents were pinned to their own cell by _phase_plan.
        order = [(a.id, a.position) for a in
                 sorted(self.agents.values(), key=lambda a: plan.rank(a.priority, a.id))]
        occ = {a.position: a.id for a in self.agents.values()}
        final = plan.reserve_moves(order, proposals, occ, self.grid)
        for aid, a in self.agents.items():
            target = final[aid]
            if target != a.position:
                self.trace.emit(self.round, "Move", aid, tuple(a.position), tuple(target))
                if a.path and a.path[-1] == target:
                    a.path.pop()
                else:
                    a.path = None
                a.position = target
                a.stuck = 0
                self._after_move(a)
            else:
                if aid in movable and a.goal is not None and a.position != a.goal:
                    a.stuck += 1
                else:
                    a.stuck = 0
        positions = [a.position for a in self.agents.values() if a.powered]
        self.metrics.collisions += len(positions) - len(set(positions))

    def _after_move(self, a: AgentSim) -> None:
        new_home = home_zone(a.position, self.partition)
        if new_home != a.home:
            if a.is_leader:
                self._demote(a)
                self.bus.publish(a.id, "super/inbox", {"kind": "stepdown", "zone": a.home})
            self.bus.unsubscribe(a.id, self._zone_topics[a.home].global_tick)
            self.bus.subscribe(a.id, self._zone_topics[new_home].global_tick)
            a.home = new_home
            if a.mandate is not None and new_home == a.mandate.to_zone:
                self.metrics.migrations += 1
                a.mandate = a.goal = a.path = None
        a.subscribed = subscribed_zones(a.position, self.partition)

    # Phase 8: completion checks at committed positions.
    def _phase_complete(self) -> None:
        for aid, a in self.agents.items():
            if (a.job is None or not a.powered
                    or a.status is not cons.Liveness.ALIVE
                    or a.committed_round != self.round):
                continue
            job = a.job
            if a.position != job.location:
                continue
            job.completion_tick = self.round
            zone = home_zone(job.location, self.partition)
            zs = self.zones[zone]
            del zs.pool[job.id]
            self.costs.release(job.location, zs.pool.values())
            leader = zs.leader or aid
            self.trace.emit(self.round, "Complete", leader, job.id, aid, zone)
            self._drop_job(a)


def _among(aid: str, recipients: tuple[str, ...]) -> bool:
    """Whether `aid` is one of the sorted `recipients`."""
    i = bisect_left(recipients, aid)
    return i < len(recipients) and recipients[i] == aid


def run_scenario(config: ScenarioConfig | dict) -> tuple[Metrics, TraceWriter]:
    if isinstance(config, dict):
        config = scenario_from_dict(config)
    return Simulation(config).run()
