"""Deterministic tick-loop orchestrator.

One engine round attempts to advance every zone's logical tick by one via the
leader-gated consensus conversation on the simulated bus, then applies the
remaining phases in fixed order: scripted faults, job spawns, bid assignment,
periodic load balancing, per-zone conflict resolution, simultaneous movement,
and completion checks. Every run is a pure function of (config, seed).

The engine keeps the bus, the members' side of the protocol and the reader
rule: each bus step delivers queue entries (sender, topic, seq, payload,
recipients), every payload carries its ``kind``, and ``_pump`` hands each
entry to the one handler of its kind. It feeds messages and bus steps to the
leader's side of each zone's round (``consensus.ZoneRound``) and to the
super-leader (``election.SuperLeader``).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, NamedTuple, Optional

from . import balance as bal
from . import consensus as cons
from . import election as elec
from . import jobs as jobmod
from . import planner as plan
from .netsim import Bus, derive_seed, zone_topic
from .scenario import ScenarioConfig, scenario_from_dict
from .trace import TraceWriter
from .world import Cell, ZoneId, build_partition, home_zone, subscribed_zones

SUPER = elec.SUPER
CONTROLLER = "controller"


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
        out: dict[str, Any] = {name: getattr(self, name) for name in (
            "completed", "makespan", "rounds", "migrations", "collisions", "ticks_halted",
            "starvation")}
        for i, name in enumerate(("mean_wait_assign", "mean_wait_complete")):
            waits = [w[i] for w in self.job_waits.values() if w[i] is not None]
            out[name] = round(sum(waits) / len(waits), 3) if waits else None
        out["deficit_history"] = ",".join(str(d) for d in self.deficit_history)
        out.update((f"messages.{topic}", count) for topic, count in sorted(self.messages.items()))
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


def _round_reads(read: Callable, sim: Simulation, sender: str, topic: str, payload: dict,
                 recipients: tuple[str, ...]) -> None:
    """The round leader of the message's zone reads it by `read`, if powered
    and among `recipients`; a suspect_ok names its zone itself."""
    lr = sim.leader_rounds.get(sim._topics[topic][0] or payload["zone"])
    if lr is not None:
        leader = lr.leader
        i = bisect_left(recipients, leader)
        if i < len(recipients) and recipients[i] == leader and sim.agents[leader].powered:
            read(lr, sender, payload)


class ZoneTopics(NamedTuple):
    """A zone's topic names, formatted once per run."""
    db_update: str
    global_tick: str
    tick_ack: str


class Simulation:
    """One deterministic scenario run."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.cfg = config
        self.grid = config.grid
        self.partition = build_partition(self.grid, config.rows, config.cols, config.overlap)
        self.timeout = config.timeout_steps
        self.trace = TraceWriter()
        self.metrics = Metrics()
        self.bus = bus = Bus(config.network, config.seed)
        self.round = 0
        self.leader_rounds: dict[ZoneId, cons.ZoneRound] = {}  # this round's, by zone
        self.costs = jobmod.CostField(self.grid)
        self.jobs: dict[str, jobmod.Job] = {}
        # Stable on spawn_tick, so jobs keep their file order within a tick.
        self._spawn_order = sorted(config.jobs, key=lambda s: s.spawn_tick)
        self._spawn_idx = 0

        # Zones in row-major order and agents by id: the canonical orders
        # every phase iterates in.
        self.zones = {z: cons.ZoneState() for z in self.partition.zone_ids()}
        self._zone_topics = {z: ZoneTopics(*(zone_topic(z, kind) for kind in ZoneTopics._fields))
                             for z in self.zones}
        # (zone, kind) of every topic; the kind is also its message-count class.
        self._topics: dict[str, tuple[Optional[ZoneId], str]] = {
            topic: (z, kind) for z, topics in self._zone_topics.items()
            for kind, topic in zip(ZoneTopics._fields, topics)}
        for topic in ("super/loads", "super/election", "super/mandates"):
            self._topics[topic] = (None, topic.replace("/", "_"))
        self._topics["super/inbox"] = (None, "super_election")
        # No port holds the run, so it is freed when its caller lets go.
        self.sup = elec.SuperLeader(self.timeout, bus.publish, partial(self.trace.emit, 0),
                                    lambda: bus.now)

        self.bus.register(SUPER)
        self.bus.register(CONTROLLER)
        self.bus.subscribe(SUPER, "super/loads")
        self.bus.subscribe(SUPER, "super/inbox")
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

    def _commit(self, a: AgentSim, tick: int) -> None:
        """`a` commits zone-tick `tick` in this round."""
        a.local_tick = tick
        a.committed_round = self.round
        a.stale_rounds = 0

    def _record_for(self, a: AgentSim) -> cons.StateRecord:
        return cons.StateRecord(a.id, a.position, self._next_cell(a),
                                None if a.job is None else a.job.id, a.priority,
                                a.local_tick)

    def _emit(self, kind: str, actor: str, *values: Any) -> None:
        self.trace.emit(self.round, kind, actor, *values)

    def _force_rng(self, agent: str) -> random.Random:
        return random.Random(derive_seed(self.cfg.seed, "force", self.round, agent))

    # ------------------------------------------------------------ run control

    def run(self) -> tuple[Metrics, TraceWriter]:
        self._bootstrap()
        while self.round < self.cfg.max_ticks and not self._all_jobs_done():
            self.round += 1
            self._run_round()
        m, jobs = self.metrics, self.jobs.values()
        m.rounds = self.round
        m.completed = self._all_jobs_done()
        for topic, count in self.bus.published().items():
            cls = self._topics[topic][1]
            m.messages[cls] = m.messages.get(cls, 0) + count
        m.job_waits = {j.id: tuple(None if t is None else t - j.spawn_tick
                                   for t in (j.assign_tick, j.completion_tick)) for j in jobs}
        if m.completed and jobs:
            m.makespan = max(j.completion_tick for j in jobs) - min(j.spawn_tick for j in jobs)
        if not m.completed and not any(a.powered for a in self.agents.values()):
            m.starvation = True
        return m, self.trace

    def _all_jobs_done(self) -> bool:
        return (self._spawn_idx == len(self._spawn_order)
                and not any(zs.pool for zs in self.zones.values()))

    def _bootstrap(self) -> None:
        for zone in self.zones:
            self.sup.start_election(zone, elec.ElectionReason.BOOTSTRAP)
        self._pump(2 * self.timeout + 6)

    def _pump(self, max_steps: int) -> None:
        """Step the bus, the leaders' rounds and the super-leader until every
        round is complete and the bus is quiet, or `max_steps` run out."""
        open_rounds = list(self.leader_rounds.values())
        handlers = self._handlers
        for _ in range(max_steps):
            for sender, topic, _, payload, recipients in self.bus.step_deliver():
                handlers[payload["kind"]](self, sender, topic, payload, recipients)
            open_rounds = [lr for lr in open_rounds if not self._step_round(lr)]
            self.sup.step()
            if not open_rounds and not self.sup.elections and self.bus.pending() == 0:
                break

    def _step_round(self, lr: cons.ZoneRound) -> bool:
        """One bus step of `lr`; True once the round is over."""
        leader = self.agents[lr.leader]
        if not leader.is_leader:  # demoted mid-round by a role broadcast
            return True
        done = lr.step()
        if done and not lr.broadcast:  # the states' half is over: broadcast, commit
            lr.broadcast_tick(self._record_for(leader), self.costs.cost)
            self._commit(leader, lr.tick + 1)
            return False
        return done

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
        self.sup.emit = emit = partial(self.trace.emit, self.round)  # this round's events
        publish = self.bus.publish
        zone_topics = self._zone_topics
        for zone, zs in self.zones.items():
            leader = self._active_leader(zone)
            if leader is not None:
                rounds[zone] = cons.ZoneRound(
                    zone, leader.id, zs.tick, {m.id for m in self._members(zone)}, zs,
                    zone_topics[zone].global_tick, self.timeout, publish, emit,
                    partial(_mark_dead, self.agents))
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
                    publish(lr.leader, "super/inbox", {"kind": "stepdown", "zone": zone})
        # Cross-round staleness drives leader-loss reporting; _commit resets it.
        for aid, a in self.agents.items():
            if not a.powered or a.is_leader or a.committed_round == self.round:
                continue
            a.stale_rounds += 1
            if a.stale_rounds >= 2 and a.stale_rounds % 2 == 0:
                publish(aid, "super/inbox", {"kind": "leader_loss", "zone": a.home})

    # ---------------------------------------------------------- bus handlers

    def _reads(self, aid: str, recipients: tuple[str, ...]) -> bool:
        """Whether `aid` reads a message: powered and among its sorted `recipients`."""
        i = bisect_left(recipients, aid)
        return i < len(recipients) and recipients[i] == aid and self.agents[aid].powered

    def _on_tick(self, sender: str, topic: str, payload: dict,
                 recipients: tuple[str, ...]) -> None:
        """The zone's home agents among `recipients` read one tick, in id order.
        A powered, live non-leader that is off the roster or missed a tick asks
        to resync; otherwise it commits a newer tick and acks it, bidding if idle."""
        zone = self._topics[topic][0]
        new_tick, roster, solicit = payload["new_tick"], payload["roster"], payload["solicit"]
        digest = payload["snapshot"].digest()
        agents, emit, cost = self.agents, self.trace.emit, self.costs.cost
        publish, topics, rnd = self.bus.publish, self._zone_topics[zone], self.round
        ack, alive = topics.tick_ack, cons.Liveness.ALIVE
        for aid in recipients:
            a = agents[aid]
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
            bids = [[job_id, cost(a.position, loc)] for job_id, loc in solicit] if a.idle else []
            emit(rnd, "TickAck", aid, zone, new_tick, digest)
            publish(aid, ack, {"kind": "tick_ack", "bids": bids})

    def _on_resync_resp(self, sender: str, topic: str, payload: dict,
                        recipients: tuple[str, ...]) -> None:
        """The target of a resync reply, unless alive, rejoins at its tick."""
        a = self.agents[payload["target"]]
        if a.status is not cons.Liveness.ALIVE and self._reads(a.id, recipients):
            a.status = cons.Liveness.ALIVE
            self._commit(a, payload["tick"])
            # Rejoins the leader's expected set from the next round on; it has
            # not published state this round, so gating on it would stall.
            self._emit("Resync", a.id, self._topics[topic][0], payload["tick"])

    def _on_solicit(self, sender: str, topic: str, payload: dict,
                    recipients: tuple[str, ...]) -> None:
        """Each live home agent of the zone stands as a candidate."""
        zone = payload["zone"]
        for a in self._homed(zone):
            if a.status is cons.Liveness.ALIVE and self._reads(a.id, recipients):
                dist = elec.centroid_distance(a.position, self.partition.zone(zone))
                self.bus.publish(a.id, "super/inbox", {"kind": "candidacy", "zone": zone,
                                 "election": payload["election"], "distance": dist,
                                 "tick": a.local_tick})

    def _on_role(self, sender: str, topic: str, payload: dict,
                 recipients: tuple[str, ...]) -> None:
        """A leader the role does not name steps down; its live winner takes office."""
        zone, winner = payload["zone"], payload["leader"]
        for a in self._homed(zone):
            if a.id != winner:
                if a.is_leader and self._reads(a.id, recipients):
                    self._demote(a)
            elif a.status is cons.Liveness.ALIVE and self._reads(a.id, recipients):
                a.is_leader = True
                a.solo_rounds = 0
                zs = self.zones[zone]
                zs.leader = a.id
                zs.tick = max(zs.tick, payload["since_tick"])
                if zs.tick > a.local_tick:
                    self._emit("Resync", a.id, zone, zs.tick)
                    a.local_tick = zs.tick
                topics = self._zone_topics[zone]
                self.bus.subscribe(a.id, topics.db_update)
                self.bus.subscribe(a.id, topics.tick_ack)

    def _on_mandate(self, sender: str, topic: str, payload: dict,
                    recipients: tuple[str, ...]) -> None:
        m: bal.MigrationMandate = payload["mandate"]
        a = self.agents[m.agent]
        if (a.idle and a.status is cons.Liveness.ALIVE and a.home == m.from_zone
                and self._reads(a.id, recipients)):
            # The goal is inside the target zone, so _after_move clears it on arrival.
            a.mandate, a.path = m, None
            a.goal = bal.nearest_free_cell(self.grid, self.partition.zone(m.to_zone))

    # The handler of each payload kind, which _pump calls with the run and a
    # delivered entry's sender, topic, payload and recipients; it picks the
    # kind's readers and acts. A kind names its readers:
    # - state and tick_ack, the bulk of the traffic, resync_req and
    #   suspect_ok: the zone's round leader
    # - tick: the recipients whose home is the zone
    # - resync_resp: its target; mandate: its agent, ``m.agent``
    # - solicit: the zone's home agents; role: those of them that win or lead
    # - job_notice, load, leader_loss, stepdown, candidacy, suspect: the super-leader
    # They are picked on arrival, as an agent can change home in flight, and an
    # agent reads only if powered and among the sorted `recipients`, fixed at
    # publish without the sender and whoever a partition cut off.
    _handlers = {kind: partial(_round_reads, getattr(cons.ZoneRound, "on_" + kind))
                 for kind in ("state", "tick_ack", "resync_req", "suspect_ok")}
    _handlers.update(tick=_on_tick, resync_resp=_on_resync_resp, solicit=_on_solicit,
                     role=_on_role, mandate=_on_mandate)
    _handlers.update({kind: lambda sim, sender, topic, payload, recipients,
                      f=getattr(elec.SuperLeader, "on_" + kind): f(sim.sup, sender, payload)
                      for kind in (
                          "job_notice", "load", "leader_loss", "stepdown", "candidacy", "suspect")})

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
            else:  # partition, or heal, which holds no groups
                self.bus.set_partition(f.groups)

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
                self._emit("JobSpawn", CONTROLLER, job_id, tuple(spec.location), spec.priority,
                           None, True)
                continue
            zone = home_zone(job.location, self.partition)
            self.jobs[job_id] = job
            self.zones[zone].pool[job_id] = job
            self._emit("JobSpawn", CONTROLLER, job_id, tuple(job.location), job.priority, zone,
                       False)
            self.bus.publish(CONTROLLER, "super/loads", {"kind": "job_notice", "zone": zone})

    # Phase 4: leaders assign solicited jobs from bus-delivered bids.
    def _phase_assign(self) -> None:
        for zone, lr in self.leader_rounds.items():
            leader = self._active_leader(zone)
            if not lr.broadcast or leader is None:
                continue
            for job_id, offers in lr.bids.items():
                # An agent assigned earlier in this loop holds a job: not idle.
                best = jobmod.choose_assignee([b for b in offers if self.agents[b.agent].idle and
                                               self.agents[b.agent].status is cons.Liveness.ALIVE])
                if best is None:
                    continue
                a = self.agents[best.agent]
                a.job = job = self.zones[zone].pool[job_id]
                job.assign_tick = self.round
                a.goal, a.path, a.mandate = job.location, None, None  # assignment beats migration
                self._emit("Assign", leader.id, job_id, best.agent, best.cost, zone)

    # Phase 5: periodic load reporting and daisy-chain planning.
    def _phase_balance(self) -> None:
        if self.round % self.cfg.balance_period != 0:
            return
        for zone in self.zones:
            leader = self._active_leader(zone)
            if leader is None:
                continue
            members = self._members(zone)
            pending = sum(j.assign_tick is None for j in self.zones[zone].pool.values())
            idle_ids = [m.id for m in members if m.idle and m.mandate is None and m.powered]
            self.bus.publish(leader.id, "super/loads",
                             {"kind": "load", "zone": zone, "pending": pending,
                              "total": len(members), "idle_ids": idle_ids})
        # This period's reports arrive next round.
        deficit, starved = self.sup.plan_period()
        self.metrics.deficit_history.append(deficit)
        if starved:
            self.metrics.starvation = True

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
                tick_used = (self.zones[ya.home].tick if ka.home == ya.home else
                             cons.resolve_overlap_tick(ya.local_tick, ka.local_tick, ya.priority,
                                                       ka.priority, yielder, keeper))
                self._emit("ConflictResolved", yielder, zone, kind, keeper, yielder, tick_used)
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
            elif aid in movable and a.goal is not None and a.position != a.goal:
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
            job = a.job
            if (job is None or a.position != job.location or not a.powered
                    or a.status is not cons.Liveness.ALIVE or a.committed_round != self.round):
                continue
            job.completion_tick = self.round
            zone = home_zone(job.location, self.partition)
            zs = self.zones[zone]
            del zs.pool[job.id]
            self.costs.release(job.location, zs.pool.values())
            leader = zs.leader or aid
            self.trace.emit(self.round, "Complete", leader, job.id, aid, zone)
            a.job = a.goal = a.path = None


def _mark_dead(agents: dict[str, AgentSim], aid: str) -> Optional[str]:
    """Mark `aid` dead; its job, if any, goes back to its pool. The job's id."""
    a = agents[aid]
    a.status = cons.Liveness.DEAD
    job = a.job
    if job is not None:
        job.assign_tick = None
        a.job = a.goal = a.path = None
    return None if job is None else job.id


def run_scenario(config: ScenarioConfig | dict) -> tuple[Metrics, TraceWriter]:
    if isinstance(config, dict):
        config = scenario_from_dict(config)
    return Simulation(config).run()
