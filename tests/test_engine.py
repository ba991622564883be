import copy
import gc
import importlib.util
import random
import weakref
from functools import partial
from pathlib import Path

import pytest

from gridswarm.balance import MigrationMandate
from gridswarm.consensus import Liveness, ZoneRound, make_snapshot
from gridswarm.election import ElectionReason
from gridswarm.engine import SUPER, Simulation, _mark_dead, run_scenario
from gridswarm.jobs import spawn_job
from gridswarm.netsim import Bus, zone_topic
from gridswarm.scenario import bench_scenario, random_scenario, scenario_from_dict
from gridswarm.trace import parse_trace, verify_trace
from gridswarm.world import Cell, subscribed_zones


def two_zone(agents=None, jobs=None, faults=None, max_ticks=120, seed=9,
             network=None, timeout=10):
    return scenario_from_dict({
        "map": {"width": 12, "height": 6},
        "partition": {"rows": 1, "cols": 2},
        "agents": agents if agents is not None else [
            {"id": "a00", "start": [2, 3]},
            {"id": "a01", "start": [4, 1]},
            {"id": "a02", "start": [9, 3]},
        ],
        "jobs": jobs if jobs is not None else [
            {"spawn_tick": 0, "location": [1, 1], "priority": 2.0},
            {"spawn_tick": 2, "location": [10, 4], "priority": 1.5},
        ],
        "network": network or {},
        "planner": {},
        "consensus": {"timeout_steps": timeout},
        "balance": {"period": 5},
        "seed": seed,
        "max_ticks": max_ticks,
        "faults": faults or [],
    })


def events_of(trace, kind):
    return [e for e in parse_trace(trace.dump()) if e["kind"] == kind]


def test_basic_run_completes_cleanly():
    metrics, trace = run_scenario(two_zone())
    assert metrics.completed
    assert metrics.collisions == 0
    assert metrics.makespan is not None and metrics.makespan > 0
    assert verify_trace(trace.dump()) == []


def test_bootstrap_elects_every_populated_zone():
    metrics, trace = run_scenario(two_zone())
    elections = events_of(trace, "Election")
    zones = {tuple(e["zone"]) for e in elections if e["tick"] == 0}
    assert zones == {(0, 0), (0, 1)}
    assert all(e["reason"] == "bootstrap" for e in elections if e["tick"] == 0)


def test_leader_is_closest_to_centroid():
    # zone (0,0) spans x 0..5: centroid (2.5, 2.5); a00 at (2,3) is closest
    metrics, trace = run_scenario(two_zone())
    boot = {tuple(e["zone"]): e["leader"]
            for e in events_of(trace, "Election") if e["tick"] == 0}
    assert boot[(0, 0)] == "a00"
    assert boot[(0, 1)] == "a02"


def test_jobs_assigned_by_zone_leader_to_cheapest_bidder():
    metrics, trace = run_scenario(two_zone())
    assigns = events_of(trace, "Assign")
    assert {e["job"] for e in assigns} == {"j000", "j001"}
    for e in assigns:
        bids = [b for b in events_of(trace, "Bid")
                if b["job"] == e["job"] and b["tick"] == e["tick"]]
        assert bids
        best = min(b["cost"] for b in bids if b["cost"] is not None)
        assert e["cost"] == best


def test_released_job_still_pending_at_the_end_has_no_waits():
    # a04 is marked dead at tick 14, the last round, and releases j002.
    sim = Simulation(scenario_from_dict(
        random_scenario(7, drop_prob=0.05, delay=1, max_ticks=14)))
    metrics, trace = sim.run()
    assert not metrics.completed
    assert [e["agent"] for e in events_of(trace, "MarkDead")
            if e["released_job"] == "j002"] == ["a04"]
    assert sim.jobs["j002"].assign_tick is None
    assert metrics.job_waits["j002"] == (None, None)


def test_job_waits_and_makespan_match_the_trace():
    # A lossy run that completes after a MarkDead released j002 for reassignment.
    metrics, trace = run_scenario(scenario_from_dict(
        random_scenario(7, drop_prob=0.05, delay=1)))
    assert metrics.completed
    assert [e["released_job"] for e in events_of(trace, "MarkDead")
            if e["released_job"]] == ["j002"]
    spawned = {e["job"]: e["tick"] for e in events_of(trace, "JobSpawn")
               if not e["rejected"]}
    assigned = {e["job"]: e["tick"] for e in events_of(trace, "Assign")}  # the last
    completed = {e["job"]: e["tick"] for e in events_of(trace, "Complete")}
    assert metrics.job_waits == {job: (assigned[job] - tick, completed[job] - tick)
                                 for job, tick in spawned.items()}
    assert metrics.makespan == max(completed.values()) - min(spawned.values())


def test_completion_events_close_out_jobs():
    metrics, trace = run_scenario(two_zone())
    completes = events_of(trace, "Complete")
    assert {e["job"] for e in completes} == {"j000", "j001"}
    for jid, (wait_a, wait_c) in metrics.job_waits.items():
        assert wait_a is not None and wait_c is not None
        assert 0 <= wait_a <= wait_c


LONG_JOBS = [
    {"spawn_tick": 0, "location": [1, 1], "priority": 2.0},
    {"spawn_tick": 2, "location": [10, 4], "priority": 1.5},
    {"spawn_tick": 12, "location": [5, 5], "priority": 1.8},
    {"spawn_tick": 20, "location": [0, 5], "priority": 2.2},
    {"spawn_tick": 30, "location": [11, 0], "priority": 1.4},
    {"spawn_tick": 38, "location": [6, 2], "priority": 2.0},
]


def test_kill_marks_dead_and_revive_resyncs():
    faults = [{"tick": 3, "kind": "kill", "agent": "a01"},
              {"tick": 23, "kind": "revive", "agent": "a01"}]
    metrics, trace = run_scenario(two_zone(jobs=LONG_JOBS, faults=faults,
                                           max_ticks=200))
    dead = [e for e in events_of(trace, "MarkDead") if e["agent"] == "a01"]
    assert dead
    resyncs = [e for e in events_of(trace, "Resync") if e["actor"] == "a01"]
    assert resyncs
    assert min(e["tick"] for e in resyncs) >= 23
    assert metrics.completed
    assert verify_trace(trace.dump()) == []


def test_resynced_agent_adopts_leader_tick():
    faults = [{"tick": 3, "kind": "kill", "agent": "a01"},
              {"tick": 23, "kind": "revive", "agent": "a01"}]
    metrics, trace = run_scenario(two_zone(jobs=LONG_JOBS, faults=faults,
                                           max_ticks=200))
    events = parse_trace(trace.dump())
    resync = next(e for e in events if e["kind"] == "Resync"
                  and e["actor"] == "a01")
    # the adopted tick is the zone tick broadcast either in the previous
    # round or earlier in the same round, depending on message interleaving
    broadcast_ticks = {e["new_tick"] for e in events
                       if e["kind"] == "TickBroadcast" and e["zone"] == resync["zone"]}
    prev = max(e["new_tick"] for e in events
               if e["kind"] == "TickBroadcast" and e["zone"] == resync["zone"]
               and e["tick"] < resync["tick"])
    assert resync["resync_tick"] in broadcast_ticks
    assert prev <= resync["resync_tick"] <= prev + 1


def test_killed_assignee_releases_job_for_reassignment():
    jobs = [{"spawn_tick": 0, "location": [1, 1], "priority": 2.0}]
    agents = [{"id": "a00", "start": [2, 3]}, {"id": "a01", "start": [4, 1]},
              {"id": "a02", "start": [9, 3]}]
    metrics, trace = run_scenario(two_zone(agents=agents, jobs=jobs, faults=[
        {"tick": 2, "kind": "kill", "agent": "a01"},
    ], max_ticks=200))
    assert metrics.completed
    completes = events_of(trace, "Complete")
    assert completes and completes[0]["agent"] != "a01"


def test_leader_isolation_halts_zone_then_recovers():
    faults = [{"tick": 4, "kind": "partition", "groups": [["a00"]]},
              {"tick": 10, "kind": "heal"}]
    metrics, trace = run_scenario(two_zone(jobs=LONG_JOBS, faults=faults,
                                           max_ticks=250))
    assert metrics.ticks_halted > 0
    assert metrics.completed
    assert verify_trace(trace.dump()) == []


def test_migration_serves_agentless_zone():
    agents = [{"id": "a00", "start": [2, 3]}, {"id": "a01", "start": [4, 1]}]
    jobs = [{"spawn_tick": 0, "location": [10, 4], "priority": 2.0}]
    metrics, trace = run_scenario(two_zone(agents=agents, jobs=jobs,
                                           max_ticks=250))
    assert metrics.completed
    assert metrics.migrations > 0
    mandates = events_of(trace, "Mandate")
    assert mandates and all(e["actor"] == "super" for e in mandates)


def test_mandate_into_a_zone_whose_centroid_is_walled_off():
    """The right zone's centroid (14.5, 9.5) lies inside an obstacle, and the
    map's free cell nearest it, (9, 9), lies in the left zone. A mandate's
    goal is the target zone's own free cell nearest its centroid, so the
    migrants enter the zone and serve its jobs."""
    sim = Simulation(scenario_from_dict({
        "map": {"width": 20, "height": 20, "obstacle_rects": [[10, 1, 19, 19]]},
        "partition": {"rows": 1, "cols": 2, "overlap": 1},
        "agents": [{"id": f"a{i}", "start": [i, 5]} for i in range(4)],
        "jobs": [{"spawn_tick": 1, "location": [19, 0], "priority": 1.0},
                 {"spawn_tick": 1, "location": [18, 0], "priority": 1.0}],
        "network": {}, "planner": {}, "consensus": {"timeout_steps": 10},
        "balance": {"period": 5}, "seed": 1, "max_ticks": 120, "faults": [],
    }))
    sim._bootstrap()
    goals = set()
    while not sim._all_jobs_done() and sim.round < sim.cfg.max_ticks:
        sim.round += 1
        sim._run_round()
        goals |= {a.goal for a in sim.agents.values() if a.mandate is not None}
    assert goals == {(14, 0)}
    assert sim._all_jobs_done() and sim.round == 39
    assert sim.metrics.migrations == 4
    assert verify_trace(sim.trace.dump()) == []


@pytest.mark.parametrize("timeout, delay", [(2, 0), (6, 3), (4, [2, 4])])
def test_the_shortest_accepted_timeout_elects_and_completes(timeout, delay):
    sc = random_scenario(3)
    sc["consensus"] = {"timeout_steps": timeout}
    sc["network"] = {"drop_prob": 0.0, "delay_steps": delay}
    metrics, trace = run_scenario(sc)
    assert events_of(trace, "Election") and metrics.completed


def test_same_seed_same_digest():
    d1 = run_scenario(two_zone())[1].digest()
    d2 = run_scenario(two_zone())[1].digest()
    assert d1 == d2


def test_different_seed_different_digest():
    # seed feeds drop/delay and force draws; with lossy network traces diverge
    lossy = {"drop_prob": 0.2}
    d1 = run_scenario(two_zone(seed=1, network=lossy))[1].digest()
    d2 = run_scenario(two_zone(seed=2, network=lossy))[1].digest()
    assert d1 != d2


def test_lossy_network_still_safe_and_complete():
    metrics, trace = run_scenario(two_zone(network={"drop_prob": 0.1,
                                                    "delay_steps": [0, 2]},
                                           max_ticks=300))
    assert metrics.completed
    assert verify_trace(trace.dump()) == []


def test_message_counts_by_topic_class():
    metrics, _ = run_scenario(two_zone())
    assert metrics.messages.get("db_update", 0) > 0
    assert metrics.messages.get("global_tick", 0) > 0
    assert metrics.messages.get("tick_ack", 0) > 0
    assert metrics.messages.get("super_election", 0) > 0


def topic_class(topic):
    """A topic's message-count class: the kind of a zone topic, else the
    super-leader topic's name, with super/inbox counted as super_election."""
    if topic.startswith("zone/"):
        return topic.rsplit("/", 1)[1]
    return "super_election" if topic == "super/inbox" else topic.replace("/", "_")


@pytest.mark.parametrize("network", [{}, {"drop_prob": 0.1, "delay": [0, 2]}],
                         ids=["lossless", "lossy"])
def test_message_counts_are_the_publishes_not_dropped(monkeypatch, network):
    counted, dropped = {}, []
    publish = Bus.publish

    def counting(self, sender, topic, payload):
        kept = publish(self, sender, topic, payload)
        if kept:
            cls = topic_class(topic)
            counted[cls] = counted.get(cls, 0) + 1
        else:
            dropped.append(topic)
        return kept

    monkeypatch.setattr(Bus, "publish", counting)
    for seed in range(10):
        sc = random_scenario(seed, **network)
        sc["faults"] = [{"tick": 3, "kind": "kill", "agent": "a00"},
                        {"tick": 13, "kind": "revive", "agent": "a00"}]
        counted.clear()
        metrics, _ = run_scenario(scenario_from_dict(sc))
        assert metrics.messages == counted, seed
    assert bool(dropped) == bool(network)


def test_flat_metrics_serializable():
    import json
    metrics, _ = run_scenario(two_zone())
    flat = metrics.flat()
    json.dumps(flat)
    assert flat["completed"] is True
    assert flat["collisions"] == 0


def test_no_agents_and_one_job_flags_starvation():
    cfg = scenario_from_dict({
        "map": {"width": 6, "height": 6},
        "partition": {"rows": 1, "cols": 1},
        "agents": [],
        "jobs": [{"spawn_tick": 0, "location": [3, 3], "priority": 1.0}],
        "network": {}, "planner": {}, "consensus": {}, "balance": {},
        "seed": 0, "max_ticks": 30, "faults": [],
    })
    metrics, _ = run_scenario(cfg)
    assert not metrics.completed
    assert metrics.starvation


def test_job_on_obstacle_is_rejected_not_fatal():
    cfg = scenario_from_dict({
        "map": {"width": 6, "height": 6, "obstacles": [[3, 3]]},
        "partition": {"rows": 1, "cols": 1},
        "agents": [{"id": "a00", "start": [0, 0]}],
        "jobs": [{"spawn_tick": 0, "location": [3, 3], "priority": 1.0},
                 {"spawn_tick": 0, "location": [1, 1], "priority": 1.0}],
        "network": {}, "planner": {}, "consensus": {}, "balance": {},
        "seed": 0, "max_ticks": 60, "faults": [],
    })
    metrics, trace = run_scenario(cfg)
    spawns = events_of(trace, "JobSpawn")
    assert any(e["rejected"] for e in spawns)
    assert metrics.completed  # the valid job still runs to completion


def test_rejected_spawn_gets_no_zone_bid_or_assignment():
    scenario = random_scenario(3)
    scenario["map"]["obstacles"] = [[0, 0]]
    scenario["jobs"].append({"spawn_tick": 2, "location": [0, 0], "priority": 1.0})
    metrics, trace = run_scenario(scenario)
    (rejected,) = [e for e in events_of(trace, "JobSpawn") if e["rejected"]]
    assert rejected["location"] == [0, 0] and rejected["zone"] is None
    job = rejected["job"]
    assert not [e for e in events_of(trace, "Bid") + events_of(trace, "Assign")
                if e["job"] == job]
    assert events_of(trace, "Bid")  # the other jobs drew bids
    assert metrics.completed
    assert verify_trace(trace.dump()) == []


def test_spawns_follow_spawn_tick_and_keep_file_order_within_a_tick():
    jobs = [{"spawn_tick": 3, "location": [10, 4], "priority": 1.5},
            {"spawn_tick": 0, "location": [1, 1], "priority": 2.0},
            {"spawn_tick": 3, "location": [5, 5], "priority": 1.8}]
    _, trace = run_scenario(two_zone(jobs=jobs))
    spawned = [(e["job"], e["location"]) for e in events_of(trace, "JobSpawn")]
    assert spawned == [("j000", [1, 1]), ("j001", [10, 4]), ("j002", [5, 5])]


def test_grid_tables_are_not_built_at_setup():
    sim = Simulation(two_zone())
    assert "neighbor_table" not in vars(sim.grid)
    sim.run()
    assert "neighbor_table" in vars(sim.grid)


def test_cost_fields_are_dropped_once_their_jobs_complete():
    # Two jobs share (1, 1): its field must outlive the first completion.
    jobs = [{"spawn_tick": 0, "location": [1, 1], "priority": 2.0},
            {"spawn_tick": 0, "location": [1, 1], "priority": 1.5},
            {"spawn_tick": 2, "location": [10, 4], "priority": 1.5}]
    sim = Simulation(two_zone(jobs=jobs))
    sim._bootstrap()
    kept_for_open_job = False
    while not sim._all_jobs_done():
        sim.round += 1
        sim._run_round()
        # A zone's pool holds its open jobs only.
        assert not [j for zs in sim.zones.values() for j in zs.pool.values()
                    if j.completion_tick is not None]
        shared = [sim.jobs[j] for j in ("j000", "j001") if j in sim.jobs]
        done = [j.completion_tick is not None for j in shared]
        if any(done) and not all(done):
            assert (1, 1) in sim.costs._fields
            kept_for_open_job = True
    assert kept_for_open_job
    assert sim.costs._fields == {}


def test_zone_lookups_follow_every_move():
    """Each zone topic's subscribers are the agents whose role reads it, and
    each agent's zones equal a fresh scan, through migrations, kills and
    elections."""
    sc = bench_scenario(20, 30, seed=11)
    sc["faults"] = [{"tick": t, "kind": kind, "agent": f"a{i:02d}"}
                    for i in range(0, 20, 3) for t, kind in ((4, "kill"), (14, "revive"))]
    sim = Simulation(scenario_from_dict(sc))
    sim._bootstrap()
    while sim.round < 80 and not sim._all_jobs_done():
        sim.round += 1
        sim._run_round()
        for zone in sim.zones:
            homed = tuple(sorted(aid for aid, a in sim.agents.items() if a.home == zone))
            leaders = tuple(sorted(aid for aid, a in sim.agents.items()
                                   if a.is_leader and a.home == zone))
            assert sim.bus.subscribers(zone_topic(zone, "global_tick")) == homed
            assert sim.bus.subscribers(zone_topic(zone, "db_update")) == leaders
            assert sim.bus.subscribers(zone_topic(zone, "tick_ack")) == leaders
            # The zone's leader, when set, leads it from inside it.
            lid = sim.zones[zone].leader
            assert lid is None or lid in leaders
        assert sim.bus.subscribers("super/inbox") == (SUPER,)
        for a in sim.agents.values():
            # The zone-ordered tuple itself, not a re-sorted copy.
            assert a.subscribed == subscribed_zones(a.position, sim.partition)
    assert sim.metrics.migrations > 0
    assert any(e["tick"] > 0 for e in events_of(sim.trace, "Election"))


def _lossy_scenario(seed):
    """`perfbench/workloads.py`'s 30x30 nine-zone run under drops, delays,
    four kills and a partition."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.lossy_scenario(seed)


FILE_ORDER_RUNS = {
    **{f"random/{seed}": (random_scenario, seed, {}) for seed in range(11)},
    **{f"random_lossy/{seed}": (random_scenario, seed, {"drop_prob": 0.05, "delay": 1})
       for seed in range(11)},
    **{f"lossy_scenario/{seed}": (_lossy_scenario, seed, {}) for seed in range(11)},
}


@pytest.mark.parametrize("name", sorted(FILE_ORDER_RUNS))
def test_agent_file_order_leaves_the_trace_unchanged(name):
    """The engine orders agents by id, so the order of the scenario's
    `agents` list cannot reach the trace."""
    make, seed, kwargs = FILE_ORDER_RUNS[name]
    scenario = make(seed, **kwargs)
    shuffled = copy.deepcopy(scenario)
    random.Random(name).shuffle(shuffled["agents"])
    if shuffled["agents"] == scenario["agents"]:
        shuffled["agents"].reverse()
    digests = [run_scenario(scenario_from_dict(sc))[1].digest() for sc in (scenario, shuffled)]
    assert digests[0] == digests[1]


def test_path_holds_the_cells_still_ahead():
    """After every round, an agent's path ends at its goal and its last
    entry, the next cell, is a free neighbour of the agent's cell; kills
    leave powered-off agents on the map for paths to go around."""
    sc = bench_scenario(20, 30, seed=11)
    sc["faults"] = [{"tick": t, "kind": kind, "agent": f"a{i:02d}"}
                    for i in range(0, 20, 4) for t, kind in ((3, "kill"), (25, "revive"))]
    sim = Simulation(scenario_from_dict(sc))
    sim._bootstrap()
    checked = off_rounds = 0
    while sim.round < 80 and not sim._all_jobs_done():
        sim.round += 1
        sim._run_round()
        off_rounds += any(not a.powered for a in sim.agents.values())
        for a in sim.agents.values():
            if a.path:
                assert a.path[0] == a.goal
                assert a.path[-1] in sim.grid.free_neighbors(a.position)
                checked += 1
    assert checked > 100 and off_rounds > 10
    assert sim.grid.obstacles


def test_plain_route_when_powered_off_agents_box_the_goal_in():
    """b is killed in the only corridor to a's job. The route around b fails,
    so a takes the plain route once: it walks up to b and waits beside it
    instead of waiting at its start."""
    metrics, trace = run_scenario({
        "map": {"width": 9, "height": 1},
        "partition": {"rows": 1, "cols": 1, "overlap": 0},
        "agents": [{"id": "a", "start": [0, 0]}, {"id": "b", "start": [4, 0]}],
        "jobs": [{"spawn_tick": 3, "location": [8, 0], "priority": 1.0}],
        "network": {}, "planner": {}, "consensus": {"timeout_steps": 10},
        "balance": {"period": 10}, "seed": 1, "max_ticks": 15,
        "faults": [{"tick": 2, "kind": "kill", "agent": "b"}],
    })
    assert [(e["tick"], e["actor"], e["src"], e["dst"]) for e in events_of(trace, "Move")] == [
        (6, "a", [0, 0], [1, 0]), (7, "a", [1, 0], [2, 0]), (8, "a", [2, 0], [3, 0])]
    assert not metrics.completed


# Step-down: each trigger must leave the agent not leader, off its zone's
# db_update and tick_ack topics, and no longer named as the zone's leader.

def run_until(sim, leader, trigger, max_rounds=100):
    """Bootstrap, then run whole rounds while `leader` leads its home zone,
    until `trigger(sim)` holds; returns the zone it led."""
    sim._bootstrap()
    zone = sim.agents[leader].home
    assert sim.zones[zone].leader == leader
    while not trigger(sim):
        assert sim.agents[leader].is_leader and sim.round < max_rounds
        sim.round += 1
        sim._run_round()
    return zone


def assert_stepped_down(sim, aid, zone):
    assert not sim.agents[aid].is_leader
    assert aid not in sim.bus.subscribers(zone_topic(zone, "db_update"))
    assert aid not in sim.bus.subscribers(zone_topic(zone, "tick_ack"))
    assert sim.zones[zone].leader != aid


def test_killed_leader_steps_down():
    sim = Simulation(two_zone(faults=[{"tick": 3, "kind": "kill", "agent": "a00"}]))
    zone = run_until(sim, "a00", lambda s: not s.agents["a00"].powered)
    assert_stepped_down(sim, "a00", zone)


def test_leader_walking_out_of_its_zone_steps_down():
    sim = Simulation(two_zone(agents=[{"id": "a00", "start": [2, 3]}],
                              jobs=[{"spawn_tick": 0, "location": [10, 4],
                                     "priority": 2.0}]))
    zone = run_until(sim, "a00", lambda s: s.agents["a00"].home != (0, 0))
    assert_stepped_down(sim, "a00", zone)


def test_isolated_leader_steps_down_after_two_unanswered_probes():
    sim = Simulation(two_zone(jobs=LONG_JOBS, faults=[
        {"tick": 4, "kind": "partition", "groups": [["a00"]]},
        {"tick": 10, "kind": "heal"}]))
    zone = run_until(sim, "a00", lambda s: s.agents["a00"].solo_rounds >= 2)
    assert_stepped_down(sim, "a00", zone)


def test_role_naming_another_agent_demotes_the_leader():
    sim = Simulation(two_zone())
    zone = run_until(sim, "a00", lambda s: True)
    sim.bus.publish(SUPER, "super/election",
                    {"kind": "role", "zone": zone, "leader": "a01", "since_tick": 0})
    sim._pump(1)
    assert_stepped_down(sim, "a00", zone)
    assert sim.agents["a01"].is_leader and sim.zones[zone].leader == "a01"


# a00 leads zone (0, 0) over a01 and a03; a02 is alone in zone (0, 1).
FOUR_AGENTS = [{"id": "a00", "start": [2, 3]}, {"id": "a01", "start": [4, 1]},
               {"id": "a03", "start": [1, 4]}, {"id": "a02", "start": [9, 3]}]


def open_round(sim, zone, leader, expected):
    """A round of `zone` led by `leader` over `expected`, wired to the run as
    the consensus phase wires one."""
    zs = sim.zones[zone]
    return ZoneRound(zone, leader, zs.tick, expected, zs, zone_topic(zone, "global_tick"),
                     sim.timeout, sim.bus.publish, sim._emit, partial(_mark_dead, sim.agents))


def test_leader_demoted_mid_round_reads_no_member_messages():
    sim = Simulation(two_zone(agents=FOUR_AGENTS))
    zone = run_until(sim, "a00", lambda s: s.zones[(0, 0)].snapshot is not None)
    lr = open_round(sim, zone, "a00", {"a00", "a01", "a03"})
    sim.bus.publish(SUPER, "super/election",
                    {"kind": "role", "zone": zone, "leader": "a01", "since_tick": 0})
    sim.leader_rounds = {zone: lr}
    sim._pump(1)
    assert_stepped_down(sim, "a00", zone)
    ticks = zone_topic(zone, "global_tick")
    ticks_published = sim.bus.published()[ticks]
    member = sim.agents["a03"]
    sim.bus.publish("a03", zone_topic(zone, "db_update"),
                    {"kind": "state", "record": sim._record_for(member)})
    sim.bus.publish("a03", zone_topic(zone, "db_update"),
                    {"kind": "resync_req"})
    sim._pump(3)
    # The demoted leader neither answers with a resync_resp nor stores state.
    assert sim.bus.published()[ticks] == ticks_published
    assert lr.states == {}


def test_ack_bids_only_on_jobs_the_round_solicited():
    sim = Simulation(two_zone(agents=FOUR_AGENTS, jobs=[]))
    zone = run_until(sim, "a00", lambda s: s.zones[(0, 0)].snapshot is not None)
    sim.zones[zone].pool["j900"] = spawn_job(sim.grid, "j900", (1, 1), 1.0, sim.round)
    lr = open_round(sim, zone, "a00", {"a00", "a01", "a03"})
    for aid in ("a01", "a03"):
        sim.bus.publish(aid, zone_topic(zone, "db_update"),
                        {"kind": "state", "record": sim._record_for(sim.agents[aid])})
        sim.agents[aid].powered = False  # ignores the broadcast and sends no ack
    sim.leader_rounds = {zone: lr}
    sim._pump(1)
    assert lr.broadcast
    bids_before = len(events_of(sim.trace, "Bid"))
    sim.bus.publish("a01", zone_topic(zone, "tick_ack"),
                    {"kind": "tick_ack", "bids": [["j900", 2], ["j999", 1]]})
    sim._pump(1)
    assert lr.tick_acks == {"a01"}
    assert [(e["actor"], e["job"]) for e in events_of(sim.trace, "Bid")[bids_before:]] == [
        ("a01", "j900")]


@pytest.mark.parametrize("half", ["states", "acks"])
def test_wait_rule_marks_a_silent_member_dead_at_the_timeout(half):
    """With timeout T, a member whose state never arrives is marked dead on
    the T-th bus step of the round, and one whose ack never arrives on the
    (T+1)-th bus step after the broadcast."""
    timeout = 4
    sim = Simulation(two_zone(agents=FOUR_AGENTS, timeout=timeout))
    zone = run_until(sim, "a00", lambda s: s.zones[(0, 0)].snapshot is not None)
    lr = open_round(sim, zone, "a00", {"a00", "a01", "a03"})
    for aid in ["a01", "a03"] if half == "acks" else ["a01"]:
        sim.bus.publish(aid, zone_topic(zone, "db_update"),
                        {"kind": "state", "record": sim._record_for(sim.agents[aid])})
    sim.agents["a03"].powered = False  # publishes and acknowledges nothing more
    sim.leader_rounds = {zone: lr}
    steps = {}
    for step in range(1, 3 * timeout):
        sim._pump(1)
        if lr.broadcast:
            steps.setdefault("broadcast", step)
        if "a03" not in lr.expected:
            steps.setdefault("dead", step)
    if half == "states":
        assert steps == {"broadcast": timeout, "dead": timeout}
    else:
        assert steps == {"broadcast": 1, "dead": 1 + timeout + 1}
    assert sim._step_round(lr) and lr.tick_acks == {"a01"}
    assert [e["agent"] for e in events_of(sim.trace, "MarkDead")] == ["a03"]


# Zone (0, 0) holds a00, its leader, and one member per reader case of a tick;
# a09 leads zone (0, 1).
TICK_READERS = [{"id": "a00", "start": [2, 3]}, {"id": "a01", "start": [4, 1]},
                {"id": "a02", "start": [1, 4]}, {"id": "a03", "start": [0, 0]},
                {"id": "a04", "start": [5, 5]}, {"id": "a05", "start": [3, 0]},
                {"id": "a06", "start": [0, 5]}, {"id": "a07", "start": [5, 0]},
                {"id": "a08", "start": [1, 1]}, {"id": "a09", "start": [9, 3]}]


def test_one_tick_envelope_is_read_by_each_reader_case(monkeypatch):
    sim = Simulation(two_zone(agents=TICK_READERS, jobs=[]))
    zone = run_until(sim, "a00", lambda s: s.round == 3)
    tick = sim.zones[zone].tick
    homed = sim.bus.subscribers(zone_topic(zone, "global_tick"))
    assert homed == tuple(f"a{i:02d}" for i in range(9))
    assert {sim.agents[aid].local_tick for aid in homed} == {tick}
    a = sim.agents
    a["a02"].job = spawn_job(sim.grid, "j901", (0, 2), 1.0, sim.round)  # busy
    a["a03"].powered = False
    a["a04"].status = Liveness.RECOVERING
    a["a05"].position = Cell(7, 1)  # its home changes in flight
    sim._after_move(a["a05"])
    a["a07"].local_tick = tick - 1  # missed a tick
    a["a08"].local_tick = tick + 1  # already at the tick
    before = {aid: (a[aid].local_tick, a[aid].committed_round) for aid in homed}
    published = []
    publish = sim.bus.publish

    def recording(sender, topic, payload):
        published.append((sender, topic, payload))
        return publish(sender, topic, payload)

    monkeypatch.setattr(sim.bus, "publish", recording)
    sim.round += 1
    acks = len(events_of(sim.trace, "TickAck"))
    snapshot = make_snapshot(tick, {})
    # a06 is missing from the roster. The recipients include the leader, as
    # when a tick from a former leader reaches the new one.
    payload = {"kind": "tick", "new_tick": tick + 1, "snapshot": snapshot,
               "roster": frozenset(homed) - {"a06"}, "solicit": [("j900", Cell(5, 2))]}
    Simulation._handlers["tick"](sim, SUPER, zone_topic(zone, "global_tick"), payload, homed)
    assert [(e["actor"], e["zone"], e["committed_tick"], e["digest"])
            for e in events_of(sim.trace, "TickAck")[acks:]] == [
        ("a01", [0, 0], tick + 1, snapshot.digest()),
        ("a02", [0, 0], tick + 1, snapshot.digest())]
    ack, resync = zone_topic(zone, "tick_ack"), zone_topic(zone, "db_update")
    assert published == [("a01", ack, {"kind": "tick_ack", "bids": [["j900", 2]]}),  # by Manhattan
                         ("a02", ack, {"kind": "tick_ack", "bids": []}),
                         ("a06", resync, {"kind": "resync_req"}),
                         ("a07", resync, {"kind": "resync_req"})]
    committed = {"a01", "a02"}
    assert {aid: (a[aid].local_tick, a[aid].committed_round) for aid in homed} == {
        aid: (tick + 1, sim.round) if aid in committed else before[aid] for aid in homed}
    assert [aid for aid in homed if a[aid].status is Liveness.RECOVERING] == [
        "a04", "a06", "a07"]


# Reader rule: each message is read only by the agents its kind names, picked
# on arrival from the recipients fixed at publish, and only while powered.

def bootstrapped():
    """a00 leads zone (0, 0) over a01 and a03; a02 leads zone (0, 1)."""
    sim = Simulation(two_zone(agents=FOUR_AGENTS, jobs=[]))
    run_until(sim, "a00", lambda s: True)
    return sim


def send_to_a01(sim, message):
    """Publish `message`, addressed to a01 or to its zone (0, 0)."""
    if message == "solicit":
        sim.sup.start_election((0, 0), ElectionReason.LEADER_DEAD)
    elif message == "role":
        sim.bus.publish(SUPER, "super/election",
                        {"kind": "role", "zone": (0, 0), "leader": "a01", "since_tick": 0})
    elif message == "mandate":
        sim.bus.publish(SUPER, "super/mandates",
                        {"kind": "mandate",
                         "mandate": MigrationMandate("m900", "a01", (0, 0), (0, 1))})
    elif message == "tick":
        tick = sim.zones[(0, 0)].tick
        sim.bus.publish("a00", zone_topic((0, 0), "global_tick"),
                        {"kind": "tick", "new_tick": tick + 1, "roster": ("a00", "a01", "a03"),
                         "snapshot": make_snapshot(tick, {}), "solicit": []})
    else:  # resync_resp
        sim.agents["a01"].status = Liveness.RECOVERING
        sim.bus.publish("a00", zone_topic((0, 0), "global_tick"),
                        {"kind": "resync_resp", "target": "a01", "tick": 7})


def assert_a01_read_nothing(sim, message):
    a01 = sim.agents["a01"]
    assert not a01.is_leader and sim.zones[(0, 0)].leader != "a01"
    assert a01.mandate is None and a01.goal is None
    assert a01.status is (Liveness.RECOVERING if message == "resync_resp" else Liveness.ALIVE)
    if message == "tick":
        assert a01.local_tick == sim.zones[(0, 0)].tick
    if message == "solicit":
        assert "a01" not in sim.sup.elections[(0, 0)].candidacies


@pytest.mark.parametrize("message", ["role", "mandate"])
def test_a_reader_cut_off_at_publish_reads_nothing_after_the_heal(message):
    sim = bootstrapped()
    sim.bus.set_partition([["a01"]])
    send_to_a01(sim, message)
    sim.bus.set_partition(())
    sim._pump(2)
    assert_a01_read_nothing(sim, message)


@pytest.mark.parametrize("message", ["solicit", "role", "mandate", "tick"])
def test_an_agent_that_left_its_zone_in_flight_does_not_read_for_it(message):
    sim = bootstrapped()
    send_to_a01(sim, message)
    a01 = sim.agents["a01"]
    a01.position = Cell(7, 1)
    sim._after_move(a01)
    assert a01.home == (0, 1)
    sim._pump(2)
    assert_a01_read_nothing(sim, message)
    if message == "solicit":
        assert sorted(sim.sup.elections[(0, 0)].candidacies) == ["a00", "a03"]


@pytest.mark.parametrize("message", ["solicit", "role", "mandate", "resync_resp"])
def test_a_powered_off_reader_reads_nothing(message):
    sim = bootstrapped()
    send_to_a01(sim, message)
    sim.agents["a01"].powered = False
    sim._pump(2)
    assert_a01_read_nothing(sim, message)


def test_a_resync_reply_resyncs_only_its_target():
    sim = bootstrapped()
    resyncs = len(events_of(sim.trace, "Resync"))
    sim.agents["a03"].status = Liveness.RECOVERING
    send_to_a01(sim, "resync_resp")
    sim._pump(1)
    assert sim.agents["a01"].status is Liveness.ALIVE and sim.agents["a01"].local_tick == 7
    assert sim.agents["a03"].status is Liveness.RECOVERING
    assert [(e["actor"], e["resync_tick"]) for e in events_of(sim.trace, "Resync")[resyncs:]] == [
        ("a01", 7)]


def test_a_second_resync_reply_does_not_recommit_an_older_tick():
    sim = bootstrapped()
    resyncs = len(events_of(sim.trace, "Resync"))
    send_to_a01(sim, "resync_resp")
    sim.bus.publish("a00", zone_topic((0, 0), "global_tick"),
                    {"kind": "resync_resp", "target": "a01", "tick": 5})
    sim._pump(2)
    assert sim.agents["a01"].status is Liveness.ALIVE and sim.agents["a01"].local_tick == 7
    assert [(e["actor"], e["resync_tick"]) for e in events_of(sim.trace, "Resync")[resyncs:]] == [
        ("a01", 7)]


@pytest.mark.parametrize("cut_off", [False, True], ids=["reachable", "cut_off"])
def test_suspect_ok_reaches_only_the_rounds_leader(cut_off):
    sim = bootstrapped()
    sim.leader_rounds = {zone: open_round(sim, zone, zs.leader, {m.id for m in sim._members(zone)})
                         for zone, zs in sim.zones.items()}
    sim.bus.set_partition([["a00"]] if cut_off else [])
    sim.bus.publish(SUPER, "super/election", {"kind": "suspect_ok", "zone": (0, 0)})
    sim.bus.set_partition(())
    sim._pump(1)
    assert [z for z, lr in sim.leader_rounds.items() if lr.confirm_ok] == (
        [] if cut_off else [(0, 0)])


def test_a_finished_run_is_freed_without_a_collection():
    """No protocol object holds the run, so neither the run nor its trace
    outlives its caller's last reference until a cyclic collection."""
    sim = Simulation(scenario_from_dict(random_scenario(3, drop_prob=0.1, delay=1)))
    gc.disable()
    try:
        _, trace = sim.run()
        refs = weakref.ref(sim), weakref.ref(trace)
        del sim, trace
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.xfail(strict=True, reason="the super-leader publishes each role "
                   "message once, and nothing recovers a dropped one")
def test_dropped_role_message_leaves_one_assigner():
    # At tick 13 the role message naming a01 is dropped: a01 never takes
    # office and a02, the old leader, keeps assigning as a non-leader.
    _, trace = run_scenario(random_scenario(13, drop_prob=0.1, delay=1))
    assert verify_trace(trace.dump()) == []
