import hashlib
import json

from hypothesis import given, settings, strategies as st

from gridswarm.consensus import (Advance, MarkDeadAndAdvance, StateRecord, Wait, ZoneRound,
                                 ZoneSnapshot, ZoneState, leader_tick_decision, make_snapshot,
                                 resolve_overlap_tick, tick_gap_requires_resync)
from gridswarm.jobs import Bid, Job
from gridswarm.world import Cell


def record(agent, x=0, y=0, tick=5, job=None, priority=1.0):
    return StateRecord(agent=agent, position=Cell(x, y), intent=Cell(x, y),
                       job=job, priority=priority, tick=tick)


def test_snapshot_digest_depends_on_content():
    base = {"a": record("a"), "b": record("b", 1)}
    s1 = make_snapshot(3, base)
    s2 = make_snapshot(3, dict(base))
    assert s1.digest() == s2.digest()
    moved = dict(base, b=record("b", 2))
    assert make_snapshot(3, moved).digest() != s1.digest()
    assert make_snapshot(4, base).digest() != s1.digest()


def test_snapshot_digest_cache_matches_fresh_digest():
    base = {"a": record("a"), "b": record("b", 1, job="j1")}
    s1 = make_snapshot(3, base)
    first = s1.digest()
    assert s1.digest() is first  # served from the cache
    s2 = make_snapshot(3, dict(base))  # equal content, never digested
    assert s2 == s1 and hash(s2) == hash(s1)
    assert s2.digest() == first
    blob = json.dumps([3, ["a", [0, 0], [0, 0], None, 1.0, 5], ["b", [1, 0], [1, 0], "j1", 1.0, 5]],
                      separators=(",", ":"))
    assert first == hashlib.sha256(blob.encode()).hexdigest()[:16]


_ints = st.integers() | st.sampled_from([0, -1, 2**63, -(2**64) - 1, 10**300])
_text = st.text() | st.sampled_from(["", "\u2028", "\x00\x1f\x7f\"\\", "\ud800", "\u00e9\u4e2d"])
_cells = st.tuples(_ints, _ints)
_records = st.builds(StateRecord, _text, _cells, _cells, st.none() | _text,
                     st.floats(allow_nan=False, allow_infinity=False), _ints)


@settings(max_examples=300, deadline=None)
@given(tick=_ints, records=st.lists(_records, max_size=5).map(tuple))
def test_snapshot_digest_input_is_written_as_json_dumps_writes_it(tick, records):
    blob = json.dumps((tick, *records), separators=(",", ":"))
    digest = ZoneSnapshot(tick=tick, records=records).digest()
    assert digest == hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_snapshot_records_sorted_by_agent():
    snap = make_snapshot(0, {"b": record("b"), "a": record("a", 1)})
    assert [r.agent for r in snap.records] == ["a", "b"]


def test_leader_decision_full_coverage_advances():
    d = leader_tick_decision({"a", "b"}, {"a", "b"}, waited_steps=0,
                             timeout_steps=10)
    assert d == Advance()


def test_leader_decision_waits_below_timeout():
    d = leader_tick_decision({"a"}, {"a", "b"}, waited_steps=9, timeout_steps=10)
    assert isinstance(d, Wait)


def test_leader_decision_marks_missing_dead_at_timeout():
    d = leader_tick_decision({"a"}, {"a", "b", "c"}, waited_steps=10,
                             timeout_steps=10)
    assert d == MarkDeadAndAdvance(missing=frozenset({"b", "c"}))


def test_tick_gap_detection():
    assert not tick_gap_requires_resync(5, 6)
    assert not tick_gap_requires_resync(5, 5)
    assert tick_gap_requires_resync(5, 7)
    assert tick_gap_requires_resync(0, 12)


def test_overlap_tick_priority_wins():
    assert resolve_overlap_tick(4, 9, 2.0, 1.0, "a", "b") == 4
    assert resolve_overlap_tick(4, 9, 1.0, 2.0, "a", "b") == 9


def test_overlap_tick_tie_breaks_to_lower_id():
    assert resolve_overlap_tick(4, 9, 1.5, 1.5, "a", "b") == 4
    assert resolve_overlap_tick(4, 9, 1.5, 1.5, "z", "b") == 9


def test_overlap_tick_equal_ticks():
    assert resolve_overlap_tick(6, 6, 1.0, 3.0, "a", "b") == 6


# --- one zone's round, driven with plain values and recorders -----------------

ZONE, TOPIC = (0, 0), "zone/0,0/global_tick"


def distance(position, location):
    """A cost function for the leader's bids."""
    return abs(position.x - location.x) + abs(position.y - location.y)


def zone_round(expected, pool, holds=None, timeout=3, tick=4):
    """A round led by L with its publishes, events and dead members recorded.
    Marking a member dead releases the job `holds` gives it, as the engine
    does."""
    published, events, dead = [], [], []

    def mark_dead(aid):
        dead.append(aid)
        job = (holds or {}).get(aid)
        if job is None:
            return None
        job.assign_tick = None
        return job.id

    state = ZoneState(leader="L", tick=tick, pool=pool)
    rnd = ZoneRound(ZONE, "L", tick, set(expected), state, TOPIC, timeout,
                    lambda *message: published.append(message),
                    lambda *event: events.append(event), mark_dead)
    return rnd, published, events, dead


def test_zone_round_marks_a_silent_member_dead_and_solicits_its_job():
    """L leads a, b and c with timeout 3. c's state never arrives, so on the
    third step L marks c dead, which releases c's job j1, and solicits it with
    the pending j0. b's ack arrives in the step that would have timed it out,
    the last one at which it counts, so the round ends with b alive."""
    j0, j1 = Job("j0", Cell(1, 1), 1.0, 0), Job("j1", Cell(3, 0), 2.0, 0, assign_tick=2)
    rnd, published, events, dead = zone_round({"L", "a", "b", "c"}, {"j0": j0, "j1": j1},
                                              holds={"c": j1})
    rec = {aid: record(aid, x, tick=4) for aid, x in (("L", 0), ("a", 1), ("b", 2))}
    rnd.on_state("a", {"kind": "state", "record": rec["a"]})
    rnd.on_state("b", {"kind": "state", "record": rec["b"]})
    rnd.on_state("z", {"kind": "state", "record": record("z")})  # not a member: ignored
    assert [rnd.step() for _ in range(3)] == [False, False, True]
    assert dead == ["c"] and j1.assign_tick is None

    rnd.broadcast_tick(rec["L"], distance)
    snapshot = make_snapshot(4, rec)
    assert published == [
        ("L", TOPIC, {"kind": "tick", "new_tick": 5, "roster": frozenset({"L", "a", "b"}),
                      "snapshot": snapshot, "solicit": [("j0", Cell(1, 1)), ("j1", Cell(3, 0))]})]
    assert (rnd.state.tick, rnd.state.snapshot) == (5, snapshot)

    rnd.on_tick_ack("a", {"kind": "tick_ack", "bids": [["j1", 2], ["j9", 1]]})  # j9: unsolicited
    assert [rnd.step() for _ in range(3)] == [False, False, False]
    rnd.on_tick_ack("b", {"kind": "tick_ack", "bids": []})
    assert rnd.step()
    assert dead == ["c"] and rnd.tick_acks == {"a", "b"}
    assert events == [("MarkDead", "L", ZONE, "c", "j1"),
                      ("Bid", "L", "j0", 2, ZONE), ("Bid", "L", "j1", 3, ZONE),
                      ("TickBroadcast", "L", ZONE, 5, ("L", "a", "b"), snapshot.digest()),
                      ("Bid", "a", "j1", 2, ZONE)]
    assert rnd.bids == {"j0": [Bid("L", "j0", 2)], "j1": [Bid("L", "j1", 3), Bid("a", "j1", 2)]}
    assert len(published) == 1


def test_zone_round_without_contact_waits_for_the_super_leader_once_probed():
    """A leader that hears no state at the timeout suspects its own isolation:
    it probes the super-leader once and marks no one dead until the answer."""
    rnd, published, events, dead = zone_round({"L", "a"}, {}, timeout=2)
    assert [rnd.step() for _ in range(4)] == [False, False, False, False]
    assert published == [("L", "super/inbox", {"kind": "suspect", "zone": ZONE})]
    rnd.on_suspect_ok("super", {"kind": "suspect_ok", "zone": ZONE})
    assert rnd.step() and dead == ["a"] and events == [("MarkDead", "L", ZONE, "a", None)]


def test_zone_round_answers_a_resync_request_once_the_zone_has_a_snapshot():
    rnd, published, _, _ = zone_round({"L"}, {})
    rnd.on_resync_req("a", {"kind": "resync_req"})
    assert published == []
    rnd.state.snapshot = make_snapshot(4, {})
    rnd.on_resync_req("a", {"kind": "resync_req"})
    assert published == [("L", TOPIC, {"kind": "resync_resp", "target": "a", "tick": 4})]
