import hashlib
import json

from gridswarm.consensus import (Advance, MarkDeadAndAdvance, StateRecord,
                                 Wait, leader_tick_decision, make_snapshot,
                                 resolve_overlap_tick, tick_gap_requires_resync)
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
