import math
import random

import pytest
from hypothesis import given, strategies as st

from gridswarm.election import (SUPER, ElectionReason, NoCandidatesError, SuperLeader,
                                centroid_distance, elect_zone_leader)
from gridswarm.world import Cell, GridMap, build_partition


def test_centroid_distance():
    part = build_partition(GridMap(width=10, height=10), 1, 1)
    zone = part.zone((0, 0))  # centroid (4.5, 4.5)
    assert centroid_distance(Cell(4, 4), zone) == pytest.approx(math.hypot(0.5, 0.5))
    assert centroid_distance(Cell(0, 0), zone) == pytest.approx(math.hypot(4.5, 4.5))


def test_election_picks_minimum_distance():
    winner = elect_zone_leader({"a": 3.0, "b": 1.0, "c": 2.0})
    assert winner == "b"


def test_election_tie_breaks_to_lower_id():
    winner = elect_zone_leader({"y": 1.0, "x": 1.0})
    assert winner == "x"


def test_election_requires_candidates():
    with pytest.raises(NoCandidatesError):
        elect_zone_leader({})


@given(st.lists(st.tuples(st.text("ab", min_size=1, max_size=4),
                          st.floats(0, 100, allow_nan=False)),
                min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_election_invariant_under_candidate_order(entries, rng):
    """Shuffling the order candidacies arrive in never changes the winner."""
    candidates = dict(entries)
    first = elect_zone_leader(candidates)
    shuffled = list(candidates.items())
    rng.shuffle(shuffled)
    assert elect_zone_leader(dict(shuffled)) == first


# --- the super-leader, driven with plain values and recorders -----------------

ZONE = (0, 1)


def super_leader(timeout=3):
    """A super-leader whose publishes and events are recorded and whose bus
    step is `now[0]`."""
    now, published, events = [0], [], []
    sup = SuperLeader(timeout, lambda *message: published.append(message),
                      lambda *event: events.append(event), lambda: now[0])
    return sup, now, published, events


def candidacy(election, distance, tick):
    return {"kind": "candidacy", "zone": ZONE, "election": election, "distance": distance,
            "tick": tick}


def role(leader, since_tick):
    return (SUPER, "super/election",
            {"kind": "role", "zone": ZONE, "leader": leader, "since_tick": since_tick})


def test_super_leader_ignores_a_candidacy_for_a_stale_election():
    sup, now, published, _ = super_leader()
    sup.start_election(ZONE, ElectionReason.BOOTSTRAP)
    now[0] = 3
    sup.step()  # closes election 1 with no candidate
    sup.start_election(ZONE, ElectionReason.LEADER_DEAD)
    sup.on_candidacy("a", candidacy(1, 0.5, 9))
    sup.on_candidacy("b", candidacy(2, 2.0, 4))
    assert sup.elections[ZONE].candidacies == {"b": (2.0, 4)}
    now[0] = 6
    sup.step()
    assert published[-1] == role("b", 4)


def test_super_leader_elects_the_nearest_candidate_and_breaks_ties_to_the_lower_id():
    sup, now, published, events = super_leader()
    sup.start_election(ZONE, ElectionReason.BOOTSTRAP)
    for aid, distance in (("c", 1.0), ("a", 2.5), ("b", 1.0)):
        sup.on_candidacy(aid, candidacy(1, distance, 3))
    now[0] = 2
    sup.step()
    assert ZONE in sup.elections  # open until its deadline, step 3
    now[0] = 3
    sup.step()
    assert ZONE not in sup.elections and sup.roles[ZONE] == "b"
    assert published == [(SUPER, "super/election",
                          {"kind": "solicit", "zone": ZONE, "election": 1}), role("b", 3)]
    assert events == [("Election", SUPER, ZONE, "b", 3, "bootstrap")]


def test_super_leader_role_starts_at_the_largest_candidacy_tick():
    sup, now, published, events = super_leader()
    sup.start_election(ZONE, ElectionReason.LEADER_MIGRATED)
    for aid, distance, tick in (("a", 1.0, 4), ("b", 3.0, 9), ("c", 2.0, 6)):
        sup.on_candidacy(aid, candidacy(1, distance, tick))
    now[0] = 3
    sup.step()
    assert published[-1] == role("a", 9)
    assert events == [("Election", SUPER, ZONE, "a", 9, "leader_migrated")]


def test_super_leader_election_with_no_candidate_leaves_no_role_holder():
    sup, now, published, events = super_leader()
    sup.roles[ZONE] = "a"
    sup.start_election(ZONE, ElectionReason.LEADER_DEAD)
    now[0] = 3
    sup.step()
    assert sup.roles[ZONE] is None and not sup.elections
    assert [payload["kind"] for _, _, payload in published] == ["solicit"]
    assert events == []


def test_super_leader_answers_suspect_only_for_the_role_holder():
    sup, _, published, _ = super_leader()
    sup.roles[ZONE] = "a"
    sup.on_suspect("b", {"kind": "suspect", "zone": ZONE})
    sup.on_suspect("a", {"kind": "suspect", "zone": (0, 0)})
    assert published == []
    sup.on_suspect("a", {"kind": "suspect", "zone": ZONE})
    assert published == [(SUPER, "super/election", {"kind": "suspect_ok", "zone": ZONE})]


def test_super_leader_stepdown_by_the_role_holder_opens_one_election():
    sup, _, published, _ = super_leader()
    sup.roles[ZONE] = "a"
    sup.on_stepdown("b", {"kind": "stepdown", "zone": (0, 0)})  # not (0, 0)'s holder
    assert sup.roles[ZONE] == "a" and list(sup.elections) == [(0, 0)]
    sup.on_stepdown("a", {"kind": "stepdown", "zone": ZONE})
    sup.on_stepdown("a", {"kind": "stepdown", "zone": ZONE})
    sup.on_leader_loss("c", {"kind": "leader_loss", "zone": ZONE})
    assert sup.roles[ZONE] is None
    assert [(z, e.election_id, e.reason) for z, e in sup.elections.items()] == [
        ((0, 0), 1, ElectionReason.LEADER_MIGRATED), (ZONE, 2, ElectionReason.LEADER_MIGRATED)]
    assert [payload for _, _, payload in published] == [
        {"kind": "solicit", "zone": (0, 0), "election": 1},
        {"kind": "solicit", "zone": ZONE, "election": 2}]
