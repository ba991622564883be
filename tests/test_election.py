import math
import random

import pytest
from hypothesis import given, strategies as st

from gridswarm.election import NoCandidatesError, centroid_distance, elect_zone_leader
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
