"""The per-message records the engine builds stay immutable values."""

import pytest

from gridswarm.consensus import StateRecord
from gridswarm.jobs import Bid
from gridswarm.planner import KinematicState
from gridswarm.world import Cell

RECORDS = [
    (StateRecord, dict(agent="a01", position=Cell(1, 2), intent=Cell(1, 3), job="j004",
                       priority=1.5, tick=9)),
    (KinematicState, dict(agent="a01", current=Cell(1, 2), intent=Cell(2, 2), priority=2.0,
                          stuck=1, has_job=True)),
    (Bid, dict(agent="a01", job="j004", cost=5)),
]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_is_an_immutable_value(cls, fields):
    by_name = cls(**fields)
    by_position = cls(*fields.values())
    assert by_name == by_position
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        with pytest.raises(AttributeError):
            setattr(by_name, name, value)
    with pytest.raises(AttributeError):
        by_name.extra = 1
