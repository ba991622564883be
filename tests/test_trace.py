import json

import pytest

from gridswarm.trace import (EVENT_FIELDS, TraceFormatError, TraceWriter, parse_trace,
                             trace_digest, verify_trace)


def writer_with(*events):
    w = TraceWriter()
    for tick, kind, actor, payload in events:
        w.emit(tick, kind, actor, **payload)
    return w


def test_emit_rejects_unknown_kind_and_fields():
    w = TraceWriter()
    with pytest.raises(ValueError):
        w.emit(0, "Nonsense", "a")
    with pytest.raises(ValueError):
        w.emit(0, "Move", "a", src=[0, 0], dst=[1, 0], extra=True)


def test_field_order_is_fixed():
    w = TraceWriter()
    w.emit(3, "Move", "a", dst=[1, 0], src=[0, 0])
    assert w.lines() == ['{"tick":3,"kind":"Move","actor":"a","src":[0,0],"dst":[1,0]}']


def test_digest_changes_with_content():
    w1 = writer_with((0, "Move", "a", {"src": [0, 0], "dst": [1, 0]}))
    w2 = writer_with((0, "Move", "a", {"src": [0, 0], "dst": [0, 1]}))
    assert w1.digest() != w2.digest()
    assert w1.digest() == trace_digest(w1.dump())


def test_parse_round_trip():
    w = writer_with((0, "JobSpawn", "controller",
                     {"job": "j0", "location": [2, 2], "priority": 1.5,
                      "zone": [0, 0], "rejected": False}),
                    (1, "Move", "a", {"src": [0, 0], "dst": [1, 0]}))
    events = parse_trace(w.dump())
    assert [e["kind"] for e in events] == ["JobSpawn", "Move"]


def test_parse_reports_line_numbers():
    with pytest.raises(TraceFormatError) as err:
        parse_trace('{"tick":0,"kind":"Move","actor":"a","src":[0,0],"dst":[1,0]}\n'
                    'not json\n')
    assert err.value.line_no == 2
    with pytest.raises(TraceFormatError):
        parse_trace('{"tick":0,"kind":"Unknown","actor":"a"}\n')


# A Move without dst and a TickAck without digest used to reach the verifier
# and raise KeyError there.
MISSING_FIELD = {
    "dst": '{"tick":1,"kind":"Move","actor":"a","src":[0,0]}\n',
    "digest": '{"tick":1,"kind":"TickAck","actor":"a","zone":[0,0],"committed_tick":1}\n',
}


@pytest.mark.parametrize("missing", sorted(MISSING_FIELD))
def test_event_missing_a_field_is_a_format_error(missing):
    text = ('{"tick":0,"kind":"Resync","actor":"a","zone":[0,0],"resync_tick":0}\n'
            + MISSING_FIELD[missing])
    with pytest.raises(TraceFormatError, match=missing) as err:
        parse_trace(text)
    assert err.value.line_no == 2
    with pytest.raises(TraceFormatError):
        verify_trace(text)


def test_tick_must_be_an_integer():
    for tick in ('"3"', "true", "1.5", "null"):
        with pytest.raises(TraceFormatError, match="tick must be an integer") as err:
            parse_trace('{"tick":0,"kind":"Resync","actor":"a","zone":[0,0],"resync_tick":0}\n'
                        f'{{"tick":{tick},"kind":"Resync","actor":"a","zone":[0,0],'
                        '"resync_tick":0}\n')
        assert err.value.line_no == 2


# Values of the wrong type that the verifier used to crash on with a TypeError.
WRONG_TYPE = [
    '{"tick":4,"kind":"Move","actor":"a7","src":[0,0],"dst":5}',
    '{"tick":4,"kind":"Move","actor":"a7","src":null,"dst":[1,0]}',
    '{"tick":4,"kind":"Move","actor":"a7","src":[0,0],"dst":[[1],0]}',
    '{"tick":4,"kind":"StatePublish","actor":"a7","zone":[0,0],"position":3,'
    '"intent":[0,0],"job":null,"agent_tick":0}',
    # The two below used to pass the reading loop and crash in the safety pass.
    '{"tick":4,"kind":"StatePublish","actor":"a7","zone":[0,0],"position":[[1],0],'
    '"intent":[0,0],"job":null,"agent_tick":0}',
    '{"tick":4,"kind":"Move","actor":"a7","src":[0,0],"dst":[1,"0"]}',
    '{"tick":4,"kind":"TickAck","actor":"a7","zone":[0,0],"committed_tick":"2","digest":"d"}',
]


@pytest.mark.parametrize("line", WRONG_TYPE)
def test_value_of_the_wrong_type_is_a_format_error(line):
    text = ('{"tick":1,"kind":"TickAck","actor":"a7","zone":[0,0],"committed_tick":1,'
            '"digest":"d"}\n' + line + "\n")
    kind = json.loads(line)["kind"]
    with pytest.raises(TraceFormatError, match=f"line 2: {kind} event at tick 4 by 'a7'") as err:
        verify_trace(text)
    assert err.value.line_no == 2
    assert isinstance(err.value.__cause__, (TypeError, ValueError))


def test_actors_of_mixed_types_are_a_format_error():
    # Sorting the actors' positions compared 5 with "b" and raised TypeError.
    text = ('{"tick":1,"kind":"Move","actor":"b","src":[0,0],"dst":[1,0]}\n'
            '{"tick":1,"kind":"Move","actor":5,"src":[2,0],"dst":[3,0]}\n')
    with pytest.raises(TraceFormatError, match="line 2: actor must be a string"):
        verify_trace(text)


def test_every_emitted_kind_parses_back():
    w = TraceWriter()
    for kind, fields in EVENT_FIELDS.items():
        w.emit(0, kind, "a", **{name: None for name in fields})
    assert [e["kind"] for e in parse_trace(w.dump())] == list(EVENT_FIELDS)
    with pytest.raises(TraceFormatError, match="actor"):
        parse_trace('{"tick":0,"kind":"Resync","zone":[0,0],"resync_tick":0}\n')
    with pytest.raises(TraceFormatError, match="unknown event kind"):
        parse_trace('{"tick":0,"kind":["Move"],"actor":"a"}\n')


def test_clean_trace_verifies_empty():
    w = writer_with(
        (0, "StatePublish", "a", {"zone": [0, 0], "position": [0, 0],
                                  "intent": [1, 0], "job": None, "agent_tick": 0}),
        (0, "StatePublish", "b", {"zone": [0, 0], "position": [3, 0],
                                  "intent": [3, 0], "job": None, "agent_tick": 0}),
        (1, "Move", "a", {"src": [0, 0], "dst": [1, 0]}),
    )
    assert verify_trace(w.dump()) == []


def test_verifier_flags_vertex_violation():
    w = writer_with(
        (1, "Move", "a", {"src": [0, 0], "dst": [1, 0]}),
        (1, "Move", "b", {"src": [2, 0], "dst": [1, 0]}),
    )
    assert any("vertex violation" in v for v in verify_trace(w.dump()))


def test_verifier_flags_edge_swap():
    w = writer_with(
        (1, "Move", "a", {"src": [0, 0], "dst": [1, 0]}),
        (1, "Move", "b", {"src": [1, 0], "dst": [0, 0]}),
    )
    assert any("edge swap" in v for v in verify_trace(w.dump()))


def test_verifier_flags_snapshot_disagreement():
    w = writer_with(
        (1, "TickBroadcast", "lead", {"zone": [0, 0], "new_tick": 1,
                                      "roster": ["a"], "digest": "aaaa"}),
        (1, "TickAck", "a", {"zone": [0, 0], "committed_tick": 1, "digest": "bbbb"}),
    )
    assert any("snapshot disagreement" in v for v in verify_trace(w.dump()))


def test_verifier_flags_tick_jump_without_resync():
    w = writer_with(
        (1, "TickAck", "a", {"zone": [0, 0], "committed_tick": 1, "digest": "x"}),
        (2, "TickAck", "a", {"zone": [0, 0], "committed_tick": 5, "digest": "y"}),
    )
    assert any("without resync" in v for v in verify_trace(w.dump()))


def test_verifier_allows_jump_after_resync():
    w = writer_with(
        (1, "TickAck", "a", {"zone": [0, 0], "committed_tick": 1, "digest": "x"}),
        (2, "Resync", "a", {"zone": [0, 0], "resync_tick": 4}),
        (3, "TickAck", "a", {"zone": [0, 0], "committed_tick": 5, "digest": "y"}),
    )
    assert verify_trace(w.dump()) == []


def test_verifier_flags_non_monotonic_commit():
    w = writer_with(
        (1, "TickAck", "a", {"zone": [0, 0], "committed_tick": 3, "digest": "x"}),
        (2, "TickAck", "a", {"zone": [0, 0], "committed_tick": 3, "digest": "x"}),
    )
    assert any("after" in v for v in verify_trace(w.dump()))


def election(tick, zone, leader):
    return (tick, "Election", "super", {"zone": zone, "leader": leader,
                                        "since_tick": 0, "reason": "bootstrap"})


def test_verifier_flags_assignment_by_non_leader():
    w = writer_with(
        election(0, [0, 0], "lead"),
        (1, "Assign", "other", {"job": "j0", "agent": "a", "cost": 2, "zone": [0, 0]}),
    )
    assert any("non-leader" in v for v in verify_trace(w.dump()))


def test_verifier_flags_double_assignment():
    w = writer_with(
        election(0, [0, 0], "lead"),
        (1, "Assign", "lead", {"job": "j0", "agent": "a", "cost": 2, "zone": [0, 0]}),
        (2, "Assign", "lead", {"job": "j0", "agent": "b", "cost": 2, "zone": [0, 0]}),
    )
    assert any("double-assigned" in v for v in verify_trace(w.dump()))


def test_verifier_allows_reassignment_after_release():
    w = writer_with(
        election(0, [0, 0], "lead"),
        (1, "Assign", "lead", {"job": "j0", "agent": "a", "cost": 2, "zone": [0, 0]}),
        (2, "MarkDead", "lead", {"zone": [0, 0], "agent": "a", "released_job": "j0"}),
        (3, "Assign", "lead", {"job": "j0", "agent": "b", "cost": 4, "zone": [0, 0]}),
    )
    assert verify_trace(w.dump()) == []


def test_verifier_flags_agent_with_two_jobs():
    w = writer_with(
        election(0, [0, 0], "lead"),
        (1, "Assign", "lead", {"job": "j0", "agent": "a", "cost": 2, "zone": [0, 0]}),
        (2, "Assign", "lead", {"job": "j1", "agent": "a", "cost": 2, "zone": [0, 0]}),
    )
    assert any("two assignments" in v for v in verify_trace(w.dump()))


def test_verifier_flags_mandate_from_wrong_actor():
    w = writer_with(
        (1, "Mandate", "a03", {"mandate": "m0", "agent": "a03",
                               "from_zone": [0, 0], "to_zone": [0, 1]}),
    )
    assert any("super-leader" in v for v in verify_trace(w.dump()))
