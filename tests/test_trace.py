import functools
import gc
import json

import pytest
from hypothesis import given, settings, strategies as st

from gridswarm import trace
from gridswarm.engine import run_scenario
from gridswarm.scenario import random_scenario, scenario_from_dict
from gridswarm.trace import (EVENT_FIELDS, TraceFormatError, TraceWriter, parse_trace,
                             trace_digest, verify_trace)


def as_event(row):
    """The event of a TraceWriter row as the dict its line encodes."""
    kind, tick, actor, *values = row
    return {"tick": tick, "kind": kind, "actor": actor, **dict(zip(EVENT_FIELDS[kind], values))}


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
    w.emit(3, "Move", "a", src=[0, 0], dst=[1, 0])
    assert w.lines() == ['{"tick":3,"kind":"Move","actor":"a","src":[0,0],"dst":[1,0]}']
    # A payload out of schema order, or one lacking a field, is refused
    # rather than reordered or written as a line the parser rejects.
    for payload in ({"dst": [1, 0], "src": [0, 0]}, {"src": [0, 0]}):
        with pytest.raises(ValueError, match="Move: payload fields"):
            w.emit(4, "Move", "a", **payload)
    assert len(w.rows) == 1


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
    # Zones used to be keyed by their JSON text, so any value passed.
    '{"tick":4,"kind":"TickAck","actor":"a7","zone":[[1],0],"committed_tick":2,"digest":"d"}',
    '{"tick":4,"kind":"TickBroadcast","actor":"a7","zone":"z","new_tick":2,"roster":[],'
    '"digest":"d"}',
    '{"tick":4,"kind":"Election","actor":"a7","zone":null,"leader":"a7","since_tick":0,'
    '"reason":"bootstrap"}',
    '{"tick":4,"kind":"Assign","actor":"a7","job":"j0","agent":"a7","cost":1,"zone":[0]}',
    # The ones below used to verify with no error, or with a violation that
    # printed the wrong value.
    '{"tick":4,"kind":"TickAck","actor":"a7","zone":[0,0],"committed_tick":2.0,"digest":"d"}',
    '{"tick":4,"kind":"TickAck","actor":"a7","zone":[0,0],"committed_tick":true,"digest":"d"}',
    '{"tick":4,"kind":"TickAck","actor":"a7","zone":[0,0],"committed_tick":2,"digest":[1]}',
    '{"tick":4,"kind":"TickBroadcast","actor":"a7","zone":[0,0],"new_tick":2,"roster":[],'
    '"digest":null}',
    '{"tick":4,"kind":"Resync","actor":"a7","zone":[0,0],"resync_tick":"x"}',
    '{"tick":4,"kind":"MarkDead","actor":"a7","zone":[0,0],"agent":3,"released_job":null}',
    '{"tick":4,"kind":"MarkDead","actor":"a7","zone":[0,0],"agent":"a3","released_job":0}',
    '{"tick":4,"kind":"Complete","actor":"a7","job":"j0","agent":null,"zone":[0,0]}',
    '{"tick":4,"kind":"Complete","actor":"a7","job":["j0"],"agent":"a7","zone":[0,0]}',
    '{"tick":4,"kind":"Election","actor":"a7","zone":[0,0],"leader":5,"since_tick":0,'
    '"reason":"bootstrap"}',
    '{"tick":4,"kind":"Assign","actor":"a7","job":"j0","agent":{},"cost":1,"zone":[0,0]}',
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


@pytest.mark.parametrize("value", ["null", "1.0", "false"])
def test_first_commit_of_the_wrong_type_is_a_format_error(value):
    # With no commit before it, no comparison saw the value.
    text = ('{"tick":1,"kind":"TickAck","actor":"a7","zone":[0,0],'
            f'"committed_tick":{value},"digest":"d"}}\n')
    with pytest.raises(TraceFormatError, match="line 1: TickAck event at tick 1 by 'a7'"):
        verify_trace(text)


def test_tick_lower_than_the_one_before_is_a_format_error():
    text = ('{"tick":2,"kind":"Move","actor":"a","src":[0,0],"dst":[1,0]}\n'
            '\n'
            '{"tick":3,"kind":"Move","actor":"a","src":[1,0],"dst":[2,0]}\n'
            '{"tick":1,"kind":"Move","actor":"b","src":[5,0],"dst":[4,0]}\n')
    with pytest.raises(TraceFormatError, match="line 4: tick 1 is lower than tick 3") as err:
        verify_trace(text)
    assert err.value.line_no == 4
    assert len(parse_trace(text)) == 3  # the parser alone does not order ticks


def test_deeply_nested_json_is_a_format_error():
    line = "[" * 100_000 + "]" * 100_000
    for text in (line + "\n", "  " + line + "\n"):
        with pytest.raises(TraceFormatError, match="line 1: invalid JSON"):
            parse_trace(text)


def test_actors_of_mixed_types_are_a_format_error():
    # Sorting the actors' positions compared 5 with "b" and raised TypeError.
    text = ('{"tick":1,"kind":"Move","actor":"b","src":[0,0],"dst":[1,0]}\n'
            '{"tick":1,"kind":"Move","actor":5,"src":[2,0],"dst":[3,0]}\n')
    with pytest.raises(TraceFormatError, match="line 2: actor must be a string"):
        verify_trace(text)


def test_every_emitted_kind_parses_back():
    w = TraceWriter()
    for kind, fields in EVENT_FIELDS.items():
        w.emit(0, kind, "a", **{name: SAMPLE[FIELD_TYPES[name]] for name in fields})
    events = parse_trace(w.dump())
    assert [e["kind"] for e in events] == list(EVENT_FIELDS)
    assert events == [json.loads(json.dumps(as_event(row))) for row in w.rows]
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


def move(tick, actor, src, dst):
    return (tick, "Move", actor, {"src": src, "dst": dst})


def publish(tick, actor, position):
    return (tick, "StatePublish", actor, {"zone": [0, 0], "position": position,
                                           "intent": position, "job": None,
                                           "agent_tick": tick})


def ack(tick, actor, zone, committed, digest):
    return (tick, "TickAck", actor, {"zone": zone, "committed_tick": committed,
                                     "digest": digest})


# Violation lists recorded from the verifier that sorted every tick's
# positions and compared every pair of moves; the single-pass verifier must
# give the same messages in the same order.
PINNED = {
    "three_agents_on_one_cell": (
        writer_with(publish(0, "c", [2, 1]), publish(0, "a", [0, 1]), publish(0, "b", [1, 0]),
                    publish(0, "d", [5, 5]), move(1, "c", [2, 1], [1, 1]),
                    move(1, "a", [0, 1], [1, 1]), move(1, "b", [1, 0], [1, 1])),
        ["tick 1: vertex violation at [1, 1] between a and b",
         "tick 1: vertex violation at [1, 1] between b and c"]),
    "two_swaps": (
        writer_with(move(1, "d", [4, 0], [3, 0]), move(1, "a", [0, 0], [1, 0]),
                    move(1, "c", [3, 0], [4, 0]), move(1, "b", [1, 0], [0, 0])),
        ["tick 1: edge swap between a and b across [0, 0]-[1, 0]",
         "tick 1: edge swap between c and d across [3, 0]-[4, 0]"]),
    "duplicated_move": (
        writer_with(move(1, "b", [1, 0], [0, 0]), move(1, "a", [0, 0], [1, 0]),
                    move(1, "a", [0, 0], [1, 0]), move(1, "c", [5, 0], [1, 0])),
        ["tick 1: vertex violation at [1, 0] between a and c",
         "tick 1: edge swap between a and b across [0, 0]-[1, 0]"]),
    "snapshot_disagreement": (
        writer_with((1, "TickBroadcast", "lead", {"zone": [0, 0], "new_tick": 1,
                                                  "roster": ["a", "b"], "digest": "aaaa"}),
                    ack(1, "b", [0, 0], 1, "bbbb"), ack(1, "a", [0, 0], 1, "aaaa"),
                    ack(1, "c", [0, 1], 1, "cccc"), ack(2, "c", [0, 1], 1, "dddd"),
                    ack(2, "a", [0, 0], 2, "eeee"), ack(2, "b", [0, 0], 2, "ffff")),
        ["tick 1: snapshot disagreement in zone [0, 0] at zone-tick 1",
         "tick 2: snapshot disagreement in zone [0, 1] at zone-tick 1",
         "tick 2: c committed zone-tick 1 after 1",
         "tick 2: snapshot disagreement in zone [0, 0] at zone-tick 2"]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_verifier_messages_are_pinned(name):
    writer, expected = PINNED[name]
    assert verify_trace(writer.dump()) == expected


def test_compact_form_matches_json_dumps():
    w = writer_with((0, "JobSpawn", "controller",
                     {"job": "j\u2028\u00e9", "location": [2, 2], "priority": 1.5,
                      "zone": [0, 0], "rejected": False}),
                    (1, "Move", "a", {"src": [0, 0], "dst": [1, 0]}))
    lines = [json.dumps(as_event(row), separators=(",", ":")) for row in w.rows]
    assert w.lines() == lines
    assert w.dump() == "".join(line + "\n" for line in lines)
    assert TraceWriter().dump() == ""


# Every line boundary str.splitlines() knows.
TERMINATORS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(("a", "bc", " ") + TERMINATORS), max_size=40).map("".join),
       st.integers(1, 6))
def test_lines_read_slice_by_slice_are_those_of_splitlines(text, size):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace, "_SLICE", size)
        assert list(trace._lines(text)) == text.splitlines()


def test_line_numbers_hold_across_slices():
    move = '{"tick":0,"kind":"Move","actor":"a","src":[0,0],"dst":[1,0]}'
    long_move = move[:-1] + ',"pad":"' + "x" * trace._SLICE + '"}'
    body = "".join(move + end for end in TERMINATORS)
    text = (body * (2 * trace._SLICE // len(body)) + long_move + "\r\n" + body
            + long_move + "\u2029")
    assert len(text) > 3 * trace._SLICE
    assert list(trace._lines(text)) == text.splitlines()
    assert len(parse_trace(text)) == len(text.splitlines())
    with pytest.raises(TraceFormatError) as err:
        parse_trace(text + "{}\n")
    assert err.value.line_no == len(text.splitlines()) + 1


# --- each kind's line format against json.dumps --------------------------------

# The type of every field in EVENT_FIELDS, and the fields that may be null.
FIELD_TYPES = {
    "zone": "cell", "position": "cell", "intent": "cell", "location": "cell", "src": "cell",
    "dst": "cell", "from_zone": "cell", "to_zone": "cell",
    "agent_tick": "int", "new_tick": "int", "committed_tick": "int", "resync_tick": "int",
    "since_tick": "int", "cost": "int", "pending": "int", "idle": "int", "total": "int",
    "tick_used": "int",
    "job": "str", "digest": "str", "agent": "str", "released_job": "str", "leader": "str",
    "reason": "str", "mandate": "str", "kind_detail": "str", "keeper": "str", "yielder": "str",
    "roster": "roster", "priority": "float", "rejected": "bool",
}
NULLABLE = {("StatePublish", "job"), ("MarkDead", "released_job"), ("JobSpawn", "zone"),
            ("Bid", "cost")}
SAMPLE = {"cell": (1, 2), "int": 3, "str": 'a"\\0', "roster": ("a", "b"), "float": 1.5,
          "bool": True}

_ints = st.integers() | st.sampled_from([0, -1, 2**63, -(2**64) - 1, 10**300])
_text = (st.text(st.characters(exclude_categories=())) | st.text()
         | st.sampled_from(["", "\u2028", "\u2029", "\x00\x1f\x7f\"\\", "\ud800", "\udfff\U0001f600",
                            "\u00e9\u4e2d", "a\nb\r\tc"]))
TYPE_STRATEGIES = {
    "cell": st.tuples(_ints, _ints) | st.lists(_ints, min_size=2, max_size=2),
    "int": _ints,
    "str": _text,
    "roster": st.lists(_text, max_size=4) | st.lists(_text, max_size=4).map(tuple),
    "float": (st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from([-0.0, 0.0, 5e-324, 1e300, -1e300, 1.5, 0.1])),
    "bool": st.booleans(),
}


@pytest.mark.parametrize("kind", sorted(EVENT_FIELDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_each_kind_is_written_as_json_dumps_writes_it(kind, data):
    tick, actor = data.draw(_ints), data.draw(_text)
    payload = {}
    for name in EVENT_FIELDS[kind]:
        values = TYPE_STRATEGIES[FIELD_TYPES[name]]
        if (kind, name) in NULLABLE:
            values = st.none() | values
        payload[name] = data.draw(values, label=name)
    w = TraceWriter()
    w.emit(tick, kind, actor, **payload)
    expected = json.dumps({"tick": tick, "kind": kind, "actor": actor, **payload},
                          separators=(",", ":"))
    assert w.dump() == expected + "\n"


# --- the trace boundary under generated input --------------------------------

_VALID_EVENTS = [
    {"tick": 0, "kind": "Move", "actor": "a", "src": [0, 0], "dst": [1, 0]},
    {"tick": 1, "kind": "Bid", "actor": "b\u00e9", "job": "j\"0", "cost": -1.5e300,
     "zone": [0, 1]},
    {"tick": 2, "kind": "Resync", "actor": "a", "zone": [0, 0], "resync_tick": 3,
     "extra": {"nested": [True, None, {}]}},
    {"tick": 3, "kind": "Mandate", "actor": "super", "mandate": "m0", "agent": "a",
     "from_zone": [0, 0], "to_zone": [0, 1]},
]
VALID_LINES = ([json.dumps(e, separators=(",", ":")) for e in _VALID_EVENTS]
               + [json.dumps(e) for e in _VALID_EVENTS]  # with spaces after separators
               # A raw U+2028 inside a string: splitlines() breaks the line there.
               + [json.dumps(_VALID_EVENTS[1] | {"job": "x\u2028y"}, ensure_ascii=False),
                  '{"tick":4,"kind":"Bid","actor":"a","job":"j","cost":Infinity,"zone":[0,0]}'])
NON_OBJECTS = ["[1,2]", "3", '"text"', "null", "true", "[]", "-0.5e3"]

_padding = st.sampled_from(["", " ", "\t", "  "])
_trace_lines = st.one_of(
    st.sampled_from(VALID_LINES),
    st.tuples(_padding, st.sampled_from(VALID_LINES), _padding).map("".join),
    st.sampled_from(["", " ", "\t \t"]),
    st.sampled_from(VALID_LINES).flatmap(
        lambda line: st.integers(1, len(line) - 1).map(lambda k: line[:k])),
    st.sampled_from(VALID_LINES).map(lambda line: line + line),
    st.sampled_from(NON_OBJECTS),
)
_trace_texts = st.lists(st.tuples(_trace_lines, st.sampled_from(["\n", "\r\n", "\r"])),
                        max_size=8).map(lambda pairs: "".join(a + b for a, b in pairs))


def _per_line_json(text):
    """What parsing each line with json.loads gives: the events, or the line
    number and message of the first line that is not a JSON object."""
    events = []
    for idx, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            return idx, f"line {idx}: invalid JSON: {exc}"
        if not isinstance(value, dict):
            return idx, f"line {idx}: event must be an object with tick and kind"
        events.append(value)
    return events


@settings(max_examples=300, deadline=None)
@given(_trace_texts)
def test_parse_trace_matches_per_line_json_loads(text):
    expected = _per_line_json(text)
    if isinstance(expected, list):
        assert parse_trace(text) == expected
    else:
        with pytest.raises(TraceFormatError) as err:
            parse_trace(text)
        assert (err.value.line_no, str(err.value)) == expected


def test_emitted_events_are_untracked_after_a_full_collection():
    """Event rows hold only exact tuples and atoms, so full collections
    untrack them and later collections need not walk the trace. A collection
    looks at each tuple once, in the order the collector lists them, and a
    row seen before a cell or roster it holds stays tracked until the next
    one; rows hold tuples of atoms only, so two full collections suffice."""
    scenario = random_scenario(8, max_agents=12, max_jobs=8, drop_prob=0.1, delay=1,
                               max_ticks=120)
    scenario["faults"] = [{"tick": 3, "kind": "kill", "agent": "a00"},
                          {"tick": 10, "kind": "revive", "agent": "a00"}]
    _, writer = run_scenario(scenario_from_dict(scenario))
    assert {row[0] for row in writer.rows} == set(EVENT_FIELDS)
    gc.collect()
    gc.collect()
    assert [row for row in writer.rows if gc.is_tracked(row)] == []


@functools.lru_cache(maxsize=None)
def _real_trace_lines() -> tuple[str, ...]:
    """A lossy run with a kill and a revive: 13 of the 14 event kinds."""
    scenario = random_scenario(3, max_agents=8, max_jobs=8, drop_prob=0.1, delay=1,
                               max_ticks=120)
    scenario["faults"] = [{"tick": 3, "kind": "kill", "agent": "a00"},
                          {"tick": 10, "kind": "revive", "agent": "a00"}]
    return tuple(run_scenario(scenario_from_dict(scenario))[1].lines())


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**64) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=5)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_trace_gives_violations_or_a_format_error(data):
    lines = list(_real_trace_lines())
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(["drop_key", "retype", "swap", "duplicate", "delete"]))
        i = data.draw(st.integers(0, len(lines) - 1))
        if op in ("drop_key", "retype"):
            event = json.loads(lines[i])
            key = data.draw(st.sampled_from(sorted(event)))
            if op == "drop_key":
                del event[key]
            else:
                event[key] = data.draw(_json_values)
            lines[i] = json.dumps(event)
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif len(lines) > 1:
            del lines[i]
    try:
        violations = verify_trace("".join(line + "\n" for line in lines))
    except TraceFormatError:
        return
    assert isinstance(violations, list)
    assert all(isinstance(v, str) for v in violations)
