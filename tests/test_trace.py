import functools
import gc
import json
import math

import pytest
import test_golden
from hypothesis import given, settings, strategies as st

from gridswarm import trace
from gridswarm.cli import main
from gridswarm.engine import run_scenario
from gridswarm.scenario import random_scenario, scenario_from_dict
from gridswarm.trace import (EVENT_FIELDS, TraceFormatError, TraceWriter, parse_trace,
                             trace_digest, verify_trace)


def as_event(row):
    """The event of a TraceWriter row as the dict its line encodes."""
    kind, tick, actor, *values = row
    return {"tick": tick, "kind": kind, "actor": actor, **dict(zip(EVENT_FIELDS[kind], values))}


def writer_with(*events):
    """A writer holding `events`, each (tick, kind, actor, payload), with the
    payload's values passed to emit in EVENT_FIELDS order."""
    w = TraceWriter()
    for tick, kind, actor, payload in events:
        w.emit(tick, kind, actor, *(payload[name] for name in EVENT_FIELDS[kind]))
    return w


def test_emit_rejects_unknown_kind_and_fields():
    w = TraceWriter()
    with pytest.raises(ValueError):
        w.emit(0, "Nonsense", "a")
    with pytest.raises(ValueError):
        w.emit(0, "Move", "a", [0, 0], [1, 0], True)


def test_field_order_is_fixed():
    w = TraceWriter()
    w.emit(3, "Move", "a", (0, 0), (1, 0))
    assert w.lines() == ['{"tick":3,"kind":"Move","actor":"a","src":[0,0],"dst":[1,0]}']
    assert w.rows == [("Move", 3, "a", (0, 0), (1, 0))]
    # Too few or too many values, or an unknown kind, is refused rather than
    # written as a line the parser rejects.
    for values in ([(0, 0)], [(0, 0), (1, 0), (2, 0)], []):
        with pytest.raises(ValueError, match=r"Move takes 2 values \['src', 'dst'\], got "
                           f"{len(values)}"):
            w.emit(4, "Move", "a", *values)
    for kind in ("move", "Nonsense", ""):
        with pytest.raises(ValueError, match=f"unknown event kind {kind!r}"):
            w.emit(4, kind, "a", (0, 0), (1, 0))
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
# No line dump writes holds one, so each is refused as not in dump's form.
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
    with pytest.raises(TraceFormatError, match=f"line 2: {kind} event at tick 4 by 'a7' "
                       "is not in the form dump writes") as err:
        verify_trace(text)
    assert err.value.line_no == 2


@pytest.mark.parametrize("value", ["null", "1.0", "false"])
def test_first_commit_of_the_wrong_type_is_a_format_error(value):
    # With no commit before it, no comparison saw the value.
    text = ('{"tick":1,"kind":"TickAck","actor":"a7","zone":[0,0],'
            f'"committed_tick":{value},"digest":"d"}}\n')
    with pytest.raises(TraceFormatError, match="line 1: TickAck event at tick 1 by 'a7'"):
        verify_trace(text)


def test_tick_lower_than_the_one_before_is_a_format_error():
    text = ('{"tick":2,"kind":"Move","actor":"a","src":[0,0],"dst":[1,0]}\n'
            '{"tick":3,"kind":"Move","actor":"a","src":[1,0],"dst":[2,0]}\n'
            '{"tick":1,"kind":"Move","actor":"b","src":[5,0],"dst":[4,0]}\n')
    with pytest.raises(TraceFormatError, match="line 3: tick 1 is lower than tick 3") as err:
        verify_trace(text)
    assert err.value.line_no == 3
    assert len(parse_trace(text)) == 3  # the parser alone does not order ticks


MOVE = '{"tick":0,"kind":"Move","actor":"a","src":[0,0],"dst":[1,0]}'


@pytest.mark.parametrize("text,line_no", [
    (MOVE + "\n\n" + MOVE + "\n", 2),
    (MOVE + "\n \t\n", 2),
    (MOVE + "\n" + MOVE + "\r\n", 2),
    (MOVE + "\r\n" + MOVE + "\r\n", 1),
    (MOVE + "\r" + MOVE + "\n", 1),
    (MOVE + "\n\r\n", 2),
], ids=["blank", "whitespace", "crlf_last", "crlf", "cr", "crlf_blank"])
def test_line_dump_does_not_end_so_is_a_format_error(text, line_no):
    """dump ends every line with "\n" alone and writes no blank line, so a
    text with either has another digest and is refused where it stands."""
    with pytest.raises(TraceFormatError, match=f"^line {line_no}: ") as err:
        verify_trace(text)
    assert err.value.line_no == line_no


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
        w.emit(0, kind, "a", *(SAMPLE[FIELD_TYPES[name]] for name in fields))
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


def complete(tick, job, agent):
    return (tick, "Complete", "lead", {"job": job, "agent": agent, "zone": [0, 0]})


def test_verifier_flags_completion_by_an_agent_marked_dead():
    w = writer_with(
        election(0, [0, 0], "lead"),
        (1, "Assign", "lead", {"job": "j0", "agent": "a", "cost": 2, "zone": [0, 0]}),
        (2, "MarkDead", "lead", {"zone": [0, 0], "agent": "a", "released_job": "j0"}),
        complete(3, "j0", "a"),
    )
    assert verify_trace(w.dump()) == ["tick 3: completion of j0 by a, which does not hold it"]


def test_verifier_flags_a_run_completion_moved_to_another_agent():
    """The last Complete of a clean run, rewritten to name an agent that does
    not hold the job, is the run's one violation."""
    scenario = random_scenario(0)
    _, tr = run_scenario(scenario_from_dict(scenario))
    lines = tr.dump().splitlines()
    n = max(i for i, line in enumerate(lines) if '"kind":"Complete"' in line)
    event = json.loads(lines[n])
    other = next(a["id"] for a in scenario["agents"] if a["id"] != event["agent"])
    lines[n] = json.dumps({**event, "agent": other}, separators=(",", ":"))
    assert verify_trace(tr.dump()) == []
    assert verify_trace("\n".join(lines) + "\n") == [
        f"tick {event['tick']}: completion of {event['job']} by {other}, which does not hold it"]


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
    "completion_by_a_non_holder": (
        writer_with(election(0, [0, 0], "lead"),
                    (1, "Assign", "lead", {"job": "j0", "agent": "a", "cost": 2, "zone": [0, 0]}),
                    complete(2, "j0", "b"), complete(3, "j1", "a")),
        ["tick 2: completion of j0 by b, which does not hold it",
         "tick 3: completion of j1 by a, which does not hold it"]),
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


def newline_split(text):
    """The lines of `text` ended by "\n", the last one perhaps unended."""
    return text.removesuffix("\n").split("\n") if text else []


# Every line boundary str.splitlines() knows; of them, only "\n" ends a line
# of a trace.
TERMINATORS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(("a", "bc", " ") + TERMINATORS), max_size=40).map("".join),
       st.integers(1, 6))
def test_lines_read_slice_by_slice_are_split_at_newlines(text, size):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace, "_SLICE", size)
        assert list(trace._lines(text)) == newline_split(text)


def test_line_numbers_hold_across_slices():
    # Only "\n" ends a line: the terminators JSON lets stand raw in a string
    # sit inside the pad.
    long_move = MOVE[:-1] + ',"pad":"' + "x" * trace._SLICE + '\x85\u2028\u2029"}'
    body = (MOVE + "\n") * 40
    text = body * (2 * trace._SLICE // len(body)) + long_move + "\n" + body + long_move
    assert len(text) > 3 * trace._SLICE
    lines = newline_split(text)
    assert list(trace._lines(text)) == lines
    assert len(parse_trace(text)) == len(lines)
    with pytest.raises(TraceFormatError) as err:
        parse_trace(text + "\n{}\n")
    assert err.value.line_no == len(lines) + 1


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
    w.emit(tick, kind, actor, *payload.values())
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
               # A raw U+2028 inside a string, which does not end a line.
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
# "\r\n" and "\r" are refused where they stand, so they are drawn less often
# than "\n" to let most texts reach past their first lines.
_trace_texts = st.lists(st.tuples(_trace_lines, st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])),
                        max_size=8).map(lambda pairs: "".join(a + b for a, b in pairs))


def _per_line_json(text):
    """What parsing each line with json.loads gives: the events, or the line
    number and message of the first line that is not a JSON object."""
    events = []
    for idx, line in enumerate(newline_split(text), start=1):
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


def _mutated_trace(data, separators=None):
    """The real trace with one to four edits drawn from `data`; an edited
    event is written by json.dumps with `separators`."""
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
            lines[i] = json.dumps(event, separators=separators)
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif len(lines) > 1:
            del lines[i]
    return "".join(line + "\n" for line in lines)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_trace_gives_violations_or_a_format_error(data):
    try:
        violations = verify_trace(_mutated_trace(data))
    except TraceFormatError:
        return
    assert isinstance(violations, list)
    assert all(isinstance(v, str) for v in violations)


# --- the canonical lines, and only they, verify ------------------------------

# The fields verify_trace reads of each kind, in EVENT_FIELDS order; a
# verifier row is (tick, kind, actor, *these values).
READS = {
    "StatePublish": ("position",), "Move": ("src", "dst"),
    "TickAck": ("zone", "committed_tick", "digest"),
    "TickBroadcast": ("zone", "new_tick", "digest"), "Resync": ("resync_tick",),
    "MarkDead": ("agent", "released_job"), "Election": ("zone", "leader"),
    "Assign": ("job", "agent", "zone"), "Complete": ("job", "agent"), "Mandate": ("mandate",),
}
_SHORT = 10**18  # integers of at most 18 digits are below this


def _has_type(value, field_type):
    if field_type == "int":
        return type(value) is int and abs(value) < _SHORT
    if field_type == "cell":
        return type(value) is list and len(value) == 2 and all(_has_type(v, "int") for v in value)
    if field_type == "roster":
        return type(value) is list and all(type(v) is str for v in value)
    if field_type == "float":
        return type(value) is float and math.isfinite(value)
    return type(value) is {"str": str, "bool": bool}[field_type]


def _is_canonical(line):
    """Whether `line` is one dump can write: a JSON event whose keys are its
    kind's fields in order, whose values have their fields' types (integers
    of at most 18 digits), and that json.dumps writes back byte for byte."""
    try:
        event = json.loads(line)
    except ValueError:
        return False
    kind = event.get("kind") if type(event) is dict else None
    fields = EVENT_FIELDS.get(kind) if type(kind) is str else None
    return (fields is not None and list(event) == ["tick", "kind", "actor", *fields]
            and _has_type(event["tick"], "int") and type(event["actor"]) is str
            and all(_has_type(event[name], FIELD_TYPES[name])
                    or (event[name] is None and (kind, name) in NULLABLE)
                    for name in fields)
            and json.dumps(event, separators=(",", ":")) == line)


def _outcome(text):
    """What verify_trace gives for `text`: its violations, or the line number
    and message of the TraceFormatError it raises."""
    try:
        return verify_trace(text)
    except TraceFormatError as err:
        return err.line_no, str(err)


def _expected_outcome(text):
    """What verify_trace must give for `text`, split at "\n" only: the first
    line that is blank, is not canonical, or has a tick lower than the one
    before, is refused there, with parse_trace's message where parse_trace
    refuses it; a text with no such line verifies as its lines written by
    dump."""
    lines, tick = [], None
    for idx, line in enumerate(newline_split(text), start=1):
        if not line.strip():
            return idx, f"line {idx}: blank line, which dump does not write"
        if not _is_canonical(line):
            try:
                event, = parse_trace("\n" * (idx - 1) + line)
            except TraceFormatError as err:
                return idx, str(err)
            return idx, (f"line {idx}: {event['kind']} event at tick {event['tick']} "
                         f"by {event['actor']!r} is not in the form dump writes")
        new_tick = json.loads(line)["tick"]
        if tick is not None and new_tick < tick:
            return idx, f"line {idx}: tick {new_tick} is lower than tick {tick} before it"
        lines.append(line)
        tick = new_tick
    return verify_trace("".join(line + "\n" for line in lines))


@settings(max_examples=300, deadline=None)
@given(_trace_texts)
def test_generated_trace_verifies_only_its_canonical_lines(text):
    assert _outcome(text) == _expected_outcome(text)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_trace_verifies_only_its_canonical_lines(data):
    text = _mutated_trace(data, data.draw(st.sampled_from([None, (",", ":")])))
    assert _outcome(text) == _expected_outcome(text)


def test_escaped_ids_name_the_same_agents_and_jobs():
    # dump escapes the leader, the job and the agent on every line they are
    # on; the verifier keys on the decoded ids and words its messages with them.
    leader, job, agent = 'le"ad', "jé", "a\\1"
    w = writer_with(election(0, [0, 0], leader),
                    (1, "Assign", leader, {"job": job, "agent": agent, "cost": 2,
                                           "zone": [0, 0]}),
                    (2, "Complete", leader, {"job": job, "agent": agent, "zone": [0, 0]}),
                    (4, "Complete", leader, {"job": job, "agent": agent, "zone": [0, 0]}),
                    move(5, agent, [0, 0], [1, 0]), move(5, "b", [2, 0], [1, 0]))
    text = w.dump()
    assert all(escaped in text for escaped in ('"le\\"ad"', '"j\\u00e9"', '"a\\\\1"'))
    assert verify_trace(text) == [
        "tick 4: completion of jé by a\\1, which does not hold it",
        "tick 5: vertex violation at [1, 0] between a\\1 and b"]


# Lines that dump does not write: spaces, a duplicate or extra key, an
# escape of a printable character, an integer of 19 digits, NaN, a value of
# another type, and text that is not JSON. Each is refused where it stands.
NON_CANONICAL = [
    '{"tick": 4, "kind": "Move", "actor": "b", "src": [0, 0], "dst": [1, 0]}',
    '{"tick":4,"kind":"Move","actor":"b","src":[0,0],"dst":[1,0],"dst":[2,0]}',
    '{"tick":4,"kind":"Move","actor":"b","src":[0,0],"dst":[1,0],"pad":1}',
    '{"tick":4,"kind":"Move","actor":"\\u0062","src":[0,0],"dst":[1,0]}',
    '{"tick":4,"kind":"Move","actor":"b","src":[0,0],"dst":[1,1000000000000000000]}',
    '{"tick":4,"kind":"Bid","actor":"b","job":"j","cost":NaN,"zone":[0,0]}',
    '{"tick":4,"kind":"Bid","actor":"b","job":"j","cost":1.0,"zone":[0,0]}',
    '{"tick":4,"kind":"Resync","actor":"b","zone":[0,0],"resync_tick":true}',
    '{"tick":4,"kind":"MarkDead","actor":"b","zone":[0,0],"agent":"a","released_job":false}',
    '{"tick":4.0,"kind":"Move","actor":"b","src":[0,0],"dst":[1,0]}',
    '{"tick":4,"kind":"Move","actor":"b","src":[0,0],"dst":[1,01]}',
    '{"tick":4,"kind":"Move","actor":"b\x01","src":[0,0],"dst":[1,0]}',
    '{"tick":4,"kind":"Move","actor":"b","src":[0,0],"dst":[1,0]}}',
    '{"tick":4,"kind":"Move","actor":"\\u00E9","src":[0,0],"dst":[1,0]}',
    '{"tick":4,"kind":"Move","actor":"\\/","src":[0,0],"dst":[1,0]}',
    '{"tick":4,"kind":"Move","actor":"\\u000a","src":[0,0],"dst":[1,0]}',
    '{"tick":4,"kind":"Move","actor":"é","src":[0,0],"dst":[1,0]}',
    '{"tick":4,"kind":"JobSpawn","actor":"c","job":"j","location":[0,0],"priority":2,'
    '"zone":null,"rejected":false}',
]


@pytest.mark.parametrize("line", NON_CANONICAL)
def test_line_dump_does_not_write_is_a_format_error(line):
    text = ('{"tick":3,"kind":"Move","actor":"a","src":[5,0],"dst":[1,0]}\n'
            + line + "\n")
    assert not _is_canonical(line)
    with pytest.raises(TraceFormatError) as err:
        verify_trace(text)
    assert err.value.line_no == 2
    assert _outcome(text) == _expected_outcome(text)


def test_line_dump_does_not_write_is_refused_before_its_tick_is_compared():
    text = ('{"tick":3,"kind":"Move","actor":"a","src":[0,0],"dst":[1,0]}\n'
            '{"tick":1,"kind":"Move","actor":"b","src":[0,0],"dst":5}\n'
            '{"tick":1,"kind":"Move","actor":"b","src":[0,0],"dst":[1,0]}\n')
    assert _outcome(text) == (2, "line 2: Move event at tick 1 by 'b' "
                                 "is not in the form dump writes")
    # With the wrong type gone, the lowered tick on line 2 is refused.
    text = text.replace(',"dst":5', ',"dst":[1,0]')
    assert _outcome(text) == (2, "line 2: tick 1 is lower than tick 3 before it")


def _short(value):
    """`value` with each integer cut to at most 18 digits, the longest that
    a line dump writes can hold and still verify."""
    if type(value) is int:
        return abs(value) % _SHORT * (-1 if value < 0 else 1)
    if type(value) in (list, tuple):
        return type(value)(map(_short, value))
    return value


@pytest.mark.parametrize("kind", sorted(EVENT_FIELDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_each_kind_line_matches_its_pattern(kind, data):
    tick, actor = _short(data.draw(_ints)), data.draw(_text)
    values = []
    for name in EVENT_FIELDS[kind]:
        drawn = TYPE_STRATEGIES[FIELD_TYPES[name]]
        if (kind, name) in NULLABLE:
            drawn = st.none() | drawn
        values.append(_short(data.draw(drawn, label=name)))
    w = TraceWriter()
    w.emit(tick, kind, actor, *values)
    line = w.lines()[0]
    fullmatch, row_from = trace._PATTERNS[kind]
    match = fullmatch(line)
    assert match is not None, line
    # The row from the captured text is json's, with cells as tuples.
    event = json.loads(line)
    expected = [event[name] for name in ("tick", "kind", "actor", *READS.get(kind, ()))]
    assert row_from(*match.groups()) == tuple(
        tuple(v) if type(v) is list else v for v in expected)


def test_golden_traces_verify_by_their_patterns():
    runs = test_golden.corpus()
    for name in ("bench/30x50", "lossy_faults/3"):
        lines = run_scenario(scenario_from_dict(runs[name]))[1].lines()
        assert all(_is_canonical(line) for line in lines), name
        assert all(trace._PATTERNS[json.loads(line)["kind"]][0](line) for line in lines), name
        assert verify_trace("".join(line + "\n" for line in lines)) == [], name


def test_run_with_escaped_agent_ids_verifies(tmp_path, capsys):
    """Agent ids that dump escapes go through `gridswarm run` and `gridswarm
    verify` as any others do."""
    scenario = random_scenario(3)
    for agent, new_id in zip(scenario["agents"], ["é0", 'q"1', "b\\2", "t\t3"]):
        agent["id"] = new_id
    scenario_path, trace_path = tmp_path / "scenario.json", tmp_path / "trace.jsonl"
    scenario_path.write_text(json.dumps(scenario))
    code = main(["run", "--scenario", str(scenario_path), "--trace-out", str(trace_path)])
    assert code not in (1, 2), capsys.readouterr().err
    text = trace_path.read_text()
    assert all(f'"{escaped}"' in text for escaped in ("\\u00e90", 'q\\"1', "b\\\\2", "t\\t3"))
    assert main(["verify", "--trace", str(trace_path)]) == 0
