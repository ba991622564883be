"""Canonical trace emission, digesting, and invariant verification.

A trace is line-delimited JSON, one event per line, fields in a fixed order
per kind, ticks in non-decreasing order. The digest is SHA-256 over the
exact byte stream, so determinism checks reduce to digest equality.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Iterator, Optional

# Payload fields per event kind, in the order `TraceWriter.emit` takes them.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    "StatePublish": ("zone", "position", "intent", "job", "agent_tick"),
    "TickBroadcast": ("zone", "new_tick", "roster", "digest"),
    "TickAck": ("zone", "committed_tick", "digest"),
    "MarkDead": ("zone", "agent", "released_job"),
    "Resync": ("zone", "resync_tick"),
    "Election": ("zone", "leader", "since_tick", "reason"),
    "JobSpawn": ("job", "location", "priority", "zone", "rejected"),
    "Bid": ("job", "cost", "zone"),
    "Assign": ("job", "agent", "cost", "zone"),
    "Move": ("src", "dst"),
    "Complete": ("job", "agent", "zone"),
    "LoadReport": ("zone", "pending", "idle", "total"),
    "Mandate": ("mandate", "agent", "from_zone", "to_zone"),
    "ConflictResolved": ("zone", "kind_detail", "keeper", "yielder", "tick_used"),
}

# Every key an event of each kind must carry, checked once per parsed line.
_REQUIRED: dict[str, frozenset[str]] = {
    kind: frozenset(("tick", "kind", "actor") + fields)
    for kind, fields in EVENT_FIELDS.items()}


def make_compact_encoder(c_make_encoder: Any = json.encoder.c_make_encoder) -> Callable[[Any], str]:
    """An encoder byte-identical to json.dumps(value, separators=(",", ":")),
    with no check for circular references. ``JSONEncoder.encode`` builds a new
    C encoder on every call; this one is built once. The C encoder returns a
    list of chunks on Python 3.10-3.11 and a tuple on 3.12+; join takes both."""
    if c_make_encoder is None:
        return json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
    encode = c_make_encoder(None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
                            None, ":", ",", False, False, True)
    return lambda value: "".join(encode(value, 0))


# The canonical compact form of a trace line and of a snapshot digest's input.
compact_json = make_compact_encoder()
_scan = json.JSONDecoder().scan_once
_SLICE = 1 << 16  # characters of trace text split into lines at a time


class TraceFormatError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TraceWriter:
    """Collects events in canonical order and serializes them byte-exactly."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, tick: int, kind: str, actor: str, **payload: Any) -> None:
        """Append one event; `payload` must hold exactly the kind's fields,
        in the order of EVENT_FIELDS."""
        fields = EVENT_FIELDS.get(kind)
        if fields is None:
            raise ValueError(f"unknown event kind {kind!r}")
        if tuple(payload) != fields:
            raise ValueError(f"{kind}: payload fields {list(payload)} are not {list(fields)}")
        self.events.append({"tick": tick, "kind": kind, "actor": actor, **payload})

    def lines(self) -> list[str]:
        return list(map(compact_json, self.events))

    def dump(self) -> str:
        return "".join([compact_json(e) + "\n" for e in self.events])

    def digest(self) -> str:
        return trace_digest(self.dump())


def trace_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _lines(text: str) -> Iterator[str]:
    r"""The lines of ``text.splitlines()``, split one slice at a time so that
    only one slice's lines are held at once. A slice ends just after a "\n"
    (or at the end of the text), so no slice cuts a "\r\n" in two; a line
    longer than a slice extends the slice to its end."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + _SLICE - 1) + 1 or size
        yield from text[start:end].splitlines()
        start = end


def _read(text: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, event) for each non-blank line, checking that the
    line is a JSON object with an integer tick, a known kind, all of that
    kind's fields and a string actor. A line goes to ``json.loads`` whenever
    the scanner fails or stops short of its end, so exactly what per-line
    ``json.loads`` accepts is accepted, with its messages."""
    for idx, line in enumerate(_lines(text), start=1):
        try:
            event, end = _scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise TraceFormatError(idx, f"invalid JSON: {exc}") from exc
        if not isinstance(event, dict) or "kind" not in event or "tick" not in event:
            raise TraceFormatError(idx, "event must be an object with tick and kind")
        if type(event["tick"]) is not int:
            raise TraceFormatError(idx, f"tick must be an integer, got {event['tick']!r}")
        kind = event["kind"]
        required = _REQUIRED.get(kind) if isinstance(kind, str) else None
        if required is None:
            raise TraceFormatError(idx, f"unknown event kind {kind!r}")
        if not required <= event.keys():
            raise TraceFormatError(
                idx, f"{kind} event lacks fields {sorted(required - event.keys())}")
        if not isinstance(event["actor"], str):
            raise TraceFormatError(idx, f"actor must be a string, got {event['actor']!r}")
        yield idx, event


def parse_trace(text: str) -> list[dict]:
    return [event for _, event in _read(text)]


def _cell(value: Any) -> tuple[int, int]:
    """`value` as a hashable cell; TypeError unless it is two integers."""
    if type(value) is list and len(value) == 2:
        x, y = value
        if type(x) is int and type(y) is int:
            return (x, y)
    raise TypeError(f"a cell must be two integers, got {value!r}")


def _check_safety(tick: int, positions: dict[str, tuple], moves: set[tuple],
                  violations: list[str]) -> None:
    """Vertex and edge-swap violations at the end of `tick`. The sorted scans
    that word the messages run only when a cheap test finds a violation."""
    if len(set(positions.values())) != len(positions):
        occupied: dict[tuple, str] = {}
        for agent, pos in sorted(positions.items()):
            if pos in occupied:
                violations.append(
                    f"tick {tick}: vertex violation at {list(pos)} between {occupied[pos]} and {agent}")
            occupied[pos] = agent
    edges = {(src, dst) for _, src, dst in moves}
    if any((dst, src) in edges for src, dst in edges):
        for actor, src, dst in sorted(moves):
            for other, osrc, odst in moves:
                if other > actor and osrc == dst and odst == src:
                    violations.append(
                        f"tick {tick}: edge swap between {actor} and {other} across {list(src)}-{list(dst)}")


def verify_trace(trace: str) -> list[str]:
    """Scan a trace for protocol and safety violations; empty list means clean.

    Checks: pairwise-distinct positions per tick, no edge swaps, per-zone
    snapshot agreement per committed tick, per-agent tick monotonicity
    (jumps only across a resync), job/agent assignment exclusivity, leader
    uniqueness, and that assignments and mandates come from the right actors.
    A text is read one line at a time and checked one tick at a time, so its
    ticks must not decrease.
    """
    violations: list[str] = []
    positions: dict[str, tuple] = {}
    committed: dict[str, int] = {}
    resynced_since: dict[str, bool] = {}
    snapshots: dict[tuple, str] = {}  # (zone, committed_tick) -> digest
    job_assignee: dict[str, Optional[str]] = {}
    agent_job: dict[str, Optional[str]] = {}
    leaders: dict[tuple, str] = {}  # zone -> leader

    tick: Optional[int] = None
    moves: set[tuple] = set()
    for line_no, e in _read(trace):
        if e["tick"] != tick:
            if tick is not None:
                if e["tick"] < tick:
                    raise TraceFormatError(
                        line_no, f"tick {e['tick']} is lower than tick {tick} before it")
                _check_safety(tick, positions, moves, violations)
                moves = set()
            tick = e["tick"]
        try:
            kind, actor = e["kind"], e.get("actor")
            if kind == "StatePublish":
                positions[actor] = _cell(e["position"])
            elif kind == "Move":
                src, dst = _cell(e["src"]), _cell(e["dst"])
                positions[actor] = dst
                moves.add((actor, src, dst))
            elif kind in ("TickAck", "TickBroadcast"):
                t = e["committed_tick"] if kind == "TickAck" else e["new_tick"]
                key = (_cell(e["zone"]), t)
                seen = snapshots.get(key)
                if seen is None:
                    snapshots[key] = e["digest"]
                elif seen != e["digest"]:
                    violations.append(
                        f"tick {tick}: snapshot disagreement in zone {e['zone']} at zone-tick {t}")
                last = committed.get(actor)
                if last is not None:
                    if t <= last:
                        violations.append(
                            f"tick {tick}: {actor} committed zone-tick {t} after {last}")
                    elif t != last + 1 and not resynced_since.get(actor):
                        violations.append(
                            f"tick {tick}: {actor} jumped from zone-tick {last} to {t} without resync")
                committed[actor] = t
                resynced_since[actor] = False
            elif kind == "Resync":
                resynced_since[actor] = True
                committed[actor] = e["resync_tick"]
            elif kind == "MarkDead":
                released = e.get("released_job")
                if released is not None:
                    job_assignee[released] = None
                agent_job[e["agent"]] = None
                resynced_since[e["agent"]] = True  # rejoin may jump
            elif kind == "Election":
                zone = _cell(e["zone"])
                new_leader = e["leader"]
                for other_zone, lead in list(leaders.items()):
                    if lead == new_leader and other_zone != zone:
                        del leaders[other_zone]
                leaders[zone] = new_leader
            elif kind == "Assign":
                if leaders.get(_cell(e["zone"])) != actor:
                    violations.append(
                        f"tick {tick}: assignment of {e['job']} by non-leader {actor}")
                if job_assignee.get(e["job"]) is not None:
                    violations.append(f"tick {tick}: job {e['job']} double-assigned")
                if agent_job.get(e["agent"]) is not None:
                    violations.append(
                        f"tick {tick}: agent {e['agent']} holds two assignments")
                job_assignee[e["job"]] = e["agent"]
                agent_job[e["agent"]] = e["job"]
            elif kind == "Complete":
                job_assignee[e["job"]] = None
                agent_job[e["agent"]] = None
            elif kind == "Mandate":
                if actor != "super":
                    violations.append(
                        f"tick {tick}: mandate {e['mandate']} issued by {actor}, not the super-leader")
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(
                line_no, f"{e['kind']} event at tick {tick} by {e.get('actor')!r} "
                f"holds a value of the wrong type: {exc}") from exc
    if tick is not None:
        _check_safety(tick, positions, moves, violations)
    return violations
