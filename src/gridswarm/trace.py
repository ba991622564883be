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

_q = json.encoder.encode_basestring_ascii


def _qn(value: Optional[str]) -> str:
    return "null" if value is None else _q(value)


# Each kind's line from its row (kind, tick, actor, *values): the compact JSON
# of {"tick", "kind", "actor", **fields} as json.dumps writes it. Cells are
# two ints, strings go through json's ASCII escaping, and a field that may be
# null is written by _qn or a conditional. The priority is a float, written
# by its repr as json does.
_LINES: dict[str, Callable[[tuple], str]] = {
    "StatePublish": lambda r: (
        '{"tick":%d,"kind":"StatePublish","actor":%s,"zone":[%d,%d],"position":[%d,%d],'
        '"intent":[%d,%d],"job":%s,"agent_tick":%d}\n'
        % (r[1], _q(r[2]), *r[3], *r[4], *r[5], _qn(r[6]), r[7])),
    "TickBroadcast": lambda r: (
        '{"tick":%d,"kind":"TickBroadcast","actor":%s,"zone":[%d,%d],"new_tick":%d,'
        '"roster":[%s],"digest":%s}\n'
        % (r[1], _q(r[2]), *r[3], r[4], ",".join(map(_q, r[5])), _q(r[6]))),
    "TickAck": lambda r: (
        '{"tick":%d,"kind":"TickAck","actor":%s,"zone":[%d,%d],"committed_tick":%d,'
        '"digest":%s}\n'
        % (r[1], _q(r[2]), *r[3], r[4], _q(r[5]))),
    "MarkDead": lambda r: (
        '{"tick":%d,"kind":"MarkDead","actor":%s,"zone":[%d,%d],"agent":%s,'
        '"released_job":%s}\n'
        % (r[1], _q(r[2]), *r[3], _q(r[4]), _qn(r[5]))),
    "Resync": lambda r: (
        '{"tick":%d,"kind":"Resync","actor":%s,"zone":[%d,%d],"resync_tick":%d}\n'
        % (r[1], _q(r[2]), *r[3], r[4])),
    "Election": lambda r: (
        '{"tick":%d,"kind":"Election","actor":%s,"zone":[%d,%d],"leader":%s,'
        '"since_tick":%d,"reason":%s}\n'
        % (r[1], _q(r[2]), *r[3], _q(r[4]), r[5], _q(r[6]))),
    "JobSpawn": lambda r: (
        '{"tick":%d,"kind":"JobSpawn","actor":%s,"job":%s,"location":[%d,%d],"priority":%r,'
        '"zone":%s,"rejected":%s}\n'
        % (r[1], _q(r[2]), _q(r[3]), *r[4], r[5],
           "null" if r[6] is None else "[%d,%d]" % tuple(r[6]),
           "true" if r[7] else "false")),
    "Bid": lambda r: (
        '{"tick":%d,"kind":"Bid","actor":%s,"job":%s,"cost":%s,"zone":[%d,%d]}\n'
        % (r[1], _q(r[2]), _q(r[3]), "null" if r[4] is None else "%d" % r[4], *r[5])),
    "Assign": lambda r: (
        '{"tick":%d,"kind":"Assign","actor":%s,"job":%s,"agent":%s,"cost":%d,'
        '"zone":[%d,%d]}\n'
        % (r[1], _q(r[2]), _q(r[3]), _q(r[4]), r[5], *r[6])),
    "Move": lambda r: (
        '{"tick":%d,"kind":"Move","actor":%s,"src":[%d,%d],"dst":[%d,%d]}\n'
        % (r[1], _q(r[2]), *r[3], *r[4])),
    "Complete": lambda r: (
        '{"tick":%d,"kind":"Complete","actor":%s,"job":%s,"agent":%s,"zone":[%d,%d]}\n'
        % (r[1], _q(r[2]), _q(r[3]), _q(r[4]), *r[5])),
    "LoadReport": lambda r: (
        '{"tick":%d,"kind":"LoadReport","actor":%s,"zone":[%d,%d],"pending":%d,"idle":%d,'
        '"total":%d}\n'
        % (r[1], _q(r[2]), *r[3], r[4], r[5], r[6])),
    "Mandate": lambda r: (
        '{"tick":%d,"kind":"Mandate","actor":%s,"mandate":%s,"agent":%s,"from_zone":[%d,%d],'
        '"to_zone":[%d,%d]}\n'
        % (r[1], _q(r[2]), _q(r[3]), _q(r[4]), *r[5], *r[6])),
    "ConflictResolved": lambda r: (
        '{"tick":%d,"kind":"ConflictResolved","actor":%s,"zone":[%d,%d],"kind_detail":%s,'
        '"keeper":%s,"yielder":%s,"tick_used":%d}\n'
        % (r[1], _q(r[2]), *r[3], _q(r[4]), _q(r[5]), _q(r[6]), r[7])),
}

# Every key an event of each kind must carry, checked once per parsed line.
_REQUIRED: dict[str, frozenset[str]] = {
    kind: frozenset(("tick", "kind", "actor") + fields)
    for kind, fields in EVENT_FIELDS.items()}

_scan = json.JSONDecoder().scan_once
_SLICE = 1 << 16  # characters of trace text split into lines at a time


class TraceFormatError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TraceWriter:
    """Collects events in canonical order and serializes them byte-exactly.

    Each event is kept as one row, ``(kind, tick, actor, *values)``, with the
    values in EVENT_FIELDS order, and ``dump`` writes it through its kind's
    format in ``_LINES``."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def emit(self, tick: int, kind: str, actor: str, **payload: Any) -> None:
        """Append one event; `payload` must hold exactly the kind's fields,
        in the order of EVENT_FIELDS.

        The values are not checked, so they must have the schema's types (see
        ``_LINES``): ints, cells of two ints, strings, a float priority, a
        bool ``rejected``, and None only where the schema allows it. ``%d``
        writes a bool as 1 or 0 and truncates a float, so a value of another
        type gives a line that differs from its JSON form."""
        fields = EVENT_FIELDS.get(kind)
        if fields is None:
            raise ValueError(f"unknown event kind {kind!r}")
        if tuple(payload) != fields:
            raise ValueError(f"{kind}: payload fields {list(payload)} are not {list(fields)}")
        self.rows.append((kind, tick, actor, *payload.values()))

    def lines(self) -> list[str]:
        return self.dump().splitlines()

    def dump(self) -> str:
        lines = _LINES
        return "".join([lines[row[0]](row) for row in self.rows])

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


def _ids(event: dict) -> tuple[str, str]:
    """The job and agent of an Assign or Complete; TypeError unless strings."""
    job, agent = event["job"], event["agent"]
    if type(job) is not str or type(agent) is not str:
        raise TypeError(f"a job and an agent must be strings, got {job!r} and {agent!r}")
    return job, agent


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
    ticks must not decrease. A value of the wrong type in a field the checks
    read is a TraceFormatError: cells are two integers, zone-ticks integers
    (not bools), digests strings, and the ids the checks key on strings.
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
                digest = e["digest"]
                if type(t) is not int or type(digest) is not str:
                    raise TypeError(f"a zone-tick must be an integer and a digest a string, "
                                    f"got {t!r} and {digest!r}")
                key = (_cell(e["zone"]), t)
                seen = snapshots.get(key)
                if seen is None:
                    snapshots[key] = digest
                elif seen != digest:
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
                t = e["resync_tick"]
                if type(t) is not int:
                    raise TypeError(f"a zone-tick must be an integer, got {t!r}")
                resynced_since[actor] = True
                committed[actor] = t
            elif kind == "MarkDead":
                agent, released = e["agent"], e["released_job"]
                if type(agent) is not str or not (released is None or type(released) is str):
                    raise TypeError(f"an agent must be a string and a released job a string "
                                    f"or null, got {agent!r} and {released!r}")
                if released is not None:
                    job_assignee[released] = None
                agent_job[agent] = None
                resynced_since[agent] = True  # rejoin may jump
            elif kind == "Election":
                zone = _cell(e["zone"])
                new_leader = e["leader"]
                if type(new_leader) is not str:
                    raise TypeError(f"a leader must be a string, got {new_leader!r}")
                for other_zone, lead in list(leaders.items()):
                    if lead == new_leader and other_zone != zone:
                        del leaders[other_zone]
                leaders[zone] = new_leader
            elif kind == "Assign":
                job, agent = _ids(e)
                if leaders.get(_cell(e["zone"])) != actor:
                    violations.append(f"tick {tick}: assignment of {job} by non-leader {actor}")
                if job_assignee.get(job) is not None:
                    violations.append(f"tick {tick}: job {job} double-assigned")
                if agent_job.get(agent) is not None:
                    violations.append(f"tick {tick}: agent {agent} holds two assignments")
                job_assignee[job] = agent
                agent_job[agent] = job
            elif kind == "Complete":
                job, agent = _ids(e)
                job_assignee[job] = None
                agent_job[agent] = None
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
