"""Canonical trace emission, digesting, and invariant verification.

A trace is line-delimited JSON, one event per line, fields in a fixed order
per kind, ticks in non-decreasing order. The digest is SHA-256 over the
exact byte stream, so determinism checks reduce to digest equality.

One table, ``_SCHEMA``, lists each kind's fields with their shapes. At
import it gives ``EVENT_FIELDS``, each kind's line writer (``_LINES``), and
each kind's full-line pattern with its verifier row builder (``_PATTERNS``),
all three compiled from generated source once. ``TraceWriter.emit(tick,
kind, actor, *values)`` takes the kind's fields by position. ``verify_trace``
reads only the lines ``dump`` writes: a trace in any other form has another
digest, so it cannot be the proof of a run, and its first such line is a
``TraceFormatError``. ``parse_trace`` reads any line that is a JSON event.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Callable, Iterator, Optional

# Each kind's fields, in the order `TraceWriter.emit` takes them, as
# "name:shape". A shape is cell (two ints), int, str, roster (a list of
# strs), float or bool; "?" after it lets the value be None (written null),
# and "*" marks a field verify_trace reads. Adding a field is one edit here.
_SCHEMA: dict[str, str] = {
    "StatePublish": "zone:cell position:cell* intent:cell job:str? agent_tick:int",
    "TickBroadcast": "zone:cell* new_tick:int* roster:roster digest:str*",
    "TickAck": "zone:cell* committed_tick:int* digest:str*",
    "MarkDead": "zone:cell agent:str* released_job:str?*",
    "Resync": "zone:cell resync_tick:int*",
    "Election": "zone:cell* leader:str* since_tick:int reason:str",
    "JobSpawn": "job:str location:cell priority:float zone:cell? rejected:bool",
    "Bid": "job:str cost:int? zone:cell",
    "Assign": "job:str* agent:str* cost:int zone:cell*",
    "Move": "src:cell* dst:cell*",
    "Complete": "job:str* agent:str* zone:cell",
    "LoadReport": "zone:cell pending:int idle:int total:int",
    "Mandate": "mandate:str* agent:str from_zone:cell to_zone:cell",
    "ConflictResolved": "zone:cell kind_detail:str keeper:str yielder:str tick_used:int",
}
# kind -> ((name, shape, may be null, read by verify_trace), ...)
_FIELDS = {kind: tuple((name, shape.rstrip("?*"), "?" in shape, "*" in shape)
                       for name, _, shape in (field.partition(":") for field in spec.split()))
           for kind, spec in _SCHEMA.items()}
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    kind: tuple(f[0] for f in fields) for kind, fields in _FIELDS.items()}
# Every key an event of each kind must carry, checked once per parsed line.
_REQUIRED: dict[str, frozenset[str]] = {
    kind: frozenset(("tick", "kind", "actor") + fields) for kind, fields in EVENT_FIELDS.items()}

# The values as dump writes them: integers by %d, floats by their repr, and
# strings as json.encoder.encode_basestring_ascii writes them, printable
# ASCII other than " and \ as itself and every other code unit escaped, by
# its short form where JSON has one and else by \u and four lowercase hex
# digits. An integer of more than 18 digits is not canonical: no run can
# write one, since ticks are bounded by max_ticks and cells by the map.
_INT = r"-?(?:[1-9]\d{0,17}|0)"
_PLAIN = r"[ !#-\[\]-~]*"
_TEXT = (_PLAIN + r'(?:\\(?:["\\bfnrt]|u(?:00(?:0[0-7bef]|1[0-9a-f]|7f|[89a-f][0-9a-f])'
         r"|0[1-9a-f][0-9a-f]{2}|[1-9a-f][0-9a-f]{3}))" + _PLAIN + ")*")
# shape: (its pattern, its %-format, the format's arguments for the value v,
# and for a field the verifier reads, the value from its captured groups g).
_SHAPES = {
    "cell": (rf"\[({_INT}),({_INT})\]", "[%d,%d]", "*{v}", "(int({g}0), int({g}1))"),
    "int": (f"({_INT})", "%d", "{v}", "int({g}0)"),
    "str": (f'"({_TEXT})"', "%s", "_q({v})", '({g}0 if "\\\\" not in {g}0 else _str({g}0))'),
    "roster": (rf'\[(?:"{_TEXT}"(?:,"{_TEXT}")*)?\]', "[%s]", '",".join(map(_q, {v}))', None),
    "float": (rf"{_INT}(?:\.\d+(?:e[-+]\d+)?|e[-+]\d+)", "%r", "{v}", None),
    "bool": ("(?:true|false)", "%s", '"true" if {v} else "false"', None),
}
_q = json.encoder.encode_basestring_ascii
_scanstring = json.decoder.scanstring


def _str(text: str) -> str:
    """A captured string's text with its escapes decoded, as json decodes them."""
    return _scanstring(text + '"', 0)[0]


def _compile(kind: str) -> tuple[Callable[[tuple], str], tuple[Callable, Callable[..., tuple]]]:
    """`kind`'s line writer, and the fullmatch of its line pattern with the
    builder of a verifier row, ``(tick, kind, actor, *read values)``, from
    the pattern's groups. Both are built from generated source, as
    collections.namedtuple builds its methods, so that neither loops over
    the fields per event."""
    fmt, args = ['{"tick":%d,"kind":"' + kind + '","actor":%s'], ["r[1]", "_q(r[2])"]
    tick, actor = _SHAPES["int"], _SHAPES["str"]
    pattern = [rf'\{{"tick":{tick[0]},"kind":"{kind}","actor":{actor[0]}']
    params, row = ["t0", "a0"], [tick[3].format(g="t"), repr(kind), actor[3].format(g="a")]
    for i, (name, shape, nullable, read) in enumerate(_FIELDS[kind], start=3):
        regex, form, arg, value = _SHAPES[shape]
        arg = arg.format(v=f"r[{i}]")
        if nullable:
            written = arg if form == "%s" else f"{form!r} % ({arg},)"
            arg, form = f'"null" if r[{i}] is None else {written}', "%s"
        fmt.append(f',"{name}":{form}')
        args.append(arg)
        if read:
            g = f"g{i}_"
            params += [f"{g}{n}" for n in range(re.compile(regex).groups)]
            value = value.format(g=g)
            row.append(f"(None if {g}0 is None else {value})" if nullable else value)
        else:  # its groups become non-capturing
            regex = re.sub(r"\((?!\?)", "(?:", regex)
        pattern.append(f',"{name}":' + (f"(?:{regex}|null)" if nullable else regex))
    namespace = {"_q": _q, "_str": _str}
    text = "".join(fmt) + "}\n"
    line = eval(f"lambda r: {text!r} % ({', '.join(args)})", namespace)
    build = eval(f"lambda {', '.join(params)}: ({', '.join(row)})", namespace)
    return line, (re.compile("".join(pattern) + "}").fullmatch, build)


_COMPILED = {kind: _compile(kind) for kind in _SCHEMA}
# Each kind's line from its row (kind, tick, actor, *values): the compact JSON
# of {"tick", "kind", "actor", **fields} as json.dumps writes it.
_LINES: dict[str, Callable[[tuple], str]] = {kind: c[0] for kind, c in _COMPILED.items()}
# Kind -> (the fullmatch of its line pattern, its row builder).
_PATTERNS: dict[str, tuple[Callable, Callable[..., tuple]]] = {
    kind: c[1] for kind, c in _COMPILED.items()}

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
    line writer in ``_LINES``, which ``_SCHEMA`` generates."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def emit(self, tick: int, kind: str, actor: str, *values: Any) -> None:
        """Append one event; `values` are the kind's fields, in the order of
        EVENT_FIELDS. An unknown kind or a wrong number of values is a
        ValueError.

        The values are not checked, so they must have the shapes ``_SCHEMA``
        gives them: ints, cells of two ints, strings, a float priority, a
        bool ``rejected``, and None only where a field may be null. ``%d``
        writes a bool as 1 or 0 and truncates a float, so a value of another
        type gives a line that differs from its JSON form, and that
        ``verify_trace`` may refuse."""
        fields = EVENT_FIELDS.get(kind)
        if fields is None:
            raise ValueError(f"unknown event kind {kind!r}")
        if len(values) != len(fields):
            raise ValueError(f"{kind} takes {len(fields)} values {list(fields)}, "
                             f"got {len(values)}")
        self.rows.append((kind, tick, actor) + values)

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
    r"""The lines of ``text``, each ended by "\n" alone (the last may lack
    it), split one slice at a time so that only one slice's lines are held at
    once. A slice ends just after a "\n" or at the end of the text; a line
    longer than a slice extends the slice to its end."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + _SLICE - 1) + 1 or size
        yield from text[start:end].removesuffix("\n").split("\n")
        start = end


def _parse(idx: int, line: str) -> Optional[dict]:
    """The event on line `idx`, or None for a blank line, checking that the
    line is a JSON object with an integer tick, a known kind, all of that
    kind's fields and a string actor. A line goes to ``json.loads`` whenever
    the scanner fails or stops short of its end, so exactly what per-line
    ``json.loads`` accepts is accepted, with its messages."""
    try:
        event, end = _scan(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(line):
        if not line.strip():
            return None
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
    return event


def _rows(text: str) -> Iterator[tuple[int, tuple]]:
    """Yield (line number, verifier row) for each line. The kind is read from
    the text after the first ``,"kind":"``, and the line must be the one
    ``dump`` writes, which its kind's pattern matches whole; the row comes
    from the captured text. Any other line, blank ones too, is a
    TraceFormatError, with ``_parse``'s message where json refuses it."""
    patterns = _PATTERNS
    for idx, line in enumerate(_lines(text), start=1):
        start = line.find(',"kind":"') + 9
        entry = patterns.get(line[start:line.find('"', start)])
        if entry is not None:
            match = entry[0](line)
            if match is not None:
                yield idx, entry[1](*match.groups())
                continue
        event = _parse(idx, line)
        raise TraceFormatError(idx, "blank line, which dump does not write" if event is None else
                               f"{event['kind']} event at tick {event['tick']} by "
                               f"{event['actor']!r} is not in the form dump writes")


def parse_trace(text: str) -> list[dict]:
    """The events of `text` in line order, read by ``_parse``; blank lines are skipped."""
    events = []
    for idx, line in enumerate(_lines(text), start=1):
        event = _parse(idx, line)
        if event is not None:
            events.append(event)
    return events


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
    uniqueness, that assignments and mandates come from the right actors, and
    that a job is completed by the agent that holds it.
    A text is read one line at a time and checked one tick at a time, so its
    ticks must not decrease. Each line, ended by "\n" alone, must be as
    ``dump`` writes it, which its kind's pattern in ``_PATTERNS`` checks, so
    every value the checks read has its schema's type; any other line (blank,
    ended by "\r\n", spaces, extra or duplicate keys, escapes that dump does
    not write, integers past 18 digits, values of another type, text that is
    not JSON) is a TraceFormatError naming its line.
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
    for line_no, row in _rows(trace):
        if row[0] != tick:
            if tick is not None:
                if row[0] < tick:
                    raise TraceFormatError(
                        line_no, f"tick {row[0]} is lower than tick {tick} before it")
                _check_safety(tick, positions, moves, violations)
                moves = set()
            tick = row[0]
        kind, actor = row[1], row[2]
        if kind == "StatePublish":
            positions[actor] = row[3]
        elif kind == "Move":
            _, _, _, src, dst = row
            positions[actor] = dst
            moves.add((actor, src, dst))
        elif kind in ("TickAck", "TickBroadcast"):
            _, _, _, zone, t, digest = row
            seen = snapshots.get((zone, t))
            if seen is None:
                snapshots[(zone, t)] = digest
            elif seen != digest:
                violations.append(
                    f"tick {tick}: snapshot disagreement in zone {list(zone)} at zone-tick {t}")
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
            committed[actor] = row[3]
        elif kind == "MarkDead":
            _, _, _, agent, released = row
            if released is not None:
                job_assignee[released] = None
            agent_job[agent] = None
            resynced_since[agent] = True  # rejoin may jump
        elif kind == "Election":
            _, _, _, zone, new_leader = row
            for other_zone, lead in list(leaders.items()):
                if lead == new_leader and other_zone != zone:
                    del leaders[other_zone]
            leaders[zone] = new_leader
        elif kind == "Assign":
            _, _, _, job, agent, zone = row
            if leaders.get(zone) != actor:
                violations.append(f"tick {tick}: assignment of {job} by non-leader {actor}")
            if job_assignee.get(job) is not None:
                violations.append(f"tick {tick}: job {job} double-assigned")
            if agent_job.get(agent) is not None:
                violations.append(f"tick {tick}: agent {agent} holds two assignments")
            job_assignee[job] = agent
            agent_job[agent] = job
        elif kind == "Complete":
            _, _, _, job, agent = row
            if job_assignee.get(job) != agent:
                violations.append(
                    f"tick {tick}: completion of {job} by {agent}, which does not hold it")
            job_assignee[job] = None
            agent_job[agent] = None
        elif kind == "Mandate":
            if actor != "super":
                violations.append(
                    f"tick {tick}: mandate {row[3]} issued by {actor}, not the super-leader")
    if tick is not None:
        _check_safety(tick, positions, moves, violations)
    return violations
