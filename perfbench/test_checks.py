"""Each independent check accepts a real trace and rejects a corrupted one.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run as bench_run  # noqa: E402
from gridswarm import run_scenario, scenario_from_dict  # noqa: E402

SCENARIO = {
    "map": {"width": 12, "height": 12, "obstacle_rects": [[5, 5, 6, 6]]},
    "partition": {"rows": 2, "cols": 2, "overlap": 1},
    "agents": [{"id": f"a{i}", "start": [2 * i, (3 * i) % 12]} for i in range(6)],
    "jobs": [{"spawn_tick": t, "location": loc, "priority": 1.5}
             for t, loc in [(0, [11, 11]), (1, [0, 11]), (2, [11, 0]), (3, [3, 8]), (4, [9, 4])]],
    "network": {"drop_prob": 0.0, "delay_steps": 0},
    "seed": 5,
    "max_ticks": 300,
}


@pytest.fixture(scope="module")
def real():
    metrics, writer = run_scenario(scenario_from_dict(copy.deepcopy(SCENARIO)))
    assert metrics.completed
    return metrics, checks.parse_events(writer.dump())


def first(events, kind):
    return next(i for i, e in enumerate(events) if e["kind"] == kind)


def test_real_trace_passes_every_check(real):
    metrics, events = real
    assert checks.check_motion(SCENARIO, events) == []
    assert checks.check_jobs(SCENARIO, events, metrics.makespan, metrics.job_waits) == []
    assert checks.check_bids(SCENARIO, events, sample=10**6, seed=0) == []


def test_shared_cell_is_rejected(real):
    _, events = real
    events = copy.deepcopy(events)
    i = first(events, "Move")
    tick = events[i]["tick"]
    moving = {e["actor"] for e in events if e["tick"] == tick and e["kind"] == "Move"}
    # The first move of the run: every agent that stays put is still at its start.
    events[i]["dst"] = next(a["start"] for a in SCENARIO["agents"] if a["id"] not in moving)
    errors = checks.check_motion(SCENARIO, events)
    assert any("share" in e for e in errors)


def test_swap_is_rejected():
    scenario = {"map": {"width": 4, "height": 1},
                "agents": [{"id": "a", "start": [0, 0]}, {"id": "b", "start": [1, 0]}]}
    events = [{"tick": 1, "kind": "Move", "actor": "a", "src": [0, 0], "dst": [1, 0]},
              {"tick": 1, "kind": "Move", "actor": "b", "src": [1, 0], "dst": [0, 0]}]
    assert any("swap" in e for e in checks.check_motion(scenario, events))


def test_jump_is_rejected(real):
    _, events = real
    events = copy.deepcopy(events)
    i = first(events, "Move")
    src = events[i]["src"]
    events[i]["dst"] = [src[0] + 2, src[1]] if src[0] < 10 else [src[0] - 2, src[1]]
    assert any("not one free cell" in e for e in checks.check_motion(SCENARIO, events))


def test_missing_and_duplicate_completions_are_rejected(real):
    metrics, events = real
    i = first(events, "Complete")
    dropped = events[:i] + events[i + 1:]
    errors = checks.check_jobs(SCENARIO, dropped, metrics.makespan, metrics.job_waits)
    assert any("never completed" in e for e in errors)
    doubled = events[:i + 1] + [dict(events[i])] + events[i + 1:]
    errors = checks.check_jobs(SCENARIO, doubled, metrics.makespan, metrics.job_waits)
    assert any("completed twice" in e for e in errors)


def test_completion_off_the_job_cell_is_rejected(real):
    metrics, events = real
    events = copy.deepcopy(events)
    i = first(events, "Complete")
    events[i]["agent"] = next(a["id"] for a in SCENARIO["agents"]
                              if a["id"] != events[i]["agent"])
    errors = checks.check_jobs(SCENARIO, events, metrics.makespan, metrics.job_waits)
    assert any("completed" in e and "job is at" in e for e in errors)


def test_wrong_makespan_and_wait_are_rejected(real):
    metrics, events = real
    errors = checks.check_jobs(SCENARIO, events, metrics.makespan + 1, metrics.job_waits)
    assert any(e.startswith("makespan") for e in errors)
    waits = dict(metrics.job_waits)
    job = sorted(waits)[0]
    waits[job] = (waits[job][0], waits[job][1] + 1)
    errors = checks.check_jobs(SCENARIO, events, metrics.makespan, waits)
    assert any(e.startswith(f"{job}: wait") for e in errors)


def test_wrong_bid_cost_is_rejected(real):
    _, events = real
    events = copy.deepcopy(events)
    i = first(events, "Bid")
    events[i]["cost"] += 1
    errors = checks.check_bids(SCENARIO, events, sample=10**6, seed=0)
    assert len(errors) == 1 and "shortest path" in errors[0]


def test_digest_change_between_passes_is_rejected(real):
    metrics, _ = real
    gs = SimpleNamespace(trace=SimpleNamespace(trace_digest=lambda text: text))
    wl = SimpleNamespace(scenarios=[SCENARIO], gs=gs)
    outcome = bench_run.Outcome(wl)

    outcome.digests = ["d1"]  # the first pass has been recorded and checked
    outcome.record(0, metrics, "d1", [], "untraced")
    assert outcome.errors == []
    outcome.record(0, metrics, "d2", [], "traced")
    assert any("differs" in e for e in outcome.errors)
    assert (outcome.attempted, outcome.failed) == (2, 0)
