"""The line census of scripts/compare_runs.py (``--census``) and its per-run report."""

import importlib.util
import re
from pathlib import Path

from gridswarm.scenario import random_scenario

ROOT = Path(__file__).resolve().parent.parent

# Statements deleted because no run could reach them; a census must never
# list them again.
DELETED = ["JobStatus", "return _unit_dir(i)", "detect_deadlock",
           "_pairs = _contacts(", "a.position == a.goal and a.job is None", "ops.tick("]


def load_compare_runs():
    spec = importlib.util.spec_from_file_location(
        "compare_runs", ROOT / "scripts" / "compare_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def two_runs():
    killed = random_scenario(12)
    killed["faults"] = [{"tick": 3, "kind": "kill", "agent": "a00"},
                        {"tick": 13, "kind": "revive", "agent": "a00"}]
    return {"random_kill/12": killed,
            "lossy/13": random_scenario(13, drop_prob=0.05, delay=1)}


def test_census_lists_unreached_lines_in_file_and_line_order():
    unreached = load_compare_runs().census(two_runs)
    assert unreached
    keys = []
    for entry in unreached:
        m = re.fullmatch(r"src/gridswarm/(\w+\.py):(\d+)  (\S.*)", entry)
        assert m, entry
        name, line, source = m.group(1), int(m.group(2)), m.group(3)
        assert name != "cli.py"
        text = (ROOT / "src" / "gridswarm" / name).read_text(encoding="utf-8").splitlines()
        assert text[line - 1].strip() == source
        # Class bodies, module-level statements and raise lines are skipped.
        assert text[line - 1].startswith(" ") and not source.startswith("raise ")
        keys.append((name, line))
    assert keys == sorted(keys)
    # No run classifies a pair as WAIT: the resolver pairs only agents that
    # intend one another's cell or the same cell.
    assert any(e.startswith("src/gridswarm/planner.py:")
               and e.endswith("return ConflictKind.WAIT") for e in unreached)
    # Lines every run executes are not listed.
    assert not any(e.endswith("self._phase_consensus()") for e in unreached)
    assert not [e for e in unreached if any(d in e for d in DELETED)]


def test_report_names_the_first_violation_that_differs():
    compare_runs = load_compare_runs()
    base = {"digest": "d0", "flat": {"rounds": 40},
            "violations": ["tick 3: job j0 double-assigned", "tick 9: agent a holds two assignments"]}
    this = dict(base, violations=["tick 3: job j0 double-assigned",
                                  "tick 9: agent b holds two assignments"])
    assert compare_runs.run_report("lossy/13", base, base) == []
    assert compare_runs.run_report("lossy/13", base, this) == [
        "lossy/13: digest same, violations 2 -> 2",
        "    first differing violation, number 2: 'tick 9: agent a holds two assignments' -> "
        "'tick 9: agent b holds two assignments'"]
    longer = dict(this, digest="d1", flat={"rounds": 41},
                  violations=base["violations"] + ["tick 12: job j1 double-assigned"])
    assert compare_runs.run_report("lossy/13", base, longer) == [
        "lossy/13: digest differs, violations 2 -> 3",
        "    first differing violation, number 3: None -> 'tick 12: job j1 double-assigned'",
        "    rounds: 40 -> 41"]
