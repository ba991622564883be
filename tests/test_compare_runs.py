"""The line census of scripts/compare_runs.py (``--census``)."""

import importlib.util
import re
from pathlib import Path

from gridswarm.scenario import random_scenario

ROOT = Path(__file__).resolve().parent.parent

# Statements deleted because no run could reach them; a census must never
# list them again.
DELETED = ["JobStatus", "return _unit_dir(i)", "detect_deadlock",
           "_pairs = _contacts(", "a.position == a.goal and a.job is None"]


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
