import copy
import functools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from gridswarm import scenario as scenario_mod
from gridswarm.scenario import (ConfigError, bench_scenario, load_scenario,
                                random_scenario, scenario_from_dict)
from gridswarm.world import Cell


def minimal(**overrides):
    data = {
        "map": {"width": 8, "height": 8},
        "partition": {"rows": 2, "cols": 2},
        "agents": [{"id": "a0", "start": [0, 0]}, {"id": "a1", "start": [7, 7]}],
        "jobs": [{"spawn_tick": 0, "location": [4, 4], "priority": 1.5}],
        "network": {},
        "planner": {},
        "consensus": {},
        "balance": {},
        "seed": 1,
        "max_ticks": 50,
        "faults": [],
    }
    data.update(overrides)
    return data


def test_minimal_scenario_parses():
    cfg = scenario_from_dict(minimal())
    assert cfg.grid.width == 8
    assert cfg.rows == 2 and cfg.cols == 2
    assert cfg.agents == (("a0", Cell(0, 0)), ("a1", Cell(7, 7)))
    assert cfg.timeout_steps == 10
    assert cfg.balance_period == 10


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(bogus=1))
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(map={"width": 8, "height": 8, "wat": 1}))
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(network={"jitter": 0.1}))


def test_planner_force_scale_key_is_unknown():
    with pytest.raises(ConfigError, match=r"planner: unknown keys \['f'\]"):
        scenario_from_dict(minimal(planner={"f": 1.0}))


@pytest.mark.parametrize("key", ["deadlock_threshold", "ramp_cap"])
def test_planner_constants_are_unknown_keys(key):
    """The planner has no settings: its object may only be empty or absent."""
    with pytest.raises(ConfigError, match=rf"planner: unknown keys \['{key}'\]"):
        scenario_from_dict(minimal(planner={key: 2}))
    no_planner = minimal()
    del no_planner["planner"]
    assert scenario_from_dict(no_planner) == scenario_from_dict(minimal())


def test_reserved_agent_ids_rejected():
    for bad in ("super", "controller"):
        with pytest.raises(ConfigError):
            scenario_from_dict(minimal(
                agents=[{"id": bad, "start": [0, 0]}]))


def test_duplicate_and_colliding_agents_rejected():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(agents=[{"id": "a", "start": [0, 0]},
                                           {"id": "a", "start": [1, 1]}]))
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(agents=[{"id": "a", "start": [0, 0]},
                                           {"id": "b", "start": [0, 0]}]))


def test_agent_on_obstacle_rejected():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(
            map={"width": 8, "height": 8, "obstacles": [[0, 0]]}))


def test_obstacle_rects_expand():
    cfg = scenario_from_dict(minimal(
        map={"width": 8, "height": 8, "obstacle_rects": [[2, 2, 3, 3]]}))
    assert not cfg.grid.is_free(Cell(2, 2))
    assert not cfg.grid.is_free(Cell(3, 3))
    assert cfg.grid.is_free(Cell(4, 4))


@pytest.mark.parametrize("rect", [
    [0, 0, 1000000000, 1000000000],  # would expand to 10**18 cells
    [0, 5, 100000000, 4],  # empty y range, but 10**8 columns to loop over
    [-1, 0, 2, 2],
    [0, 0, 8, 0],  # x1 == width
    [0, 8, 0, 0],  # y0 == height
])
def test_off_map_obstacle_rect_rejected_before_expansion(monkeypatch, rect):
    def no_expansion(rects):
        raise AssertionError(f"expanded {rects} before the bounds check")

    monkeypatch.setattr(scenario_mod, "_rect_cells", no_expansion)
    with pytest.raises(ConfigError, match=r"map\.obstacle_rects\[0\]: corner off the 8x8 map"):
        scenario_from_dict(minimal(
            map={"width": 8, "height": 8, "obstacle_rects": [rect]}))


def test_obstacle_rect_on_the_last_row_and_column_parses():
    cfg = scenario_from_dict(minimal(
        map={"width": 8, "height": 8, "obstacle_rects": [[7, 0, 7, 3], [0, 7, 3, 7]]}))
    assert not cfg.grid.is_free(Cell(7, 3))
    assert not cfg.grid.is_free(Cell(3, 7))


def test_bad_job_priority_rejected():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(
            jobs=[{"spawn_tick": 0, "location": [1, 1], "priority": -1}]))


# Scenarios holding a number at the named field.
NUMBER_AT = {
    "jobs[0].priority":
        lambda v: minimal(jobs=[{"spawn_tick": 0, "location": [4, 4], "priority": v}]),
    "network.drop_prob": lambda v: minimal(network={"drop_prob": v}),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10 ** 400],
                         ids=["nan", "inf", "-inf", "int_over_float_max"])
@pytest.mark.parametrize("field", sorted(NUMBER_AT))
def test_non_finite_number_is_a_config_error_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=re.escape(field) + ": expected a finite number"):
        scenario_from_dict(NUMBER_AT[field](value))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_priority_in_a_file_is_rejected(tmp_path, token):
    # Python's json reads these tokens, though they are not JSON.
    path = tmp_path / "s.json"
    path.write_text(json.dumps(minimal()).replace('"priority": 1.5', f'"priority": {token}'))
    with pytest.raises(ConfigError, match=r"jobs\[0\]\.priority"):
        load_scenario(str(path))


def test_fault_validation():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(
            faults=[{"tick": 1, "kind": "explode", "agent": "a0"}]))
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(
            faults=[{"tick": 1, "kind": "kill", "agent": "ghost"}]))


# A fault's agent that is not a string: unhashable on a kill, and compared
# with a string by the fault sort when two heals share a tick.
BAD_FAULT_AGENTS = {
    "faults[0].agent": [{"tick": 1, "kind": "kill", "agent": [1]}],
    "faults[1].agent": [{"tick": 1, "kind": "heal"}, {"tick": 1, "kind": "heal", "agent": 5}],
}


@pytest.mark.parametrize("field", sorted(BAD_FAULT_AGENTS))
def test_fault_agent_must_be_a_string(field):
    with pytest.raises(ConfigError, match=re.escape(field)):
        scenario_from_dict(minimal(faults=BAD_FAULT_AGENTS[field]))


# Fields a fault's kind does not read, and a partition that splits nothing.
# Each used to parse: the field was ignored, and the partition acted as a heal.
BAD_FAULT_FIELDS = {
    "partition without groups": ({"tick": 1, "kind": "partition"}, "groups"),
    "partition with no group": ({"tick": 1, "kind": "partition", "groups": []}, "groups"),
    "kill with groups": ({"tick": 1, "kind": "kill", "agent": "a0", "groups": [["a1"]]},
                         "groups"),
    "revive with groups": ({"tick": 1, "kind": "revive", "agent": "a0", "groups": []},
                           "groups"),
    "heal with groups": ({"tick": 1, "kind": "heal", "groups": [["a0"]]}, "groups"),
    "partition with an agent": ({"tick": 1, "kind": "partition", "agent": "a0",
                                 "groups": [["a0"]]}, "agent"),
    "heal with an agent": ({"tick": 1, "kind": "heal", "agent": "a0"}, "agent"),
}


@pytest.mark.parametrize("case", sorted(BAD_FAULT_FIELDS))
def test_fault_fields_must_fit_the_kind(case):
    fault, field = BAD_FAULT_FIELDS[case]
    with pytest.raises(ConfigError, match=re.escape(f"faults[1].{field}:")):
        scenario_from_dict(minimal(faults=[{"tick": 1, "kind": "heal"}, fault]))


# Round 1 is the first round, so a fault before it would never fire.
@pytest.mark.parametrize("fault", [{"tick": 0, "kind": "kill", "agent": "a0"},
                                   {"tick": -3, "kind": "heal"},
                                   {"kind": "heal"}])
def test_fault_tick_must_be_a_round(fault):
    with pytest.raises(ConfigError, match=re.escape("faults[1].tick:")):
        scenario_from_dict(minimal(faults=[{"tick": 1, "kind": "heal"}, fault]))


# Partition groups over the agents of random_scenario(0), a00 to a10: two
# groups that share a00, and a group naming an agent the scenario lacks.
BAD_GROUPS = {
    "overlapping": ([["a00", "a01"], ["a02", "a00"]],
                    r"faults\[1\]\.groups\[1\]: agents \['a00'\] are already"),
    "unknown agent": ([["a00", "ghost"]],
                      r"faults\[1\]\.groups\[0\]: unknown agents \['ghost'\]"),
}


@pytest.mark.parametrize("case", sorted(BAD_GROUPS))
def test_partition_groups_checked_at_parse_time(case):
    groups, message = BAD_GROUPS[case]
    scenario = random_scenario(0)
    scenario["faults"] = [{"tick": 2, "kind": "heal"},
                          {"tick": 3, "kind": "partition", "groups": groups}]
    with pytest.raises(ConfigError, match=message):
        scenario_from_dict(scenario)


def test_disjoint_partition_groups_of_known_agents_parse():
    scenario = random_scenario(0)
    scenario["faults"] = [{"tick": 3, "kind": "partition",
                           "groups": [["a00", "a01"], ["a02"]]}]
    (fault,) = scenario_from_dict(scenario).faults
    assert fault.groups == (frozenset({"a00", "a01"}), frozenset({"a02"}))


def test_network_partitions_key_is_unknown():
    with pytest.raises(ConfigError, match="partitions"):
        scenario_from_dict(minimal(network={"partitions": [[5, [["a0"]]]]}))


def test_load_scenario_file(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(minimal()))
    cfg = load_scenario(str(path))
    assert cfg.seed == 1
    with pytest.raises(ConfigError):
        load_scenario(str(tmp_path / "missing.json"))


def test_random_scenarios_parse_and_connect():
    from collections import deque
    for seed in range(10):
        cfg = scenario_from_dict(random_scenario(seed))
        grid = cfg.grid
        free = [Cell(x, y) for y in range(grid.height) for x in range(grid.width)
                if grid.is_free(Cell(x, y))]
        seen = {free[0]}
        queue = deque([free[0]])
        while queue:
            for n in grid.free_neighbors(queue.popleft()):
                if n not in seen:
                    seen.add(n)
                    queue.append(n)
        assert len(seen) == len(free)


def test_random_scenario_is_reproducible():
    assert random_scenario(42) == random_scenario(42)
    assert random_scenario(42) != random_scenario(43)


def test_bench_scenario_shape():
    sc = bench_scenario(30, 50, 7)
    cfg = scenario_from_dict(sc)
    assert cfg.grid.width == 30 and cfg.grid.height == 30
    assert cfg.rows == 3 and cfg.cols == 3
    assert len(cfg.agents) == 30
    assert len(cfg.jobs) == 50
    assert cfg.max_ticks == 5000


# Inputs that used to escape the parser as ValueError, TypeError or
# IndexError; each must be a ConfigError that names the field.
BAD_FIELDS = {
    "seed": minimal(seed="abc"),
    "agents": minimal(agents=5),
    "map.width": minimal(map={"width": "30", "height": 8}),
    "network.delay_steps": minimal(network={"delay_steps": [1]}),
}


@pytest.mark.parametrize("field", sorted(BAD_FIELDS))
def test_wrong_type_is_a_config_error_naming_the_field(field):
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        scenario_from_dict(BAD_FIELDS[field])


def test_typed_fields_reject_other_types():
    for bad in (minimal(max_ticks=True),
                minimal(partition={"rows": 2.0, "cols": 2}),
                minimal(jobs=[{"spawn_tick": "0", "location": [4, 4]}]),
                minimal(jobs=[{"location": [4, 4], "priority": "high"}]),
                minimal(network={"delay_steps": [0, "2"]}),
                minimal(network={"drop_prob": None}),
                minimal(planner=[]),
                minimal(consensus={"timeout_steps": "10"}),
                minimal(balance=[]),
                minimal(faults=[["kill"]]),
                minimal(faults=[{"tick": 1, "kind": "partition", "groups": ["a0"]}]),
                minimal(map={"width": 8, "height": 8, "obstacle_rects": [[0, 0, "1", 1]]})):
        with pytest.raises(ConfigError):
            scenario_from_dict(bad)


# A bad agent or job at index 2, after two good ones, and the exact message:
# the per-item readers word the item's path only when they raise.
GOOD_AGENTS = [{"id": "a0", "start": [0, 0]}, {"id": "a1", "start": [7, 7]}]
GOOD_JOBS = [{"spawn_tick": 0, "location": [4, 4], "priority": 1.5},
             {"spawn_tick": 1, "location": [5, 5]}]
BAD_ITEMS = {
    "agent not an object": ("agents", ["a2"], "agents[2]: expected an object, got ['a2']"),
    "agent unknown keys": ("agents", {"id": "a2", "start": [1, 1], "speed": 2, "cell": 0},
                           "agents[2]: unknown keys ['cell', 'speed']"),
    "agent start bool": ("agents", {"id": "a2", "start": [1, True]},
                         "agents[2].start: expected [x, y] integer pair, got [1, True]"),
    "agent start float": ("agents", {"id": "a2", "start": [1.0, 1]},
                          "agents[2].start: expected [x, y] integer pair, got [1.0, 1]"),
    "agent start length 3": ("agents", {"id": "a2", "start": [1, 1, 1]},
                             "agents[2].start: expected [x, y] integer pair, got [1, 1, 1]"),
    "job not an object": ("jobs", 7, "jobs[2]: expected an object, got 7"),
    "job unknown keys": ("jobs", {"location": [1, 1], "zone": [0, 0]},
                         "jobs[2]: unknown keys ['zone']"),
    "job location": ("jobs", {"location": [1, "1"]},
                     "jobs[2].location: expected [x, y] integer pair, got [1, '1']"),
    "job priority nan": ("jobs", {"location": [1, 1], "priority": float("nan")},
                         "jobs[2].priority: expected a finite number, got nan"),
    "job priority bool": ("jobs", {"location": [1, 1], "priority": True},
                          "jobs[2].priority: expected a finite number, got True"),
    "job priority huge int": ("jobs", {"location": [1, 1], "priority": 10 ** 400},
                              f"jobs[2].priority: expected a finite number, got {10 ** 400}"),
    "job spawn_tick bool": ("jobs", {"location": [1, 1], "spawn_tick": False},
                            "jobs[2].spawn_tick: expected an integer, got False"),
    "job spawn_tick string": ("jobs", {"location": [1, 1], "spawn_tick": "3"},
                              "jobs[2].spawn_tick: expected an integer, got '3'"),
}


@pytest.mark.parametrize("case", sorted(BAD_ITEMS))
def test_item_errors_give_the_item_path_exactly(case):
    key, item, message = BAD_ITEMS[case]
    items = {"agents": GOOD_AGENTS, "jobs": GOOD_JOBS}[key]
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict(minimal(**{key: copy.deepcopy(items) + [item]}))
    assert str(exc.value) == message


def test_fault_item_errors_give_the_item_path_exactly():
    heal = {"tick": 1, "kind": "heal"}
    for fault, message in (
            (3, "faults[1]: expected an object, got 3"),
            ({"tick": 2, "kind": "heal", "when": 1}, "faults[1]: unknown keys ['when']"),
            ({"tick": "2", "kind": "heal"}, "faults[1].tick: expected an integer, got '2'")):
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(minimal(faults=[heal, fault]))
        assert str(exc.value) == message


# A candidacy takes two deliveries of at least max(1, least delay) bus
# steps, so a shorter consensus timeout never elects a leader.
@pytest.mark.parametrize("timeout, delay", [(0, 0), (1, 0), (1, 1), (5, 3), (3, [2, 4])])
def test_timeout_too_short_for_an_election_is_a_config_error(timeout, delay):
    with pytest.raises(ConfigError, match=r"consensus\.timeout_steps must be >= "):
        scenario_from_dict(minimal(network={"delay_steps": delay},
                                   consensus={"timeout_steps": timeout}))


@pytest.mark.parametrize("timeout, delay", [(2, 0), (2, 1), (6, 3), (4, [2, 4])])
def test_timeout_just_long_enough_for_an_election_parses(timeout, delay):
    cfg = scenario_from_dict(minimal(network={"delay_steps": delay},
                                     consensus={"timeout_steps": timeout}))
    assert cfg.timeout_steps == timeout


def test_overlap_wider_than_a_zone_parses():
    cfg = scenario_from_dict(minimal(partition={"rows": 2, "cols": 2, "overlap": 50}))
    assert cfg.overlap == 50


# Every fault kind, and two kills at one tick so that the fault sort
# compares their agents.
MUTATION_FAULTS = [
    {"tick": 2, "kind": "kill", "agent": "a00"},
    {"tick": 2, "kind": "kill", "agent": "a01"},
    {"tick": 3, "kind": "partition", "groups": [["a00"], ["a01"]]},
    {"tick": 5, "kind": "revive", "agent": "a00"},
    {"tick": 6, "kind": "heal"},
]


@functools.lru_cache(maxsize=None)
def _mutation_base(seed: int) -> str:
    scenario = random_scenario(seed, max_agents=4, max_jobs=4)
    scenario["faults"] = MUTATION_FAULTS
    return json.dumps(scenario)


def _paths(value, path=()):
    """The path of `value` and of every value inside it."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, item in items:
        yield from _paths(item, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


_json_scalars = (st.none() | st.booleans() | st.integers(-3, 2**64) | st.floats()
                 | st.text(max_size=4))
_other_values = (st.none() | st.text(max_size=4) | st.floats() | st.booleans()
                 | st.lists(_json_scalars, max_size=5)
                 | st.dictionaries(st.text(max_size=4), _json_scalars, max_size=3))


def _pick_path(data, paths):
    """A path of `paths`, each field of the schema as likely as any other
    however many list entries hold it."""
    shape = lambda path: tuple("*" if isinstance(k, int) else k for k in path)
    chosen = data.draw(st.sampled_from(list(dict.fromkeys(map(shape, paths)))))
    return data.draw(st.sampled_from([p for p in paths if shape(p) == chosen]))


def _mutate(data, scenario):
    """`scenario` with one key dropped, one value at any path replaced by a
    value of another type, or one list entry duplicated."""
    paths = list(_paths(scenario))
    op = data.draw(st.sampled_from(["drop", "replace", "duplicate"]))
    if op == "drop":
        paths = [p for p in paths if p and isinstance(_at(scenario, p[:-1]), dict)]
    elif op == "duplicate":
        paths = [p for p in paths if isinstance(_at(scenario, p), list) and _at(scenario, p)]
    if not paths:
        return scenario
    path = _pick_path(data, paths)
    if op == "drop":
        del _at(scenario, path[:-1])[path[-1]]
    elif op == "duplicate":
        entries = _at(scenario, path)
        i = data.draw(st.integers(0, len(entries) - 1))
        entries.insert(i, copy.deepcopy(entries[i]))
    elif path:
        _at(scenario, path[:-1])[path[-1]] = data.draw(_other_values)
    else:
        return data.draw(_other_values)
    return scenario


# A fixed hypothesis seed: every run reads the same 800 examples.
@settings(max_examples=800, deadline=None, derandomize=True)
@given(st.integers(0, 20), st.data())
def test_mutated_scenario_parses_or_raises_config_error(seed, data):
    """A scenario after each of a few mutations either parses or raises
    ConfigError."""
    scenario = json.loads(_mutation_base(seed))
    for _ in range(data.draw(st.integers(1, 4))):
        scenario = _mutate(data, scenario)
        try:
            scenario_from_dict(scenario)
        except ConfigError:
            pass
