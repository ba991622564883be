import json

import pytest

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


def test_bad_job_priority_rejected():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(
            jobs=[{"spawn_tick": 0, "location": [1, 1], "priority": -1}]))


def test_fault_validation():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(
            faults=[{"tick": 1, "kind": "explode", "agent": "a0"}]))
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(
            faults=[{"tick": 1, "kind": "kill", "agent": "ghost"}]))


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
                minimal(planner={"ramp_cap": 2.5}),
                minimal(consensus={"timeout_steps": "10"}),
                minimal(balance=[]),
                minimal(faults=[["kill"]]),
                minimal(faults=[{"tick": 1, "kind": "partition", "groups": ["a0"]}]),
                minimal(map={"width": 8, "height": 8, "obstacle_rects": [[0, 0, "1", 1]]})):
        with pytest.raises(ConfigError):
            scenario_from_dict(bad)


def test_overlap_wider_than_a_zone_parses():
    cfg = scenario_from_dict(minimal(partition={"rows": 2, "cols": 2, "overlap": 50}))
    assert cfg.overlap == 50
