import json

import pytest

from gridswarm.cli import main
from gridswarm.scenario import random_scenario
from gridswarm.trace import TraceWriter, trace_digest


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(random_scenario(3)))
    return str(path)


def test_run_writes_trace_and_metrics(tmp_path, scenario_file, capsys):
    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.json"
    code = main(["run", "--scenario", scenario_file,
                 "--trace-out", str(trace_path),
                 "--metrics-out", str(metrics_path)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["completed"] is True
    assert trace_path.read_text().startswith('{"tick"')
    metrics = json.loads(metrics_path.read_text())
    assert metrics["collisions"] == 0


def test_run_dumps_the_trace_once_and_prints_its_digest(tmp_path, scenario_file, capsys,
                                                        monkeypatch):
    texts = []
    dump = TraceWriter.dump

    def counting_dump(self):
        texts.append(dump(self))
        return texts[-1]

    monkeypatch.setattr(TraceWriter, "dump", counting_dump)
    trace_path = tmp_path / "trace.jsonl"
    assert main(["run", "--scenario", scenario_file, "--trace-out", str(trace_path)]) == 0
    assert len(texts) == 1
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["digest"] == trace_digest(texts[0]) == trace_digest(trace_path.read_text())


def test_run_incomplete_exits_3(tmp_path, capsys):
    # a lone unreachable job can never complete
    scenario = {
        "map": {"width": 5, "height": 1, "obstacles": [[2, 0]]},
        "partition": {"rows": 1, "cols": 1},
        "agents": [{"id": "a0", "start": [0, 0]}],
        "jobs": [{"spawn_tick": 0, "location": [4, 0], "priority": 1.0}],
        "network": {}, "planner": {}, "consensus": {}, "balance": {},
        "seed": 0, "max_ticks": 20, "faults": [],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", "--scenario", str(path)]) == 3


def test_config_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"map": {"width": 0}}')
    assert main(["run", "--scenario", str(path)]) == 2
    assert main(["verify", "--trace", str(tmp_path / "nope.jsonl")]) == 2


def test_verify_clean_and_dirty(tmp_path, scenario_file, capsys):
    trace_path = tmp_path / "trace.jsonl"
    main(["run", "--scenario", scenario_file, "--trace-out", str(trace_path)])
    capsys.readouterr()
    assert main(["verify", "--trace", str(trace_path)]) == 0

    dirty = tmp_path / "dirty.jsonl"
    dirty.write_text(
        '{"tick":1,"kind":"Move","actor":"a","src":[0,0],"dst":[1,0]}\n'
        '{"tick":1,"kind":"Move","actor":"b","src":[2,0],"dst":[1,0]}\n')
    assert main(["verify", "--trace", str(dirty)]) == 1
    assert "vertex violation" in capsys.readouterr().out


def test_seed_override_changes_nothing_on_lossless_run(scenario_file, capsys):
    # the seed feeds drop/delay/force draws; on this scenario runs stay green
    assert main(["run", "--scenario", scenario_file, "--seed", "99"]) == 0


def test_bench_reports_rows(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["bench", "--agents", "5", "--jobs", "10",
                 "--max-ticks", "2000", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert rows[0]["completed"] is True


def exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("args,fragment", [
    (["--agents", "x"], "argument --agents: expected comma-separated counts, got 'x'"),
    (["--agents", "900"], "900 agents do not fit"),
    (["--agents", "5", "--max-ticks", "0"], "max_ticks must be >= 1"),
    (["--agents", "5", "--repeats", "0"],
     "argument --repeats: expected a count of at least 1, got '0'"),
    (["--agents", "5", "--repeats", "-2"],
     "argument --repeats: expected a count of at least 1, got '-2'"),
], ids=["agents_not_a_number", "agents_beyond_free_cells", "max_ticks_0", "repeats_0",
        "repeats_negative"])
def test_bench_exits_2_on_a_bad_argument(capsys, args, fragment):
    assert exit_code(["bench", "--jobs", "1"] + args) == 2
    err = capsys.readouterr().err
    assert "error:" in err and fragment in err


@pytest.mark.parametrize("command,flag", [("run", "--scenario"), ("verify", "--trace")])
@pytest.mark.parametrize("content", [
    b'{"tick":0,"kind":"Move","actor":"\xe9","src":[0,0],"dst":[1,0]}\n',  # Latin-1
    b'{"tick":' + b"1" * 5000 + b',"kind":"Move"}\n',  # past int()'s digit limit
    b"[" * 100000 + b"]" * 100000 + b"\n",  # past the recursion limit
], ids=["latin1", "long_integer", "deep_nesting"])
def test_unreadable_input_file_exits_2(tmp_path, capsys, command, flag, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert main([command, flag, str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "{scenario}", "--trace-out", "{out}"],
    ["run", "--scenario", "{scenario}", "--metrics-out", "{out}"],
    ["bench", "--agents", "2", "--jobs", "1", "--out", "{out}"],
], ids=["trace_out", "metrics_out", "bench_out"])
def test_unwritable_output_exits_2(tmp_path, scenario_file, capsys, argv):
    out = str(tmp_path / "missing" / "out")
    assert main([a.format(scenario=scenario_file, out=out) for a in argv]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    '{"tick":1,"kind":"Move","actor":"a","src":[0,0]}',
    '{"tick":1,"kind":"TickAck","actor":"a","zone":[0,0],"committed_tick":1}',
])
def test_verify_exits_2_on_an_event_missing_a_field(tmp_path, capsys, line):
    path = tmp_path / "short.jsonl"
    path.write_text(line + "\n")
    assert main(["verify", "--trace", str(path)]) == 2
    assert "lacks fields" in capsys.readouterr().err


@pytest.mark.parametrize("section,value", [
    ("seed", "abc"),
    ("agents", 5),
    ("map", {"width": "30", "height": 8}),
    ("network", {"delay_steps": [1]}),
])
def test_run_exits_2_on_a_field_of_the_wrong_type(tmp_path, capsys, section, value):
    scenario = random_scenario(3)
    scenario[section] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("priority", [float("nan"), float("inf")])
def test_run_exits_2_on_a_non_finite_job_priority(tmp_path, capsys, priority):
    scenario = random_scenario(3)
    scenario["jobs"][0]["priority"] = priority
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(scenario))  # writes NaN or Infinity, as Python's json reads
    assert main(["run", "--scenario", str(path)]) == 2
    assert "jobs[0].priority: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("faults", [
    [{"tick": 1, "kind": "kill", "agent": [1]}],
    [{"tick": 1, "kind": "heal"}, {"tick": 1, "kind": "heal", "agent": 5}],
])
def test_run_exits_2_on_a_fault_agent_that_is_not_a_string(tmp_path, capsys, faults):
    scenario = random_scenario(0)
    scenario["faults"] = faults
    path = tmp_path / "faults.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", "--scenario", str(path)]) == 2
    assert ".agent: expected an agent id" in capsys.readouterr().err


@pytest.mark.parametrize("groups", [
    [["a00", "a01"], ["a02", "a00"]],  # overlapping
    [["a00", "ghost"]],  # an agent random_scenario(0) lacks
])
def test_run_exits_2_on_bad_partition_groups(tmp_path, capsys, groups):
    scenario = random_scenario(0)
    scenario["faults"] = [{"tick": 2, "kind": "heal"},
                          {"tick": 3, "kind": "partition", "groups": groups}]
    path = tmp_path / "groups.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "faults[1].groups" in capsys.readouterr().err


@pytest.mark.parametrize("fault,field", [
    ({"tick": 3, "kind": "partition"}, "groups"),
    ({"tick": 3, "kind": "heal", "groups": [["a00"]]}, "groups"),
    ({"tick": 3, "kind": "heal", "agent": "a00"}, "agent"),
])
def test_run_exits_2_on_a_fault_field_its_kind_does_not_read(tmp_path, capsys, fault, field):
    scenario = random_scenario(0)
    scenario["faults"] = [fault]
    path = tmp_path / "faults.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", "--scenario", str(path)]) == 2
    assert f"faults[0].{field}:" in capsys.readouterr().err


@pytest.mark.parametrize("tick", [0, -3])
def test_run_exits_2_on_a_fault_before_round_1(tmp_path, capsys, tick):
    scenario = random_scenario(5)
    scenario["faults"] = [{"tick": tick, "kind": "kill", "agent": "a00"}]
    path = tmp_path / "faults.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "faults[0].tick:" in capsys.readouterr().err


@pytest.mark.parametrize("line,fragment", [
    ('{"tick":1,"kind":"Move","actor":"a","src":[0,0],"dst":5}', "line 2: Move event"),
    ('{"tick":"1","kind":"Move","actor":"a","src":[0,0],"dst":[1,0]}', "line 2: tick"),
    ('{"tick":0,"kind":"StatePublish","actor":"a","zone":[0,0],"position":[[1],0],'
     '"intent":[0,0],"job":null,"agent_tick":0}', "line 2: StatePublish event"),
    ('{"tick":0,"kind":"Move","actor":5,"src":[0,0],"dst":[1,0]}', "line 2: actor"),
    ('{"tick":0,"kind":"TickAck","actor":"a","zone":[[1],0],"committed_tick":1,"digest":"d"}',
     "line 2: TickAck event"),
    ('{"tick":0,"kind":"Election","actor":"super","zone":"z","leader":"a","since_tick":0,'
     '"reason":"bootstrap"}', "line 2: Election event"),
    ('{"tick":0,"kind":"Assign","actor":"a","job":"j0","agent":"b","cost":1,"zone":null}',
     "line 2: Assign event"),
    ('{"tick":-1,"kind":"Move","actor":"a","src":[0,0],"dst":[1,0]}', "line 2: tick -1"),
])
def test_verify_exits_2_on_a_value_of_the_wrong_type(tmp_path, capsys, line, fragment):
    path = tmp_path / "typed.jsonl"
    path.write_text('{"tick":0,"kind":"Move","actor":"b","src":[3,3],"dst":[3,4]}\n'
                    + line + "\n")
    assert main(["verify", "--trace", str(path)]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("timeout, delay", [(1, 0), (5, 3), (3, [2, 4])])
def test_run_exits_2_on_a_timeout_too_short_for_an_election(tmp_path, capsys, timeout, delay):
    scenario = random_scenario(3)
    scenario["consensus"] = {"timeout_steps": timeout}
    scenario["network"] = {"drop_prob": 0.0, "delay_steps": delay}
    path = tmp_path / "timeout.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "consensus.timeout_steps must be >=" in capsys.readouterr().err
