"""Golden trace digests for a fixed scenario corpus.

A run is a pure function of its scenario, so the SHA-256 digest of its trace
pins behaviour. The table below was computed once and committed; a change
that moves any digest changes behaviour and must re-pin it on purpose. The
corpus is also re-run in fresh interpreters under different PYTHONHASHSEED
values, so set or dict iteration order cannot leak into a trace unnoticed.

Print the current digests with `PYTHONPATH=src python tests/test_golden.py`.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from gridswarm.engine import run_scenario
from gridswarm.scenario import bench_scenario, random_scenario, scenario_from_dict
from gridswarm.trace import parse_trace

SRC = Path(__file__).resolve().parent.parent / "src"

GOLDEN = {
    "random/0":
        "4a1746aeaa3d851d6f875f393a97e2241f4fe6a3e9a08eb699870d47c8958ebb",
    "random/1":
        "5ba86b7b1c2d318c087c71df83c7e06e3d8bbe982c89c3db80329bfb2a0e8213",
    "random/2":
        "548942df24212d571fcd50b055ce164f2bb321018fbe64b8d8d13d120eb548a0",
    "random/3":
        "ab3014f756932688128c1d6538bd2b6e6910c55cc4d28829160d75a9ce8d369f",
    "random/4":
        "9ce04dc5126ce2b1435d4c49497d75f48fca09fafa4392ecf6f5bca748623f97",
    "random/5":
        "9c8b216ece315ba54ac3502cb88bd14831292b80d002cf72a96a7e2fa615dc44",
    "random/6":
        "ac3c76c71b93481a9932439a6d03a2f4c0329c0a6431233f3b631e82c802ad3d",
    "random/7":
        "0063d88b28af24aacc166dd7076f06cb9f8e5105f19194e89c35905804bdc8cd",
    "random/8":
        "af754f7240593e03292e14c9699cccce3900e0158d58a30b64cf4e706d081393",
    "random/9":
        "7e3cc50d4ac5e27af41557e647f8a76cd6046ca68d4f6eb541347c9e629af3a3",
    "random/10":
        "98c96590f117454e08f45ac5328c4bf68b54cedb613c3b6b73bd50077cf8e836",
    "random/11":
        "fa0278ef6c2745a81e8519a279ee1565668148439c6ea7a8807aa520b9a479ae",
    "bench/5x10":
        "ca7e7f67ac0f4cf2771dbe14206d5b1536386663640ec99a378a5b2509cd9170",
    "bench/10x20":
        "14acfa6ac724663ab8b53d971269a8940fd5ca0354b68995b96b9812b870e627",
    "bench/20x30":
        "3c4715f25d1ed67b069e6b463acc09375d3dbc59a8d70db2c82995e1cb12c76a",
    "bench/30x50":
        "e2d42ccd71ebcee3ef8eb1d13d9d429247e9eaa6c2634b3004b4879b9c1372cf",
    "isolation/0":
        "48f0d3d2a298a23d3490fe55282c0ad928dc8706b8b800a3c8de7962b8f23524",
    "kill_revive/99":
        "118517f6430189ec208401e5dc0bd96868acc79ebfc5397368e1b794c938aafc",
    "dense/1x2":
        "41e6c32e2ae2331624e88b1621e52976b73120b58e9689be5af978396b0d4cf9",
    "lossy_faults/3":
        "824eb8636f50c6fe7ab79d5effb87c2619589da73dc873ae2afdc462e691ac2f",
}


def _isolation_base(seed: int) -> dict:
    # Same two-zone layout as criteria 03 and 04 in test_acceptance.py.
    return {
        "map": {"width": 12, "height": 6},
        "partition": {"rows": 1, "cols": 2},
        "agents": [{"id": "a00", "start": [2, 3]},
                   {"id": "a01", "start": [4, 1]},
                   {"id": "a02", "start": [9, 3]},
                   {"id": "a03", "start": [7, 4]}],
        "jobs": [{"spawn_tick": 0, "location": [1, 1], "priority": 2.0},
                 {"spawn_tick": 10, "location": [5, 5], "priority": 1.6},
                 {"spawn_tick": 25, "location": [10, 0], "priority": 1.8},
                 {"spawn_tick": 32, "location": [0, 5], "priority": 2.1}],
        "network": {}, "planner": {}, "consensus": {"timeout_steps": 10},
        "balance": {"period": 10}, "seed": seed, "max_ticks": 300, "faults": [],
    }


def _isolation(seed: int) -> dict:
    base = _isolation_base(seed)
    _, probe = run_scenario(scenario_from_dict(base))
    leader = next(e["leader"] for e in parse_trace(probe.dump())
                  if e["kind"] == "Election" and e["zone"] == [0, 0])
    base["faults"] = [{"tick": 4, "kind": "partition", "groups": [[leader]]},
                      {"tick": 9, "kind": "heal"}]
    return base


def _kill_revive(seed: int) -> dict:
    base = _isolation_base(seed)
    base["faults"] = [{"tick": 3, "kind": "kill", "agent": "a01"},
                      {"tick": 23, "kind": "revive", "agent": "a01"}]
    return base


def _dense_zones() -> dict:
    # Two zones of 30 agents each: per-zone message fan-out is quadratic.
    rng = random.Random(2024)
    width, height = 24, 12
    cells = [[x, y] for y in range(height) for x in range(width)]
    starts = (rng.sample([c for c in cells if c[0] < width // 2], 30)
              + rng.sample([c for c in cells if c[0] >= width // 2], 30))
    jobs = [{"spawn_tick": rng.randint(0, 30), "location": rng.choice(cells),
             "priority": round(rng.uniform(1.2, 3.0), 2)} for _ in range(30)]
    return {
        "map": {"width": width, "height": height},
        "partition": {"rows": 1, "cols": 2, "overlap": 1},
        "agents": [{"id": f"a{i:02d}", "start": c} for i, c in enumerate(starts)],
        "jobs": jobs, "network": {}, "planner": {},
        "consensus": {"timeout_steps": 10}, "balance": {"period": 10},
        "seed": 5, "max_ticks": 150, "faults": [],
    }


def _lossy_faults(seed: int) -> dict:
    # Drops, random delays, a partition and a kill/revive pair in one run.
    base = bench_scenario(12, 20, seed=seed, max_ticks=300)
    base["network"] = {"drop_prob": 0.05, "delay_steps": [0, 2]}
    base["faults"] = [{"tick": 6, "kind": "partition",
                       "groups": [["a00", "a01", "a02", "a03"]]},
                      {"tick": 9, "kind": "kill", "agent": "a05"},
                      {"tick": 14, "kind": "heal"},
                      {"tick": 24, "kind": "revive", "agent": "a05"}]
    return base


def corpus() -> dict[str, dict]:
    """Scenario dicts by name, in a fixed order."""
    out = {}
    for seed in range(12):
        kwargs = {"drop_prob": 0.05, "delay": 1} if seed % 2 else {}
        out[f"random/{seed}"] = random_scenario(seed, **kwargs)
    for n_agents, n_jobs in ((5, 10), (10, 20), (20, 30), (30, 50)):
        out[f"bench/{n_agents}x{n_jobs}"] = bench_scenario(n_agents, n_jobs, seed=11)
    out["isolation/0"] = _isolation(0)
    out["kill_revive/99"] = _kill_revive(99)
    out["dense/1x2"] = _dense_zones()
    out["lossy_faults/3"] = _lossy_faults(3)
    return out


def corpus_digests() -> dict[str, str]:
    return {name: run_scenario(scenario_from_dict(sc))[1].digest()
            for name, sc in corpus().items()}


def test_golden_digests_in_process():
    assert corpus_digests() == GOLDEN


def test_golden_digests_across_hash_seeds():
    procs = {}
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        procs[hash_seed] = subprocess.Popen(
            [sys.executable, __file__], env=env, stdout=subprocess.PIPE, text=True)
    for hash_seed, proc in procs.items():
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"corpus run failed under PYTHONHASHSEED={hash_seed}"
        assert json.loads(out) == GOLDEN, f"digests moved under PYTHONHASHSEED={hash_seed}"


if __name__ == "__main__":
    print(json.dumps(corpus_digests(), indent=4))
