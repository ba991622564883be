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

from gridswarm.engine import Simulation, run_scenario
from gridswarm.netsim import Bus
from gridswarm.scenario import bench_scenario, random_scenario, scenario_from_dict
from gridswarm.trace import parse_trace

SRC = Path(__file__).resolve().parent.parent / "src"

GOLDEN = {
    "random/0":
        "a95a1b3a692984d7664199eb662a9d2ae9e7c43376596b178509ceac4bbbf0f2",
    "random/1":
        "d8dc8d5f66292c53c0d80ede01d4d46cdcb3941d5c6505c240c0191ce6abeeb8",
    "random/2":
        "627f76c750e5562e34ca6c5b71dedfc935b3b9998b3b5ea4f09ceb9198f71e3f",
    "random/3":
        "60dd4475f8e3b78ec390c3a237f48870ad2418d7d47c2e273ef263b2ce68ac1a",
    "random/4":
        "6641e530ad9daeff11ccf070d23d88c8556c408d9111e822a2f3e8192cad35cf",
    "random/5":
        "77a169817f3abe7feebb258da36c5846fbded7c33b67e9aced21ae6ca8982f2a",
    "random/6":
        "524fb0d26c74348006b812f69be1ca3f7a1b86c04c6b1bc25c29a0a4ec480839",
    "random/7":
        "87054470efa4c1371c596965732b7a6a7c86cf525551177642c41b1d758f78fd",
    "random/8":
        "c75eaa7615e9f9611d78e43c3bddaa3cb9f514801ffa8a33f1126e0174b79c63",
    "random/9":
        "7dbf175719edf950b738c824d8bd8ed38038d733f7caa070d2b922f3ca65ba7d",
    "random/10":
        "90e01894cacf6fa379800680a272f23f266a787767dbbdbb6ed5e0cb58bb2f2b",
    "random/11":
        "ad7ab3825ceeb3817f26c8c98e2be91999292b385ff2c68ba482027455d661ba",
    "bench/5x10":
        "a60e117f9c3853fd4132fd5aaf760aef2af5efcb155a1a21fdaf686083c553ba",
    "bench/10x20":
        "70ab958bcb6b1f9f2819b5e2c4f0dababf94076e11870f3c52f8b57e6407d36c",
    "bench/20x30":
        "19302c43e7d53122d0c6bcc78a53480f151e0a4f02458c7bbc1b50e2ae1f858a",
    "bench/30x50":
        "42c3180fc1783961c1a32408fdf04e49f5cfbd645de335dcfade13a1cb508478",
    "isolation/0":
        "4e4bda4cd623ae0429aaf7fb407fcc0341b1a948df324e2617a28068c939f113",
    "kill_revive/99":
        "b8958eebcf070efff42c1e1f958213321b3879cfbc2e65571e7dc23aba3533c9",
    "dense/1x2":
        "8fd0641222baac6bee6df0c66e7ecb64fede56104cf744d2071da461468cc7c0",
    "lossy_faults/3":
        "684c6eb06da40e6b13e068a899ebe552ffba45f05a064a3ecbae912cb32d32d7",
}

# The messages.* values of metrics.flat() for three runs of the corpus. No
# trace records a message count, so a miscount moves these and no digest.
MESSAGES = {
    "bench/30x50": {
        "messages.db_update": 1894, "messages.global_tick": 461,
        "messages.super_election": 68, "messages.super_loads": 86,
        "messages.super_mandates": 25, "messages.tick_ack": 1006},
    "kill_revive/99": {
        "messages.db_update": 170, "messages.global_tick": 79,
        "messages.super_election": 14, "messages.super_loads": 10,
        "messages.super_mandates": 2, "messages.tick_ack": 57},
    "lossy_faults/3": {
        "messages.db_update": 840, "messages.global_tick": 379,
        "messages.super_election": 126, "messages.super_loads": 50,
        "messages.super_mandates": 19, "messages.tick_ack": 245},
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


def test_golden_message_counts():
    runs = corpus()
    for name, counts in MESSAGES.items():
        metrics, _ = run_scenario(scenario_from_dict(runs[name]))
        flat = metrics.flat()
        assert {k: v for k, v in flat.items() if k.startswith("messages.")} == counts, name


def test_every_published_kind_has_one_handler_and_every_handler_is_sent(monkeypatch):
    # A delivery goes to the handler of its payload's kind and nowhere else,
    # so the table must name exactly the kinds the corpus publishes.
    kinds = set()
    publish = Bus.publish

    def recording(bus, sender, topic, payload):
        kinds.add(payload["kind"])
        return publish(bus, sender, topic, payload)

    monkeypatch.setattr(Bus, "publish", recording)
    for sc in corpus().values():
        run_scenario(scenario_from_dict(sc))
    assert kinds == set(Simulation._handlers)
    assert len(kinds) == 15


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
