import heapq
import random
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from gridswarm.netsim import (Bus, BusConfig, PartitionConfigError, UnknownSenderError,
                              derive_seed, zone_topic)


def make_bus(**kw):
    seed = kw.pop("seed", 1)
    bus = Bus(BusConfig(**kw), seed)
    for name in ("a", "b", "c"):
        bus.register(name)
    return bus


class Delivery(NamedTuple):
    recipient: str
    sender: str
    topic: str
    seq: int
    payload: Any


def flatten(due):
    """The deliveries of one step's queue entries, (sender, topic, seq,
    payload, recipients), one per recipient in delivery order."""
    return [Delivery(r, *entry[:4]) for entry in due for r in entry[4]]


def queued_at(bus):
    """Each queued payload's deliver_at, read from the bus's queue."""
    return {entry[3]: t for t, batch in bus._queue.items() for entry in batch}


def drain(bus, steps):
    out = []
    for _ in range(steps):
        out.extend(flatten(bus.step_deliver()))
    return out


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert derive_seed(1, "x") != derive_seed(1, "y")
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_zone_topic_format():
    assert zone_topic((1, 2), "db_update") == "zone/1,2/db_update"


def test_delivery_next_step_with_zero_delay():
    # a zero-delay message is present exactly one step after publish
    bus = make_bus()
    bus.subscribe("b", "t")
    bus.publish("a", "t", "hello")
    got = flatten(bus.step_deliver())
    assert [(d.recipient, d.payload) for d in got] == [("b", "hello")]
    assert bus.step_deliver() == []


def test_fixed_delay():
    bus = make_bus(delay_steps=2)
    bus.subscribe("b", "t")
    bus.publish("a", "t", 1)
    assert bus.step_deliver() == []
    got = flatten(bus.step_deliver())
    assert [(d.recipient, d.payload) for d in got] == [("b", 1)]


def test_no_self_delivery():
    bus = make_bus()
    bus.subscribe("a", "t")
    bus.subscribe("b", "t")
    bus.publish("a", "t", "x")
    got = drain(bus, 2)
    assert [d.recipient for d in got] == ["b"]


def test_subscription_evaluated_at_publish():
    bus = make_bus(delay_steps=1)
    bus.subscribe("b", "t")
    bus.publish("a", "t", "early")
    bus.unsubscribe("b", "t")
    bus.subscribe("c", "t")
    bus.publish("a", "t", "late")
    got = drain(bus, 3)
    # b still receives the message published while it was subscribed; c only the later one
    assert sorted((d.recipient, d.payload) for d in got) == [("b", "early"), ("c", "late")]


def test_unsubscribe_applies_to_the_next_publish():
    bus = make_bus()
    bus.subscribe("b", "t")
    bus.subscribe("c", "t")
    bus.publish("a", "t", 1)
    bus.unsubscribe("b", "t")
    bus.publish("a", "t", 2)
    got = drain(bus, 2)
    assert [(d.recipient, d.payload) for d in got] == [("b", 1), ("c", 1), ("c", 2)]


def test_fifo_per_sender_topic_under_random_delay():
    bus = make_bus(delay_steps=(0, 5), seed=3)
    bus.subscribe("b", "t")
    for i in range(20):
        bus.publish("a", "t", i)
    got = drain(bus, 10)
    assert [d.payload for d in got] == list(range(20))


def test_one_value_delay_range_still_draws():
    # randint(3, 3) consumes one getrandbits(1) draw or more; the bus must
    # consume the same, or every later drop and delay would shift.
    seed, n = 5, 40
    bus = make_bus(delay_steps=(3, 3), seed=seed)
    bus.subscribe("b", "t")
    ref = random.Random(derive_seed(seed, "bus"))
    for i in range(n):
        bus.publish("a", "t", i)
        ref.randint(3, 3)
    assert bus._rng.getstate() == ref.getstate()
    assert queued_at(bus) == {i: 3 for i in range(n)}
    got = drain(bus, 3)
    assert [d.payload for d in got] == list(range(n))


def test_drop_and_delay_draws_follow_random_then_randint():
    # Each publish draws random() for the drop and, if kept, randint(lo, hi)
    # for the delay. Distinct topics keep the FIFO clamp out of the way.
    seed, n = 11, 200
    bus = make_bus(drop_prob=0.3, delay_steps=(0, 2), seed=seed)
    ref = random.Random(derive_seed(seed, "bus"))
    expected, kept = {}, []
    for i in range(n):
        topic = f"t{i}"
        bus.subscribe("b", topic)
        kept.append(bus.publish("a", topic, i))
        if ref.random() >= 0.3:
            expected[i] = ref.randint(0, 2)
    assert kept == [i in expected for i in range(n)]
    assert queued_at(bus) == expected
    got = drain(bus, 3)
    assert sorted(d.payload for d in got) == sorted(expected)
    assert set(expected.values()) == {0, 1, 2}


def test_drop_determinism():
    def run(seed):
        bus = make_bus(drop_prob=0.5, seed=seed)
        bus.subscribe("b", "t")
        results = [bus.publish("a", "t", i) for i in range(30)]
        return results

    assert run(7) == run(7)
    assert run(7) != run(8)
    assert not all(run(7))
    assert any(run(7))


def test_partition_blocks_and_heals():
    bus = make_bus()
    bus.subscribe("b", "t")
    bus.subscribe("c", "t")
    bus.set_partition([["a", "b"]])
    bus.publish("a", "t", 1)  # c is in the implicit rest group
    got = drain(bus, 2)
    assert [(d.recipient, d.payload) for d in got] == [("b", 1)]
    bus.set_partition([])
    bus.publish("a", "t", 2)
    got = drain(bus, 2)
    assert sorted(d.recipient for d in got) == ["b", "c"]


def test_partition_groups_must_be_disjoint():
    bus = make_bus()
    with pytest.raises(PartitionConfigError):
        bus.set_partition([["a", "b"], ["b", "c"]])


def test_unknown_sender_raises():
    bus = make_bus()
    with pytest.raises(UnknownSenderError):
        bus.publish("ghost", "t", None)


def test_bus_config_validation():
    with pytest.raises(ValueError):
        BusConfig(drop_prob=1.5)
    with pytest.raises(ValueError):
        BusConfig(delay_steps=-1)
    with pytest.raises(ValueError):
        BusConfig(delay_steps=(3, 1))


def test_delivery_order_is_canonical():
    # same step: ordered by sender then topic then seq, not publish order
    bus = make_bus()
    bus.subscribe("c", "t1")
    bus.subscribe("c", "t2")
    bus.publish("b", "t1", "from-b")
    bus.publish("a", "t2", "from-a")
    got = flatten(bus.step_deliver())
    assert [d.sender for d in got] == ["a", "b"]


def test_state_fan_out_is_one_queue_entry_per_publish():
    # One zone of n agents, each publishing its state once: n queue entries,
    # n*(n-1) deliveries.
    n = 20
    bus = Bus(BusConfig(), 1)
    topic = zone_topic((0, 0), "db_update")
    agents = [f"a{i:02d}" for i in range(n)]
    for a in agents:
        bus.register(a)
        bus.subscribe(a, topic)
    for a in agents:
        bus.publish(a, topic, {"kind": "state"})
    assert bus.pending() == n
    got = flatten(bus.step_deliver())
    assert len(got) == n * (n - 1)
    assert bus.pending() == 0


class ReferenceBus:
    """One queue entry per (publish, recipient): the order the bus must keep."""

    def __init__(self, config, seed):
        self.config = config
        self.now = 0
        self._rng = random.Random(derive_seed(seed, "bus"))
        self._subs = {}
        self._queue = []
        self._seq = {}
        self._last_deliver_at = {}
        self._group = {}
        self.published = {}  # publishes not dropped, per topic

    def subscribe(self, agent, topic):
        self._subs.setdefault(topic, set()).add(agent)

    def unsubscribe(self, agent, topic):
        self._subs.get(topic, set()).discard(agent)

    def set_partition(self, groups):
        self._group = {a: idx for idx, g in enumerate(groups) for a in g}

    def publish(self, sender, topic, payload):
        if self.config.drop_prob > 0 and self._rng.random() < self.config.drop_prob:
            return False
        self.published[topic] = self.published.get(topic, 0) + 1
        key = (sender, topic)
        seq = self._seq.get(key, 0) + 1
        self._seq[key] = seq
        d = self.config.delay_steps
        delay = d if isinstance(d, int) else self._rng.randint(d[0], d[1])
        deliver_at = max(self.now + delay, self._last_deliver_at.get(key, 0))
        self._last_deliver_at[key] = deliver_at
        for sub in sorted(self._subs.get(topic, ())):
            if sub != sender and self._group.get(sub, -1) == self._group.get(sender, -1):
                heapq.heappush(self._queue, (deliver_at, sender, topic, seq, sub, payload))
        return True

    def pending(self):
        return len(self._queue)

    def step_deliver(self):
        self.now += 1
        out = []
        while self._queue and self._queue[0][0] <= self.now:
            _, sender, topic, seq, recipient, payload = heapq.heappop(self._queue)
            out.append(Delivery(recipient, sender, topic, seq, payload))
        return out


ACTORS = ("a", "b", "c", "d", "super")
TOPICS = ("t", "u", zone_topic((0, 1), "db_update"))

bus_ops = st.one_of(
    st.tuples(st.sampled_from(["sub", "unsub", "pub"]),
              st.sampled_from(ACTORS), st.sampled_from(TOPICS)),
    # Each actor's partition group: -1 is the implicit rest group.
    st.tuples(st.just("part"),
              st.lists(st.sampled_from([-1, 0, 1]), min_size=len(ACTORS),
                       max_size=len(ACTORS))),
    st.tuples(st.just("heal")),
    st.tuples(st.just("step")),
)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16),
       drop_prob=st.sampled_from([0.0, 0.2, 0.5]),
       delay=st.one_of(st.integers(0, 2),
                       st.tuples(st.integers(0, 2), st.integers(0, 3))
                       .map(lambda d: (d[0], d[0] + d[1]))),
       ops=st.lists(bus_ops, max_size=60))
def test_bus_matches_per_recipient_reference(seed, drop_prob, delay, ops):
    config = BusConfig(drop_prob=drop_prob, delay_steps=delay)
    bus, ref = Bus(config, seed), ReferenceBus(config, seed)
    for actor in ACTORS:
        bus.register(actor)
    for i, op in enumerate(ops):
        if op[0] == "sub":
            bus.subscribe(op[1], op[2])
            ref.subscribe(op[1], op[2])
        elif op[0] == "unsub":
            bus.unsubscribe(op[1], op[2])
            ref.unsubscribe(op[1], op[2])
        elif op[0] == "pub":
            assert bus.publish(op[1], op[2], i) == ref.publish(op[1], op[2], i)
        elif op[0] == "part":
            groups = [[a for a, g in zip(ACTORS, op[1]) if g == idx] for idx in (0, 1)]
            bus.set_partition(groups)
            ref.set_partition(groups)
        elif op[0] == "heal":
            bus.set_partition([])
            ref.set_partition([])
        else:
            assert flatten(bus.step_deliver()) == ref.step_deliver()
        # The bus queues one entry per publish, (sender, topic, seq), on the
        # deliver_at the reference gives it.
        assert bus.pending() == len({entry[1:4] for entry in ref._queue})
        assert ({(t, *entry[:3]) for t, batch in bus._queue.items() for entry in batch}
                == {entry[:4] for entry in ref._queue})
        assert bus.published() == ref.published
    while ref.pending():
        assert flatten(bus.step_deliver()) == ref.step_deliver()
    assert bus.pending() == 0
