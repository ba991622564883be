"""Deterministic simulated publish/subscribe bus.

Replaces a real middleware transport with an in-process queue that supports
named topics, per-message delay, seeded probabilistic drop, and partition
injection. Each publish is one queue entry, a plain tuple (sender, topic, seq,
payload, recipients) with its recipients worked out once at publish time, and
that entry is what a step delivers. Each (sender, topic) keeps one record of
its last seq and deliver_at; that seq also counts the publishes not dropped. A
ranged delay is drawn from `getrandbits` by the rule `random.randint` follows,
so the stream of draws is the same. The queue is one list per delivery step,
sorted once when it falls due, which gives the order a heap over every queued
publish would. Delivery is totally ordered by (deliver_at, sender, topic, seq,
recipient) so identical seeds replay identically.
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterable


def derive_seed(*parts: Any) -> int:
    """Stable cross-process integer seed from arbitrary labeled parts."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def zone_topic(zone_id: tuple[int, int], suffix: str) -> str:
    row, col = zone_id
    return f"zone/{row},{col}/{suffix}"


class UnknownSenderError(KeyError):
    pass


class PartitionConfigError(ValueError):
    pass


@dataclass(frozen=True)
class BusConfig:
    drop_prob: float = 0.0
    delay_steps: int | tuple[int, int] = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must be in [0, 1]")
        d = self.delay_steps
        if isinstance(d, int):
            if d < 0:
                raise ValueError("delay_steps must be >= 0")
        else:
            lo, hi = d
            if lo < 0 or hi < lo:
                raise ValueError("delay range must satisfy 0 <= lo <= hi")


class Bus:
    """Single-owner message bus; mutated only between agent-logic phases."""

    def __init__(self, config: BusConfig, seed: int) -> None:
        self.config = config
        self._drop = config.drop_prob
        self.now = 0
        self._rng = random.Random(derive_seed(seed, "bus"))
        self._registered: set[str] = set()
        self._subs: defaultdict[str, set[str]] = defaultdict(set)
        self._sorted_subs: dict[str, tuple[str, ...]] = {}
        # Per deliver_at: (sender, topic, seq, payload, recipients) of each publish.
        self._queue: defaultdict[int, list[tuple]] = defaultdict(list)
        self._pending = 0
        # Per (sender, topic): [last seq, last deliver_at].
        self._last: dict[tuple[str, str], list[int]] = {}
        self._group: dict[str, int] = {}
        # (lo, n, k): a delay is lo plus a draw below n of k bits; k = 0 is fixed.
        d = config.delay_steps
        if isinstance(d, int):
            self._delay = (d, 1, 0)
        else:
            n = d[1] - d[0] + 1
            self._delay = (d[0], n, n.bit_length())

    def register(self, agent: str) -> None:
        self._registered.add(agent)

    def subscribe(self, agent: str, topic: str) -> None:
        self._subs[topic].add(agent)
        self._sorted_subs.pop(topic, None)

    def unsubscribe(self, agent: str, topic: str) -> None:
        self._subs[topic].discard(agent)
        self._sorted_subs.pop(topic, None)

    def subscribers(self, topic: str) -> tuple[str, ...]:
        subs = self._sorted_subs.get(topic)
        if subs is None:
            subs = self._sorted_subs[topic] = tuple(sorted(self._subs.get(topic, ())))
        return subs

    def set_partition(self, partitions: Iterable[Iterable[str]]) -> None:
        """Replace the active partition map; an empty set heals everything."""
        groups = [frozenset(p) for p in partitions]
        seen: set[str] = set()
        for g in groups:
            if g & seen:
                raise PartitionConfigError("partition groups must be disjoint")
            seen |= g
        self._group = {}
        for idx, g in enumerate(groups):
            for a in g:
                self._group[a] = idx
        # Unlisted actors form the implicit rest group (-1).

    def publish(self, sender: str, topic: str, payload: Any) -> bool:
        """Queue `payload` for every current subscriber other than the sender
        and those a partition cuts off; False if dropped. The drop is drawn
        first, then a ranged delay; one [seq, deliver_at] record per
        (sender, topic) numbers the publish and keeps its delivery FIFO."""
        if sender not in self._registered:
            raise UnknownSenderError(sender)
        drop = self._drop
        if drop > 0 and self._rng.random() < drop:
            return False
        key = (sender, topic)
        last = self._last.get(key)
        if last is None:
            last = self._last[key] = [0, 0]
        seq = last[0] = last[0] + 1
        delay, n, k = self._delay
        if k:
            # randint(lo, hi) draws exactly so: k bits, again while r >= n,
            # so a one-value range still consumes a draw.
            getrandbits = self._rng.getrandbits
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            delay += r
        deliver_at = self.now + delay
        # Clamp so per-(sender, topic) delivery stays FIFO under random delay.
        if deliver_at < last[1]:
            deliver_at = last[1]
        else:
            last[1] = deliver_at
        recipients = self._sorted_subs.get(topic)
        if recipients is None:
            recipients = self.subscribers(topic)
        group = self._group
        if group:
            mine = group.get(sender, -1)
            recipients = tuple(sub for sub in recipients
                               if sub != sender and group.get(sub, -1) == mine)
        elif sender in self._subs.get(topic, ()):
            i = recipients.index(sender)
            recipients = recipients[:i] + recipients[i + 1:]
        if recipients:
            self._queue[deliver_at].append((sender, topic, seq, payload, recipients))
            self._pending += 1
        return True

    def published(self) -> dict[str, int]:
        """Publishes not dropped so far, per topic: each (sender, topic)'s
        last seq, summed over the senders."""
        out: dict[str, int] = {}
        for (_, topic), (seq, _) in self._last.items():
            out[topic] = out.get(topic, 0) + seq
        return out

    def pending(self) -> int:
        """Queued publishes that still have recipients to reach."""
        return self._pending

    def step_deliver(self) -> list[tuple[str, str, int, Any, tuple[str, ...]]]:
        """Advance one step and return every due queue entry, (sender, topic,
        seq, payload, recipients) with the recipients sorted, in canonical order."""
        self.now = now = self.now + 1
        queue = self._queue
        out: list[tuple[str, str, int, Any, tuple[str, ...]]] = []
        # Keys run from the last step to now plus the longest delay, so the
        # scan is short; due lists are taken in deliver_at order.
        for deliver_at in sorted(t for t in queue if t <= now):
            batch = queue.pop(deliver_at)
            # (sender, topic, seq) is unique per publish, so the sort never
            # compares payloads.
            batch.sort()
            out += batch
        self._pending -= len(out)
        return out
