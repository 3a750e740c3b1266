"""Idle-timeout (TTL) CT table.

Section 5: "In an ideal eviction policy, inactive connections should be
removed from the CT."  Real LBs approximate this with an idle timeout
(Maglev/Katran expire flows after a TCP-timeout-scale quiet period).  This
table implements that policy: an entry whose last touch is older than
``ttl`` is treated as absent and reclaimed lazily.

Time comes from an injectable :class:`Clock` so the event-driven simulator
can drive entries with *simulated* time; the default clock is wall time.

The structure keeps entries in insertion/touch order (an OrderedDict, like
LRU), so expiry scans stop at the first fresh entry -- O(expired) per
operation, O(1) amortized.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Iterator, Optional, Tuple

from repro.ct.base import ConnectionTracker, Destination


class Clock:
    """A mutable time source (the simulator advances ``now`` directly)."""

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class WallClock:
    """Real time, for live use."""

    def __call__(self) -> float:  # pragma: no cover - trivial
        return time.monotonic()


class TTLCT(ConnectionTracker):
    """CT table whose entries expire after ``ttl`` seconds of idleness.

    Optionally also bounded: with ``capacity`` set, the stalest entry is
    evicted when a fresh insert finds the table full (after expiry
    reclamation).  Scalar-only: expiry reads the clock at each get/put
    (no ``*_idx`` API).
    """

    def __init__(self, ttl: float, capacity: Optional[int] = None, clock=None):
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 when set")
        super().__init__()
        self.ttl = ttl
        self.capacity = capacity
        self.clock = clock if clock is not None else WallClock()
        # key -> (destination, last_touch); ordered stalest-first.
        self._table: "OrderedDict[int, Tuple[Destination, float]]" = OrderedDict()
        self.expired = 0

    # ----------------------------------------------------------- expiry
    def _reap(self, now: float) -> None:
        """Drop entries idle longer than ttl (stop at the first fresh one)."""
        horizon = now - self.ttl
        table = self._table
        while table:
            key, (_, touched) = next(iter(table.items()))
            if touched >= horizon:
                break
            del table[key]
            self.expired += 1

    # ------------------------------------------------------------- API
    def get(self, key: int) -> Optional[Destination]:
        now = self.clock()
        self.stats.lookups += 1
        entry = self._table.get(key)
        if entry is None:
            return None
        destination, touched = entry
        if touched < now - self.ttl:
            del self._table[key]
            self.expired += 1
            return None
        self.stats.hits += 1
        self._table[key] = (destination, now)
        self._table.move_to_end(key)
        return destination

    def put(self, key: int, destination: Destination) -> None:
        now = self.clock()
        self._reap(now)
        if key in self._table:
            self._table[key] = (destination, now)
            self._table.move_to_end(key)
            return
        if self.capacity is not None and len(self._table) >= self.capacity:
            self._table.popitem(last=False)  # stalest entry
            self.stats.evictions += 1
        self._table[key] = (destination, now)
        self.stats.inserts += 1
        self._note_size()

    def delete(self, key: int) -> bool:
        return self._table.pop(key, None) is not None

    def peek(self, key: int) -> Optional[Destination]:
        entry = self._table.get(key)
        if entry is None:
            return None
        destination, touched = entry
        if touched < self.clock() - self.ttl:
            return None
        return destination

    def __len__(self) -> int:
        # Expired-but-unreaped entries are not tracked connections.
        self._reap(self.clock())
        return len(self._table)

    def __iter__(self) -> Iterator[int]:
        self._reap(self.clock())
        return iter(list(self._table))

    def items(self) -> Iterator[Tuple[int, Destination]]:
        self._reap(self.clock())
        return iter([(k, d) for k, (d, _) in self._table.items()])
