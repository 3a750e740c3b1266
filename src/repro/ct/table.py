"""The scalar CT table: one ordered dict, stalest entry first.

Section 5: real LBs bound the CT and evict under pressure, and "in an
ideal eviction policy, inactive connections should be removed".  Every
policy here is one table read three ways -- a ``capacity`` (None = grow
as needed), an eviction *order* (does a hit refresh the entry's position;
which entry is the victim) and an idle timeout (``ttl`` against an
injectable :class:`Clock`) -- so :class:`OrderedCT` is written once and
the four policy classes below pin its parameters.

Scalar-only (no ``*_idx`` API): eviction order *is* the exact get/put
interleaving, a random eviction draws from its RNG in put order and
expiry reads the clock at each call.  This is the executable spec a
columnar bounded store is to be differentially tested against.
"""

from __future__ import annotations

import random
import time
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ct.base import ConnectionTracker, Destination


class Clock:
    """A mutable time source (the simulator advances ``now`` directly)."""

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class OrderedCT(ConnectionTracker):
    """OrderedDict-backed table, front = next victim = stalest entry."""

    #: True: a hit (and a re-``put``) moves the entry to the fresh end,
    #: so order is recency; False: order is insertion age.
    touch_on_hit = False

    def __init__(self, capacity: Optional[int] = None, ttl: Optional[float] = None, clock=None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive")
        super().__init__()
        self.capacity = capacity
        self.ttl = ttl
        self.clock = clock if clock is not None else time.monotonic  # live use
        self._table: "OrderedDict[int, Destination]" = OrderedDict()
        # key -> last touch, kept only when a ttl is set.  A ttl goes
        # with ``touch_on_hit``: expiry scans stop at the first fresh
        # entry (O(expired) per call), which needs recency order.
        self._touched: Dict[int, float] = {}
        self.expired = 0

    def _victim(self) -> int:
        """The key a full table evicts."""
        return next(iter(self._table))

    def _remember(self, key: int) -> None:
        """Victim-selection state: ``key`` entered the table ..."""

    def _forget(self, key: int) -> None:
        """... and left it."""

    def _touch(self, key: int) -> None:
        """A hit or a put: refresh what the policy keeps per entry."""
        if self.touch_on_hit:
            self._table.move_to_end(key)
        if self.ttl is not None:
            self._touched[key] = self.clock()

    def _stale(self, key: int) -> bool:
        return self.ttl is not None and self._touched[key] < self.clock() - self.ttl

    def _drop(self, key: int) -> None:
        del self._table[key]
        self._touched.pop(key, None)
        self._forget(key)

    def _reap(self) -> None:
        """Reclaim entries idle past the ttl, stalest first."""
        if self.ttl is None:
            return
        while self._table and self._stale(next(iter(self._table))):
            self._drop(next(iter(self._table)))
            self.expired += 1

    def get(self, key: int) -> Optional[Destination]:
        self.stats.lookups += 1
        destination = self._table.get(key)
        if destination is None:
            return None
        if self._stale(key):
            self._drop(key)
            self.expired += 1
            return None
        self.stats.hits += 1
        self._touch(key)
        return destination

    def put(self, key: int, destination: Destination) -> None:
        self._reap()
        if key not in self._table:
            if self.capacity is not None and len(self._table) >= self.capacity:
                self._drop(self._victim())
                self.stats.evictions += 1
            self._remember(key)
            self.stats.inserts += 1
        self._table[key] = destination  # a re-put keeps its slot ...
        self._touch(key)  # ... unless order is recency
        self._note_size()

    def delete(self, key: int) -> bool:
        if key not in self._table:
            return False
        self._drop(key)
        return True

    def peek(self, key: int) -> Optional[Destination]:
        destination = self._table.get(key)
        return None if destination is None or self._stale(key) else destination

    def __len__(self) -> int:
        # Expired-but-unreaped entries are not tracked connections.
        self._reap()
        return len(self._table)

    def items(self) -> Iterator[Tuple[int, Destination]]:
        """Single dict scan; does not disturb the eviction order."""
        self._reap()
        return iter(list(self._table.items()))


class LRUCT(OrderedCT):
    """The paper's policy (Section 5.1, "the effective least-recently-used
    (LRU) policy"): chatty connections stay tracked while idle ones age
    out -- at the risk of evicting a still-alive quiet connection, the
    source of full-CT's PCC violations in Fig. 3."""

    touch_on_hit = True


class FIFOCT(OrderedCT):
    """Ablation: no per-hit bookkeeping (hardware-friendly), so eviction
    is purely by insertion age and long-lived connections are the first
    to go -- the worst case for PCC under memory pressure."""


class TTLCT(OrderedCT):
    """Idle timeout, as Maglev/Katran expire flows after a TCP-timeout-
    scale quiet period: an entry untouched for ``ttl`` seconds is absent
    and reclaimed lazily.  With ``capacity`` set, a full table also
    evicts its stalest entry (after expiry reclamation)."""

    touch_on_hit = True

    def __init__(self, ttl: float, capacity: Optional[int] = None, clock=None):
        super().__init__(capacity, ttl, clock)


class RandomEvictCT(OrderedCT):
    """Ablation: the policy cheap hardware flow caches (CAM/SRAM) end up
    with -- no ordering state.  Victims come from a dedicated seeded RNG
    (reproducible runs) over a key list with swap-with-last deletion."""

    def __init__(self, capacity: Optional[int], seed: int = 0):
        super().__init__(capacity)
        self._rng = random.Random(seed)
        self._keys: List[int] = []
        self._index: Dict[int, int] = {}

    def _victim(self) -> int:
        return self._keys[self._rng.randrange(len(self._keys))]

    def _remember(self, key: int) -> None:
        self._index[key] = len(self._keys)
        self._keys.append(key)

    def _forget(self, key: int) -> None:
        position = self._index.pop(key)
        last = self._keys.pop()
        if last != key:
            self._keys[position] = last
            self._index[last] = position
