"""Bounded CT table with least-recently-used eviction.

The paper's evaluation policy (Section 5.1): "we employ the effective
least-recently-used (LRU) policy in which the oldest entries in the table
are removed".  Recency is refreshed on every hit, so long-lived chatty
connections stay tracked while idle ones age out -- at the risk of evicting
a still-alive quiet connection, the source of full-CT's PCC violations in
Fig. 3 when the table is undersized.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, Tuple

from repro.ct.base import ConnectionTracker, Destination


class LRUCT(ConnectionTracker):
    """OrderedDict-backed LRU table with a hard capacity.  Scalar-only:
    recency order is the exact get/put interleaving (no ``*_idx`` API)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__()
        self.capacity = capacity
        self._table: "OrderedDict[int, Destination]" = OrderedDict()

    def get(self, key: int) -> Optional[Destination]:
        self.stats.lookups += 1
        destination = self._table.get(key)
        if destination is not None:
            self.stats.hits += 1
            self._table.move_to_end(key)
        return destination

    def put(self, key: int, destination: Destination) -> None:
        if key in self._table:
            self._table[key] = destination
            self._table.move_to_end(key)
            return
        if len(self._table) >= self.capacity:
            self._table.popitem(last=False)
            self.stats.evictions += 1
        self._table[key] = destination
        self.stats.inserts += 1
        self._note_size()

    def delete(self, key: int) -> bool:
        return self._table.pop(key, None) is not None

    def peek(self, key: int) -> Optional[Destination]:
        return self._table.get(key)

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[int]:
        return iter(list(self._table))

    def items(self) -> Iterator[Tuple[int, Destination]]:
        """Single dict scan; does not disturb LRU recency order."""
        return iter(list(self._table.items()))
