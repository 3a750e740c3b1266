"""Bounded CT table with first-in-first-out eviction.

Ablation alternative to LRU: cheaper bookkeeping (no per-hit recency
update, matching hardware-friendly designs) but evicts purely by insertion
age, so long-lived connections are the first to go -- the worst case for
PCC under memory pressure.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, Tuple

from repro.ct.base import ConnectionTracker, Destination


class FIFOCT(ConnectionTracker):
    """OrderedDict-backed FIFO table with a hard capacity.  Scalar-only:
    eviction order is the exact put interleaving (no ``*_idx`` API)."""

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
        return destination

    def put(self, key: int, destination: Destination) -> None:
        if key in self._table:
            self._table[key] = destination  # refresh value, keep queue slot
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
        return iter(list(self._table.items()))
