"""Bounded CT table with random eviction.

Random replacement is the policy cheap hardware tables (e.g. CAM/SRAM
flow caches) often end up with; it needs no ordering state at all.  Used
as an ablation point against LRU/FIFO.

Eviction candidates are chosen with a dedicated, seeded RNG so simulation
runs stay reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ct.base import ConnectionTracker, Destination


class RandomEvictCT(ConnectionTracker):
    """Hash-table CT that evicts a uniformly random entry when full.

    Keeps a parallel list of keys for O(1) random choice with
    swap-with-last deletion.  Scalar-only: evictions draw from the RNG
    in put order (no ``*_idx`` API).
    """

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__()
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._table: Dict[int, Destination] = {}
        self._keys: List[int] = []
        self._index: Dict[int, int] = {}

    def get(self, key: int) -> Optional[Destination]:
        self.stats.lookups += 1
        destination = self._table.get(key)
        if destination is not None:
            self.stats.hits += 1
        return destination

    def _drop(self, key: int) -> None:
        position = self._index.pop(key)
        last = self._keys.pop()
        if last != key:
            self._keys[position] = last
            self._index[last] = position
        del self._table[key]

    def put(self, key: int, destination: Destination) -> None:
        if key in self._table:
            self._table[key] = destination
            return
        if len(self._table) >= self.capacity:
            victim = self._keys[self._rng.randrange(len(self._keys))]
            self._drop(victim)
            self.stats.evictions += 1
        self._table[key] = destination
        self._index[key] = len(self._keys)
        self._keys.append(key)
        self.stats.inserts += 1
        self._note_size()

    def delete(self, key: int) -> bool:
        if key not in self._table:
            return False
        self._drop(key)
        return True

    def peek(self, key: int) -> Optional[Destination]:
        return self._table.get(key)

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[int]:
        return iter(list(self._keys))

    def items(self) -> Iterator[Tuple[int, Destination]]:
        return iter(list(self._table.items()))
