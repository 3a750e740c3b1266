"""The non-consistent mod-N strawman from Section 2.4.

``s = hash(k) mod N`` over the sorted working list.  Any backend change
renumbers almost every key (an expected ``1 - 1/N`` unsafe fraction), which
is exactly why JET requires a *consistent* hash.  We keep it as a baseline
for the theory experiments that quantify that fraction.

Note: mod-N violates Property 1 (the result of adding the horizon depends on
how many servers are added, and intermediate prefixes disagree), so its
``lookup_with_safety`` is *conservative*: it reports unsafe whenever any
prefix of horizon additions could move the key, which for mod-N we
approximate by comparing against every union size ``|W|+1 .. |W|+|H|``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Tuple

import numpy as np

from repro.ch.base import BackendError, HorizonConsistentHash, Name
from repro.hashing.keyed import server_seed
from repro.hashing.vector import v_remainder


class ModuloHash(HorizonConsistentHash):
    """``hash(k) mod N`` over a canonically ordered server list."""

    def __init__(self, working: Iterable[Name] = (), horizon: Iterable[Name] = ()):
        self._working: List[Name] = sorted(working, key=server_seed)
        self._horizon: List[Name] = sorted(horizon, key=server_seed)
        # Cached backend table (sorted working list); replaced on any
        # working-set mutation so translation caches can key on identity.
        self._names_table = None

    @property
    def working(self) -> FrozenSet[Name]:
        return frozenset(self._working)

    @property
    def horizon(self) -> FrozenSet[Name]:
        return frozenset(self._horizon)

    def lookup(self, key_hash: int) -> Name:
        if not self._working:
            raise BackendError("lookup on empty working set")
        return self._working[key_hash % len(self._working)]

    def lookup_with_safety(self, key_hash: int) -> Tuple[Name, bool]:
        destination = self.lookup(key_hash)
        n = len(self._working)
        # Conservative: unsafe if any number of horizon admissions could
        # change the index (for mod-N that is almost always).
        unsafe = any(
            key_hash % (n + extra) != key_hash % n
            for extra in range(1, len(self._horizon) + 1)
        )
        return destination, unsafe

    def lookup_with_safety_batch_idx(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized mod-N: one modulo per union size, all-integer."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int32), np.zeros(0, dtype=bool)
        n = len(self._working)
        if n == 0:
            raise BackendError("lookup on empty working set")
        indices = v_remainder(keys, n)
        unsafe = np.zeros(len(keys), dtype=bool)
        for extra in range(1, len(self._horizon) + 1):
            unsafe |= v_remainder(keys, n + extra) != indices
        return indices.astype(np.int32), unsafe

    def backend_table(self) -> np.ndarray:
        """The canonically sorted working list as an object array."""
        if self._names_table is None:
            table = np.empty(len(self._working), dtype=object)
            table[:] = self._working
            self._names_table = table
        return self._names_table

    def lookup_union(self, key_hash: int) -> Name:
        servers = sorted(self._working + self._horizon, key=server_seed)
        if not servers:
            raise BackendError("lookup on empty server set")
        return servers[key_hash % len(servers)]

    def add_working(self, name: Name) -> None:
        if name not in self._horizon:
            raise BackendError(f"server {name!r} is not in the horizon")
        self._horizon.remove(name)
        self._working.append(name)
        self._working.sort(key=server_seed)
        self._names_table = None

    def remove_working(self, name: Name) -> None:
        if name not in self._working:
            raise BackendError(f"server {name!r} is not working")
        self._working.remove(name)
        self._horizon.append(name)
        self._horizon.sort(key=server_seed)
        self._names_table = None

    def add_horizon(self, name: Name) -> None:
        if name in self._working or name in self._horizon:
            raise BackendError(f"server {name!r} already present")
        self._horizon.append(name)
        self._horizon.sort(key=server_seed)

    def remove_horizon(self, name: Name) -> None:
        if name not in self._horizon:
            raise BackendError(f"server {name!r} is not in the horizon")
        self._horizon.remove(name)
