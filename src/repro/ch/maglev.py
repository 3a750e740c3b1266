"""MaglevHash -- the table-based consistent hash of Google's Maglev LB.

Used in the paper (Sections 3.6 and 5) only as a *full-CT baseline*: Maglev's
table population can "flip" rows unrelated to the changed server, so JET
cannot efficiently enumerate unsafe connections for it -- integrating the two
is explicitly left open.  We therefore implement the classic algorithm
(Eisenbud et al., NSDI'16, Section 3.4) without horizon support.

Each backend ``i`` derives a permutation of table rows from two hashes of its
name (``offset``/``skip``); population rounds let each backend claim its next
preferred empty row until the table is full, giving each backend within-1
row counts of each other (up to disruption minimisation after changes).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional

import numpy as np

from repro.ch.base import BackendError, ConsistentHash, Name
from repro.hashing.fnv import fnv1a64
from repro.hashing.keyed import server_seed
from repro.hashing.mix import fmix64
from repro.hashing.vector import v_remainder

DEFAULT_TABLE_SIZE = 4099  # must be prime so every `skip` is a generator


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class MaglevHash(ConsistentHash):
    """Classic Maglev table population over a prime-sized lookup table."""

    def __init__(self, working: Iterable[Name] = (), table_size: int = DEFAULT_TABLE_SIZE):
        if not _is_prime(table_size):
            raise ValueError(f"table_size must be prime, got {table_size}")
        self.table_size = table_size
        self._perm_params: Dict[Name, tuple] = {}
        self._table: List[Optional[Name]] = [None] * table_size
        # Batch kernel twins of _table: an int32 row->backend index array
        # over a compact object array of names (see _populate).
        self._table_idx = np.full(table_size, -1, dtype=np.int32)
        self._names_obj = np.empty(0, dtype=object)
        for name in working:
            self._register(name)
        self._populate()

    # ------------------------------------------------------------- sets
    @property
    def working(self) -> FrozenSet[Name]:
        return frozenset(self._perm_params)

    # ----------------------------------------------------------- lookup
    def lookup(self, key_hash: int) -> Name:
        name = self._table[key_hash % self.table_size]
        if name is None:
            raise BackendError("lookup on empty working set")
        return name

    def lookup_batch_idx(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized table walk -- ``table[keys % size]``, the same
        row-gather the Maglev dataplane performs per packet (NSDI'16), so
        the batch path is one fancy-indexed gather for any batch size;
        indices into :meth:`backend_table` (the population's compact name
        array)."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int32)
        if not self._perm_params:
            raise BackendError("lookup on empty working set")
        rows = v_remainder(keys, self.table_size)
        return self._table_idx[rows]

    def backend_table(self) -> np.ndarray:
        """Backend index -> name (replaced wholesale on each repopulation)."""
        return self._names_obj

    def row_counts(self) -> Dict[Name, int]:
        """Rows owned per backend (balance diagnostics)."""
        counts: Dict[Name, int] = {name: 0 for name in self._perm_params}
        for name in self._table:
            if name is not None:
                counts[name] += 1
        return counts

    # --------------------------------------------------------- mutation
    def _register(self, name: Name) -> None:
        if name in self._perm_params:
            raise BackendError(f"server {name!r} already present")
        seed = server_seed(name)
        offset = seed % self.table_size
        alt = fmix64(fnv1a64(repr(name).encode("utf-8"), seed))
        skip = alt % (self.table_size - 1) + 1
        self._perm_params[name] = (offset, skip)

    def add(self, name: Name) -> None:
        self._register(name)
        self._populate()

    def remove(self, name: Name) -> None:
        if self._perm_params.pop(name, None) is None:
            raise BackendError(f"server {name!r} is not working")
        self._populate()

    # --------------------------------------------------------- populate
    def _populate(self) -> None:
        """NSDI'16 population: round-robin preference filling.

        Deterministic in the *set* of backends (iteration ordered by seed)
        so that all LB replicas agree on the table.
        """
        size = self.table_size
        table_idx = np.full(size, -1, dtype=np.int32)
        if not self._perm_params:
            self._table = [None] * size
            self._table_idx = table_idx
            self._names_obj = np.empty(0, dtype=object)
            return
        backends = sorted(self._perm_params.items(), key=lambda kv: server_seed(kv[0]))
        taken = [False] * size
        next_index = [0] * len(backends)
        filled = 0
        while filled < size:
            for i, (name, (offset, skip)) in enumerate(backends):
                j = next_index[i]
                row = (offset + j * skip) % size
                while taken[row]:
                    j += 1
                    row = (offset + j * skip) % size
                taken[row] = True
                table_idx[row] = i
                next_index[i] = j + 1
                filled += 1
                if filled == size:
                    break
        names_obj = np.empty(len(backends), dtype=object)
        names_obj[:] = [name for name, _ in backends]
        self._table_idx = table_idx
        self._names_obj = names_obj
        self._table = names_obj[table_idx].tolist()
