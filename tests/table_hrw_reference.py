"""Loop-based transcription of Algorithm 4 (table-based HRW), the
reference ``TableHRWHash`` is held to in the tests.

It has no integer-index kernel and no ``backend_table``: only the scalar
Algorithm 4, row by row, server by server.
"""

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.ch.base import BackendError, HorizonConsistentHash, Name
from repro.ch.table_hrw import _ROW_SALT
from repro.hashing.keyed import KeyedHasher
from repro.hashing.mix import fmix64, mix2


class ScalarTableHRW(HorizonConsistentHash):
    """Loop-based reference transcription of Algorithm 4."""

    def __init__(
        self,
        working: Iterable[Name] = (),
        horizon: Iterable[Name] = (),
        rows: int = 101,
    ):
        if rows < 1:
            raise ValueError("rows must be >= 1")
        self.rows = rows
        self._row_hashes = [fmix64(r ^ _ROW_SALT) for r in range(rows)]
        self._working: Dict[Name, KeyedHasher] = {}
        self._horizon: Dict[Name, KeyedHasher] = {}
        self._ch: List[Optional[Name]] = [None] * rows
        self._tr: List[bool] = [False] * rows
        for name in working:
            self._insert_working(name)
        for name in horizon:
            self.add_horizon(name)

    @property
    def working(self) -> FrozenSet[Name]:
        return frozenset(self._working)

    @property
    def horizon(self) -> FrozenSet[Name]:
        return frozenset(self._horizon)

    def _weight(self, hasher: KeyedHasher, row: int) -> int:
        return mix2(hasher.seed, self._row_hashes[row])

    def _row_argmax(self, row: int) -> Optional[Name]:
        best_name, best_weight = None, -1
        for name, hasher in self._working.items():
            w = self._weight(hasher, row)
            if w > best_weight:
                best_name, best_weight = name, w
        return best_name

    def _horizon_beats(self, row: int, weight: int) -> bool:
        return any(self._weight(h, row) > weight for h in self._horizon.values())

    def lookup_with_safety(self, key_hash: int) -> Tuple[Name, bool]:
        row = key_hash % self.rows
        destination = self._ch[row]
        if destination is None:
            raise BackendError("lookup on empty working set")
        return destination, self._tr[row]

    def lookup_union(self, key_hash: int) -> Name:
        row = key_hash % self.rows
        best_name, best_weight = None, -1
        for side in (self._working, self._horizon):
            for name, hasher in side.items():
                w = self._weight(hasher, row)
                if w > best_weight:
                    best_name, best_weight = name, w
        if best_name is None:
            raise BackendError("lookup on empty server set")
        return best_name

    def _check_new(self, name: Name) -> None:
        if name in self._working or name in self._horizon:
            raise BackendError(f"server {name!r} already present")

    def _insert_working(self, name: Name) -> None:
        self._check_new(name)
        hasher = KeyedHasher(name)
        self._working[name] = hasher
        for row in range(self.rows):
            incumbent = self._ch[row]
            if incumbent is None or self._weight(hasher, row) > self._weight(
                self._working[incumbent], row
            ):
                self._ch[row] = name

    def add_working(self, name: Name) -> None:
        hasher = self._horizon.pop(name, None)
        if hasher is None:
            raise BackendError(f"server {name!r} is not in the horizon")
        self._working[name] = hasher
        for row in range(self.rows):
            incumbent = self._ch[row]
            if incumbent is not None and not self._tr[row]:
                continue  # only TR rows -- or rows with no incumbent -- can change
            w_new = self._weight(hasher, row)
            if incumbent is None or w_new > self._weight(self._working[incumbent], row):
                self._ch[row] = name
                winner_weight = w_new
            else:
                winner_weight = self._weight(self._working[incumbent], row)
            self._tr[row] = self._horizon_beats(row, winner_weight)

    def remove_working(self, name: Name) -> None:
        hasher = self._working.pop(name, None)
        if hasher is None:
            raise BackendError(f"server {name!r} is not working")
        self._horizon[name] = hasher
        for row in range(self.rows):
            if self._ch[row] == name:
                self._ch[row] = self._row_argmax(row)
                self._tr[row] = bool(self._working)

    def add_horizon(self, name: Name) -> None:
        self._check_new(name)
        hasher = KeyedHasher(name)
        self._horizon[name] = hasher
        for row in range(self.rows):
            if self._tr[row]:
                continue
            incumbent = self._ch[row]
            if incumbent is not None and self._weight(hasher, row) > self._weight(
                self._working[incumbent], row
            ):
                self._tr[row] = True

    def remove_horizon(self, name: Name) -> None:
        if self._horizon.pop(name, None) is None:
            raise BackendError(f"server {name!r} is not in the horizon")
        for row in range(self.rows):
            if not self._tr[row]:
                continue
            incumbent = self._ch[row]
            if incumbent is None:
                continue
            self._tr[row] = self._horizon_beats(
                row, self._weight(self._working[incumbent], row)
            )
