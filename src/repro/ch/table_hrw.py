"""Table-based consistent hashing with HRW row mapping -- Section 3.4 /
Algorithm 4.

A fixed-size table maps row ``r = hash(k) mod rows`` to a server.  Each
row's server is the HRW winner among ``W`` for that row; a parallel Boolean
table ``TR`` records whether some horizon server would win the row instead,
i.e. whether keys landing on that row are unsafe
(``CH(W, k) != CH(W ∪ H, k)``).

Compared to a plain table-based CH, JET costs exactly one Boolean per row
(the paper's "memory overhead of only a single Boolean flag per row").

Two implementations:

- :class:`TableHRWHash` -- numpy-vectorized rows; Algorithm 4's update
  rules implemented as masked array operations, plus two cached arrays
  (current winner weight, current max horizon weight) that make every
  update O(rows) vector work.  This is what the paper's "300 copies per
  server" table sizes need at n=500.
- :class:`ScalarTableHRW` -- a direct, loop-based transcription of
  Algorithm 4, kept as the differential-testing reference.

Both resolve HRW strictly by the 64-bit weight; a tie between two servers
on one row has probability ~2^-64 per pair and is ignored.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.ch.base import BackendError, HorizonConsistentHash, Name
from repro.hashing.keyed import KeyedHasher, server_seed
from repro.hashing.mix import fmix64, mix2
from repro.hashing.vector import v_fmix64, v_mix2

DEFAULT_ROWS = 4099  # prime, though any size >= 1 works for this scheme
_ROW_SALT = 0xA076_1D64_78BD_642F
_NO_SERVER = -1


def rows_for(n_servers: int, copies: int = 300) -> int:
    """The paper's sizing rule: ``copies`` table rows per backend server."""
    return max(1, n_servers * copies)


class TableHRWHash(HorizonConsistentHash):
    """Vectorized table-based HRW with per-row unsafe flags (Algorithm 4)."""

    def __init__(
        self,
        working: Iterable[Name] = (),
        horizon: Iterable[Name] = (),
        rows: int = DEFAULT_ROWS,
    ):
        if rows < 1:
            raise ValueError("rows must be >= 1")
        self.rows = rows
        row_ids = np.arange(rows, dtype=np.uint64) ^ np.uint64(_ROW_SALT)
        self._row_hashes = v_fmix64(row_ids)

        self._names: List[Name] = []           # id -> name (never reused)
        self._ids: Dict[Name, int] = {}        # name -> id
        # Cached backend table (object-array twin of _names); replaced --
        # never mutated -- whenever an id is registered or retired, so
        # downstream translation caches can key on its identity.
        self._names_table: Optional[np.ndarray] = None
        self._weights: Dict[int, np.ndarray] = {}  # id -> per-row weights
        self._working_ids: set = set()
        self._horizon_ids: set = set()

        # Row state: winning server id (+weight) and horizon max (+owner).
        self._ch = np.full(rows, _NO_SERVER, dtype=np.int64)
        self._ch_w = np.zeros(rows, dtype=np.uint64)
        self._h_id = np.full(rows, _NO_SERVER, dtype=np.int64)
        self._h_w = np.zeros(rows, dtype=np.uint64)
        self._tr = np.zeros(rows, dtype=bool)

        for name in working:
            self._insert(name, working=True)
        for name in horizon:
            self._insert(name, working=False)

    # ---------------------------------------------------------- plumbing
    def _register(self, name: Name) -> int:
        if name in self._ids:
            raise BackendError(f"server {name!r} already present")
        new_id = len(self._names)
        self._names.append(name)
        self._ids[name] = new_id
        self._names_table = None
        self._weights[new_id] = v_mix2(server_seed(name), self._row_hashes)
        return new_id

    def _insert(self, name: Name, working: bool) -> None:
        new_id = self._register(name)
        w = self._weights[new_id]
        if working:
            wins = (w > self._ch_w) | (self._ch == _NO_SERVER)
            self._ch[wins] = new_id
            self._ch_w[wins] = w[wins]
            self._working_ids.add(new_id)
        else:
            beats = (w > self._h_w) | (self._h_id == _NO_SERVER)
            self._h_id[beats] = new_id
            self._h_w[beats] = w[beats]
            self._horizon_ids.add(new_id)
        self._refresh_tr()

    def _refresh_tr(self, mask: Optional[np.ndarray] = None) -> None:
        """Recompute TR = (max horizon weight beats the winner)."""
        if not self._horizon_ids or not self._working_ids:
            tr = np.zeros(self.rows, dtype=bool)
            if mask is None:
                self._tr = tr
            else:
                self._tr[mask] = False
            return
        if mask is None:
            self._tr = self._h_w > self._ch_w
        else:
            self._tr[mask] = self._h_w[mask] > self._ch_w[mask]

    def _recompute_horizon_max(self, mask: np.ndarray) -> None:
        """Rebuild the per-row horizon maximum on the masked rows."""
        self._h_w[mask] = 0
        self._h_id[mask] = _NO_SERVER
        for hid in self._horizon_ids:
            w = self._weights[hid]
            beats = mask & (w > self._h_w)
            self._h_id[beats] = hid
            self._h_w[beats] = w[beats]

    def _recompute_winner(self, mask: np.ndarray) -> None:
        """Rebuild the per-row working winner on the masked rows."""
        self._ch_w[mask] = 0
        self._ch[mask] = _NO_SERVER
        for wid in self._working_ids:
            w = self._weights[wid]
            beats = mask & ((w > self._ch_w) | (self._ch == _NO_SERVER))
            self._ch[beats] = wid
            self._ch_w[beats] = w[beats]

    # ------------------------------------------------------------- sets
    @property
    def working(self) -> FrozenSet[Name]:
        return frozenset(self._names[i] for i in self._working_ids)

    @property
    def horizon(self) -> FrozenSet[Name]:
        return frozenset(self._names[i] for i in self._horizon_ids)

    # ----------------------------------------------------------- lookup
    def lookup_with_safety(self, key_hash: int) -> Tuple[Name, bool]:
        row = key_hash % self.rows
        winner = self._ch[row]
        if winner == _NO_SERVER:
            raise BackendError("lookup on empty working set")
        return self._names[winner], bool(self._tr[row])

    def lookup_with_safety_batch_idx(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized Algorithm 4 lookup: two indexed gathers per batch,
        all-integer (winner ids index :meth:`backend_table`)."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int32), np.zeros(0, dtype=bool)
        rows = (keys % np.uint64(self.rows)).astype(np.intp)
        winners = self._ch[rows]
        if not self._working_ids:
            raise BackendError("lookup on empty working set")
        return winners.astype(np.int32), self._tr[rows].copy()

    def backend_table(self) -> np.ndarray:
        """Id -> name object array (retired ids hold None, never looked up)."""
        if self._names_table is None:
            table = np.empty(len(self._names), dtype=object)
            table[:] = self._names
            self._names_table = table
        return self._names_table

    def lookup_union(self, key_hash: int) -> Name:
        row = key_hash % self.rows
        if self._ch[row] != _NO_SERVER and not self._tr[row]:
            return self._names[self._ch[row]]
        candidate = self._h_id[row] if self._h_id[row] != _NO_SERVER else self._ch[row]
        if candidate == _NO_SERVER:
            raise BackendError("lookup on empty server set")
        return self._names[candidate]

    def tracked_row_fraction(self) -> float:
        """Fraction of rows flagged unsafe (diagnostic; ~|H|/|W ∪ H|)."""
        return float(self._tr.mean())

    # --------------------------------------------------------- mutation
    def add_working(self, name: Name) -> None:
        """ADDWORKINGSERVER (Algorithm 4 lines 9-15), vectorized."""
        sid = self._ids.get(name)
        if sid is None or sid not in self._horizon_ids:
            raise BackendError(f"server {name!r} is not in the horizon")
        self._horizon_ids.discard(sid)
        self._working_ids.add(sid)
        w = self._weights[sid]
        # Only TR rows can change winner (elsewhere s, from H, loses).
        wins = self._tr & (w > self._ch_w)
        self._ch[wins] = sid
        self._ch_w[wins] = w[wins]
        # s left the horizon: rebuild horizon max where s held it.
        held = self._h_id == sid
        self._recompute_horizon_max(held)
        self._refresh_tr(self._tr.copy())

    def remove_working(self, name: Name) -> None:
        """REMOVEWORKINGSERVER (Algorithm 4 lines 16-21), vectorized."""
        sid = self._ids.get(name)
        if sid is None or sid not in self._working_ids:
            raise BackendError(f"server {name!r} is not working")
        self._working_ids.discard(sid)
        self._horizon_ids.add(sid)
        owned = self._ch == sid
        self._recompute_winner(owned)
        w = self._weights[sid]
        beats = w > self._h_w
        self._h_id[beats] = sid
        self._h_w[beats] = w[beats]
        # Rows s owned are now unsafe w.r.t. its re-addition; others keep
        # their flag (s cannot beat a row it already lost).
        if self._working_ids:
            self._tr[owned] = True
        else:
            self._tr[:] = False  # no working servers left; flags meaningless

    def add_horizon(self, name: Name) -> None:
        """ADDHORIZONSERVER (Algorithm 4 lines 22-25), vectorized."""
        self._insert(name, working=False)

    def remove_horizon(self, name: Name) -> None:
        """REMOVEHORIZONSERVER (Algorithm 4 lines 26-29), vectorized."""
        sid = self._ids.get(name)
        if sid is None or sid not in self._horizon_ids:
            raise BackendError(f"server {name!r} is not in the horizon")
        self._horizon_ids.discard(sid)
        del self._ids[name]
        del self._weights[sid]
        self._names[sid] = None  # id retired, never reused
        self._names_table = None
        held = self._h_id == sid
        self._recompute_horizon_max(held)
        self._refresh_tr(self._tr.copy())


class ScalarTableHRW(HorizonConsistentHash):
    """Loop-based reference transcription of Algorithm 4 (for tests)."""

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
            if not self._tr[row]:
                continue
            incumbent = self._ch[row]
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
