"""Table-based consistent hashing with HRW row mapping -- Section 3.4 /
Algorithm 4.

A fixed-size table maps row ``r = hash(k) mod rows`` to a server.  Each
row's server is the HRW winner among ``W`` for that row; a parallel Boolean
table ``TR`` records whether some horizon server would win the row instead,
i.e. whether keys landing on that row are unsafe
(``CH(W, k) != CH(W ∪ H, k)``).

Compared to a plain table-based CH, JET costs exactly one Boolean per row
(the paper's "memory overhead of only a single Boolean flag per row").

:class:`TableHRWHash` keeps numpy-vectorized rows.  State is five row
arrays (winner id + weight, horizon-max id + weight, ``TR``) and one seed
per server; no per-server weight column is stored.  A membership event
recomputes weights only where Algorithm 4 says rows can change: one mix
for the moving server (over the ``TR`` rows alone when it joins a
non-empty ``W``), plus a |W| x owned (or |H| x held) tile for the rows it
gives up -- O(rows + |W|·owned), and memory
independent of |W ∪ H|, which is what the paper's "300 copies per server"
tables need at n=500.  The tests hold it to a loop-based transcription of
Algorithm 4 (``tests/table_hrw_reference.py``).

HRW is resolved strictly by the 64-bit weight; a tie between two servers
on one row has probability ~2^-64 per pair and is ignored.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.ch.base import BackendError, HorizonConsistentHash, Name
from repro.hashing.keyed import server_seed
from repro.hashing.vector import v_fmix64, v_mix2, v_mix2_argmax, v_remainder

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
        self._seeds = np.empty(0, dtype=np.uint64)  # id -> HRW seed
        # Cached backend table (object-array twin of _names); replaced --
        # never mutated -- whenever an id is registered or retired, so
        # downstream translation caches can key on its identity.
        self._names_table: Optional[np.ndarray] = None
        self._working_ids: set = set()
        self._horizon_ids: set = set()
        for name in working:
            self._working_ids.add(self._register(name))
        for name in horizon:
            self._horizon_ids.add(self._register(name))

        # Row state: winning server id (+weight) and horizon max (+owner).
        self._ch, self._ch_w = self._best(self._working_ids, slice(None))
        self._h_id, self._h_w = self._best(self._horizon_ids, slice(None))
        self._tr = np.zeros(rows, dtype=bool)
        self._refresh_tr(slice(None))

    # ---------------------------------------------------------- plumbing
    def _register(self, name: Name) -> int:
        if name in self._ids:
            raise BackendError(f"server {name!r} already present")
        new_id = len(self._names)
        self._names.append(name)
        self._ids[name] = new_id
        self._names_table = None
        self._seeds = np.append(self._seeds, np.uint64(server_seed(name)))
        return new_id

    def _move(self, name: Name, src: set, dst: Optional[set], complaint: str) -> int:
        """Take ``name``'s id out of ``src`` (into ``dst``, if given)."""
        sid = self._ids.get(name)
        if sid is None or sid not in src:
            raise BackendError(f"server {name!r} {complaint}")
        src.discard(sid)
        if dst is not None:
            dst.add(sid)
        return sid

    def _weights_of(self, sid: int) -> np.ndarray:
        """One server's weight on every row (recomputed, never stored)."""
        return v_mix2(int(self._seeds[sid]), self._row_hashes)

    def _best(self, ids: set, rows) -> Tuple[np.ndarray, np.ndarray]:
        """HRW ``(winner id, weight)`` among ``ids`` on ``rows`` (a slice
        or index array); ``(_NO_SERVER, 0)`` when ``ids`` is empty."""
        hashes = self._row_hashes[rows]
        if not ids:
            return (np.full(len(hashes), _NO_SERVER, dtype=np.int32),
                    np.zeros(len(hashes), dtype=np.uint64))
        id_arr = np.fromiter(ids, dtype=np.int32, count=len(ids))
        best, weights = v_mix2_argmax(self._seeds[id_arr], hashes)
        return id_arr[best], weights

    def _refresh_tr(self, rows) -> None:
        """Recompute TR = (max horizon weight beats the winner) on ``rows``."""
        if self._horizon_ids and self._working_ids:
            self._tr[rows] = self._h_w[rows] > self._ch_w[rows]
        else:
            self._tr[rows] = False

    def _leave_horizon_max(self, sid: int) -> np.ndarray:
        """Rebuild the horizon maximum on the rows ``sid`` held it; returns them."""
        held = np.flatnonzero(self._h_id == sid)
        self._h_id[held], self._h_w[held] = self._best(self._horizon_ids, held)
        return held

    def _enter_horizon_max(self, sid: int, w: np.ndarray) -> None:
        """Fold ``sid``'s weights ``w`` into the horizon maximum."""
        beats = np.flatnonzero((w > self._h_w) | (self._h_id == _NO_SERVER))
        self._h_id[beats] = sid
        self._h_w[beats] = w[beats]

    # ------------------------------------------------------------- sets
    @property
    def working(self) -> FrozenSet[Name]:
        return frozenset(self._names[i] for i in self._working_ids)

    @property
    def horizon(self) -> FrozenSet[Name]:
        return frozenset(self._names[i] for i in self._horizon_ids)

    def __len__(self) -> int:
        return len(self._working_ids)

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
        if not self._working_ids:
            raise BackendError("lookup on empty working set")
        rows = v_remainder(keys, self.rows)
        return self._ch.take(rows), self._tr.take(rows)

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
        sid = self._move(name, self._horizon_ids, self._working_ids, "is not in the horizon")
        if len(self._working_ids) > 1:
            # Only TR rows can change winner (elsewhere s, from H, loses),
            # so s's weight is mixed on those rows alone.
            live = np.flatnonzero(self._tr)
            w = v_mix2(int(self._seeds[sid]), self._row_hashes.take(live))
            beats = np.flatnonzero(w > self._ch_w.take(live))
            wins, w = live.take(beats), w.take(beats)
        else:
            wins = live = slice(None)  # no incumbent: every row goes to s
            w = self._weights_of(sid)
        self._ch[wins] = sid
        self._ch_w[wins] = w
        self._leave_horizon_max(sid)
        self._refresh_tr(live)

    def remove_working(self, name: Name) -> None:
        """REMOVEWORKINGSERVER (Algorithm 4 lines 16-21), vectorized."""
        sid = self._move(name, self._working_ids, self._horizon_ids, "is not working")
        owned = np.flatnonzero(self._ch == sid)
        self._ch[owned], self._ch_w[owned] = self._best(self._working_ids, owned)
        self._enter_horizon_max(sid, self._weights_of(sid))
        # Rows s owned are now unsafe w.r.t. its re-addition; others keep
        # their flag (s cannot beat a row it already lost).  With no
        # working server left the flags are meaningless and cleared.
        self._tr[owned] = bool(self._working_ids)

    def add_horizon(self, name: Name) -> None:
        """ADDHORIZONSERVER (Algorithm 4 lines 22-25), vectorized."""
        sid = self._register(name)
        self._horizon_ids.add(sid)
        w = self._weights_of(sid)
        self._enter_horizon_max(sid, w)
        if self._working_ids:
            self._tr |= w > self._ch_w  # flags only rise: where s beats the winner

    def remove_horizon(self, name: Name) -> None:
        """REMOVEHORIZONSERVER (Algorithm 4 lines 26-29), vectorized."""
        sid = self._move(name, self._horizon_ids, None, "is not in the horizon")
        del self._ids[name]
        self._names[sid] = None  # id retired, never reused
        self._names_table = None
        # Flags only drop, and only where s was the horizon maximum.
        self._refresh_tr(self._leave_horizon_max(sid))

