"""Connection-tracking (CT) table interfaces.

The CT module of Algorithm 1: ``CT[k]`` stores the chosen destination of a
tracked connection; ``NIL`` (None here) means untracked, evicted, or
destination-removed.  Real LBs bound the table and *evict* under pressure
(Section 5: "the eviction policy attempts to limit the CT table size by
heuristically evicting ... if these connections are still alive, it may
cause PCC violations").  We provide the paper's LRU policy plus FIFO and
random eviction for ablations, and an unbounded table for the trace
evaluations (Tables 1-2 let the CT "grow as needed").

All tables key on the pre-hashed 64-bit connection identifier, matching how
the CH modules consume keys.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Iterator, Optional, Tuple

import numpy as np

Destination = Hashable

#: Heap bytes of one boxed 64-bit connection key (``sys.getsizeof(2**63)``).
_BOXED_KEY_BYTES = 36


@dataclass
class CTStats:
    """Counters a CT table maintains for evaluation.

    These plain ints are the *hot-loop* counters: the observability layer
    (:mod:`repro.obs`) never instruments per-packet paths directly but
    scrapes this object at snapshot boundaries (``repro_ct_*`` series,
    with ``peak_size`` surfaced as the occupancy high-water mark in
    ``SimResult.ct_peak_size`` / ``ReplayResult.ct_peak_size``).
    """

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0
    peak_size: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def count_distinct(values: np.ndarray) -> int:
    """Number of distinct values, by one sort (``np.unique`` on a
    7k-key insert batch costs ~20x this under numpy 2.x)."""
    ordered = np.sort(values)
    return len(ordered) - int(np.count_nonzero(ordered[1:] == ordered[:-1]))


def credit_repeat_hits(ct: "ConnectionTracker", inserted_keys: np.ndarray) -> None:
    """Credit within-chunk repeats of just-inserted keys as CT hits.

    The batched dataplane probes a whole chunk before inserting its
    misses, so packets of a flow that entered the table earlier *in the
    same chunk* probe as misses -- where the scalar spec (get, then put,
    per packet) counts them as hits.  Crediting ``occurrences - unique``
    of the insert batch here makes hit totals chunk-size-invariant and
    equal to the scalar loop.  Exact only because batch paths are gated
    on ``batch_reorder_safe`` (unbounded tables): nothing can evict a
    just-inserted key before its same-chunk repeats.
    """
    repeats = len(inserted_keys) - count_distinct(inserted_keys)
    if repeats:
        ct.stats.hits += repeats


class ConnectionTracker(ABC):
    """A destination cache keyed by connection identifier hash."""

    #: True when batched get/put may regroup per-key operations (all gets,
    #: then all puts) without changing future behaviour.  Only tables with
    #: no recency or eviction state can promise this; bounded tables keep
    #: it False so the batch dataplane falls back to the exact scalar
    #: interleaving and eviction order is preserved.
    batch_reorder_safe = False

    def __init__(self) -> None:
        self.stats = CTStats()

    @abstractmethod
    def get(self, key: int) -> Optional[Destination]:
        """Return the tracked destination, or None if untracked."""

    @abstractmethod
    def put(self, key: int, destination: Destination) -> None:
        """Track ``key``'s destination, evicting if the table is full."""

    def get_batch(self, keys: np.ndarray) -> np.ndarray:
        """Tracked destinations for a uint64 key array (None per miss).

        Semantically ``[get(k) for k in keys]`` -- stats totals included;
        this default is that loop.  Dict-backed tables override it to
        shed the per-call method and stats overhead.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.empty(len(keys), dtype=object)
        for i, k in enumerate(keys.tolist()):
            out[i] = self.get(k)
        return out

    def put_batch(self, keys: np.ndarray, destinations: np.ndarray) -> None:
        """Track every ``(key, destination)`` pair, in array order.

        Semantically ``for k, d in zip(keys, destinations): put(k, d)``;
        the default loop keeps eviction order byte-identical to the
        scalar path on bounded tables.
        """
        for k, d in zip(np.asarray(keys, dtype=np.uint64).tolist(), destinations):
            self.put(k, d)

    # ------------------------------------------------- integer-index mode
    # The columnar dataplane stores destinations as small ints (LB-local
    # backend ids, see repro.core.indexing) instead of names.  A balancer
    # switches a table to index mode by remapping the stored values once
    # (:meth:`remap_values`); from then on the ``*_idx`` entry points
    # move int32 arrays with -1 as the miss sentinel and no per-entry
    # Python objects.  These defaults are the scalar spec; vectorized
    # tables (UnboundedCT's open-addressing arrays) override them.

    def get_batch_idx(self, keys: np.ndarray) -> np.ndarray:
        """Tracked destination *ids* for a uint64 key array (-1 per miss).

        Semantically ``[get(k) for k in keys]`` with ``None -> -1``, for a
        table whose stored values are ints; stats totals included.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.full(len(keys), -1, dtype=np.int32)
        for i, k in enumerate(keys.tolist()):
            destination = self.get(k)
            if destination is not None:
                out[i] = destination
        return out

    def put_batch_idx(self, keys: np.ndarray, ids: np.ndarray) -> None:
        """Track every ``(key, id)`` pair, in array order (int values)."""
        for k, ident in zip(
            np.asarray(keys, dtype=np.uint64).tolist(),
            np.asarray(ids).tolist(),
        ):
            self.put(k, ident)

    def remap_values(self, fn) -> None:
        """Re-encode every stored destination through ``fn`` in place.

        Used exactly once per table when a balancer's columnar path first
        engages (name -> backend id).  Stats, recency order, and the key
        set are untouched.  The default rewrites the ``_table`` dict the
        bounded tables in this package keep; UnboundedCT overrides it to
        move its entries out of the dict into its arrays.
        """
        table = getattr(self, "_table", None)
        if table is None:
            raise NotImplementedError(
                f"{type(self).__name__} does not support value remapping"
            )
        for key in table:
            table[key] = fn(table[key])

    @abstractmethod
    def delete(self, key: int) -> bool:
        """Forget ``key``; True if it was tracked."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of tracked connections."""

    @abstractmethod
    def __iter__(self) -> Iterator[int]:
        """Iterate over tracked keys (no particular order guaranteed)."""

    def items(self) -> Iterator[Tuple[int, Destination]]:
        """Iterate ``(key, destination)`` pairs without touching stats or
        recency state.

        The default composes :meth:`__iter__` with :meth:`peek` (one
        method call per entry); dict-backed tables override it with a
        single table scan, which is what makes active cleanup cheap.
        """
        for key in self:
            yield key, self.peek(key)

    def invalidate_destination(self, destination: Destination) -> int:
        """Drop every entry pointing at ``destination``.

        Footnote 3 of the paper: when a working server is removed, all of
        its connections are inevitably broken and the table "can be cleaned
        from such connections (in an active or a lazy manner)".  This is the
        active variant -- one :meth:`items` scan; returns the number of
        entries dropped.
        """
        victims = [key for key, dest in self.items() if dest == destination]
        for key in victims:
            self.delete(key)
        self.stats.invalidations += len(victims)
        return len(victims)

    @abstractmethod
    def peek(self, key: int) -> Optional[Destination]:
        """Like :meth:`get` but without touching stats or recency state."""

    @property
    def nbytes(self) -> int:
        """Heap bytes the store holds, read in O(1).

        For a dict-backed table: the container (its slots already hold
        the key and value references) plus one boxed key per entry.
        Destinations are shared with the backend set and not counted.
        """
        return sys.getsizeof(getattr(self, "_table", None)) + (
            len(self) * _BOXED_KEY_BYTES
        )

    def _note_size(self) -> None:
        size = len(self)
        if size > self.stats.peak_size:
            self.stats.peak_size = size
