"""Connection-tracking (CT) table interfaces.

The CT module of Algorithm 1: ``CT[k]`` stores the chosen destination of a
tracked connection; ``NIL`` (None here) means untracked, evicted, or
destination-removed.  Real LBs bound the table and *evict* under pressure
(Section 5: "the eviction policy attempts to limit the CT table size by
heuristically evicting ... if these connections are still alive, it may
cause PCC violations").  :mod:`repro.ct.table` is that table (the paper's
LRU policy; FIFO, random and idle-timeout eviction as ablations);
:mod:`repro.ct.unbounded` lets it "grow as needed", as Tables 1-2 do.

All tables key on the pre-hashed 64-bit connection identifier, matching how
the CH modules consume keys.

The interface is scalar (``get`` / ``put`` / ``delete`` per packet, the
executable spec) and the ordered table offers nothing else; the unbounded
table adds the integer-index API of the columnar dataplane
(``get_batch_idx`` / ``put_batch_idx``), flagged by ``batch_reorder_safe``.
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
    def miss_heavy(self) -> bool:
        """Most lookups so far missed (``2·hits < lookups``), or none was
        made yet -- a table never probed answers its first probe from
        nothing: the regime that picks the columnar dispatch order."""
        return 2 * self.hits < self.lookups or not self.lookups


def count_distinct(values: np.ndarray) -> int:
    """Number of distinct values, by one sort (``np.unique`` on a
    7k-key insert batch costs ~20x this under numpy 2.x)."""
    ordered = np.sort(values)
    return len(ordered) - int(np.count_nonzero(ordered[1:] == ordered[:-1]))


class ConnectionTracker(ABC):
    """A destination cache keyed by connection identifier hash."""

    #: True when the table offers the integer-index API (``remap_values``
    #: / ``get_batch_idx`` / ``put_batch_idx``), whose batched calls
    #: regroup per-key operations (all gets, then all puts).  Only a table
    #: with no recency or eviction state can promise that changes no
    #: future behaviour, so only UnboundedCT sets it; bounded tables keep
    #: it False and balancers over them keep the exact scalar interleaving.
    batch_reorder_safe = False

    def __init__(self) -> None:
        self.stats = CTStats()

    @abstractmethod
    def get(self, key: int) -> Optional[Destination]:
        """Return the tracked destination, or None if untracked."""

    @abstractmethod
    def put(self, key: int, destination: Destination) -> None:
        """Track ``key``'s destination, evicting if the table is full."""

    @abstractmethod
    def delete(self, key: int) -> bool:
        """Forget ``key``; True if it was tracked."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of tracked connections."""

    def __iter__(self) -> Iterator[int]:
        """Iterate over tracked keys (no particular order guaranteed)."""
        return (key for key, _ in self.items())

    @abstractmethod
    def items(self) -> Iterator[Tuple[int, Destination]]:
        """Iterate ``(key, destination)`` pairs in one table scan, without
        touching stats or recency state (what makes active cleanup cheap)."""

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
