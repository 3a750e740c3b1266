"""Backend id space for the columnar (integer-index) dispatch path.

The columnar dataplane keeps backend *indices* flowing end to end: the CH
batch kernels return indices into their own family-specific backend table
(ring entry owners, anchor buckets, Maglev population order, ...), the CT
stores destinations as integers, and the replay loop does all accounting
on int32 arrays.  Those per-family tables disagree with each other and
change shape under churn, so the load balancer needs one stable, LB-local
id space to store in the CT and account against across backend changes.

:class:`BackendIndexer` provides it:

- ids are **append-only**: a name keeps its id for the balancer's
  lifetime, so CT entries written before a backend change stay valid
  after it (exactly like the name strings they replace);
- a CH-table -> id translation array is cached on the *identity* of the
  CH's ``backend_table()`` (families replace -- never mutate -- their
  table on change, so ``is`` is a sound and O(1) cache key), and a
  kernel's positions become ids through :meth:`BackendIndexer.ids_at`:
  one ``np.take``, or none where the translation is the identity;
- names are materialized only at the metrics/result edge, via
  :attr:`names`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.interfaces import Name


class BackendIndexer:
    """Append-only name <-> int32 id registry with translation caching."""

    __slots__ = ("names", "_ids", "_translation", "_names_arr")

    def __init__(self) -> None:
        #: id -> name; index into this list IS the id.
        self.names: List[Name] = []
        self._ids: Dict[Name, int] = {}
        # (source table object, int32 translation, is it the identity?)
        # -- identity-keyed.
        self._translation: Optional[Tuple[np.ndarray, np.ndarray, bool]] = None
        self._names_arr: Optional[np.ndarray] = None

    def get_id(self, name: Name) -> int:
        """Stable id of ``name``, registering it on first sight."""
        ident = self._ids.get(name)
        if ident is None:
            ident = len(self.names)
            self.names.append(name)
            self._ids[name] = ident
            self._names_arr = None
        return ident

    def translate(self, table: np.ndarray) -> np.ndarray:
        """CH-table-position -> LB-id int32 array for a backend table.

        Cached on the table's identity: while the CH keeps returning the
        same array object (no backend change), the cached translation is
        returned with zero per-call work.  ``None`` table entries (retired
        slots no lookup can resolve to) map to -1.
        """
        return self._cached(table)[1]

    def ids_at(self, table: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Dispatch ids of the int32 CH ``positions`` into ``table``: the
        :meth:`translate` array at ``positions``, gathered by ``np.take``
        (an int32 fancy index takes numpy's slow path, ~3x the cost).

        Where the translation is the identity -- a table listing its names
        in the order this registry first saw them, as every family but
        AnchorHash does until a slot is retired -- ``positions`` itself is
        returned, so the caller must own it."""
        _, translation, identity = self._cached(table)
        return positions if identity else np.take(translation, positions)

    def _cached(self, table: np.ndarray) -> Tuple[np.ndarray, np.ndarray, bool]:
        cached = self._translation
        if cached is not None and cached[0] is table:
            return cached
        get_id = self.get_id
        translation = np.fromiter(
            (-1 if name is None else get_id(name) for name in table.tolist()),
            dtype=np.int32,
            count=len(table),
        )
        identity = bool(np.array_equal(translation, np.arange(len(table))))
        self._translation = (table, translation, identity)
        return self._translation

    def name_array(self) -> np.ndarray:
        """Object-array twin of :attr:`names` (for edge-only name gathers)."""
        if self._names_arr is None or len(self._names_arr) != len(self.names):
            arr = np.empty(len(self.names), dtype=object)
            arr[:] = self.names
            self._names_arr = arr
        return self._names_arr

    def working_mask(self, working: Iterable[Name]) -> np.ndarray:
        """Bool array over ids: True where the id's name is in ``working``.

        Rebuilt per call -- callers cache it between backend changes (the
        replay loop recomputes only after applying an event).
        """
        mask = np.zeros(len(self.names), dtype=bool)
        members = set(working)
        for ident, name in enumerate(self.names):
            if name in members:
                mask[ident] = True
        return mask

    def __len__(self) -> int:
        return len(self.names)
