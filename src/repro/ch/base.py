"""Consistent-hash interfaces.

Two levels of capability:

- :class:`ConsistentHash` -- the classic interface: a set of *working*
  servers ``W`` and a ``lookup`` mapping key-hashes to members of ``W``.
  This is all a full-CT load balancer needs.

- :class:`HorizonConsistentHash` -- the JET-enabling extension.  It also
  maintains the *horizon* set ``H`` of servers that may be added next
  (Section 2.3 of the paper) and answers the safety question of
  Theorem 4.4 -- "does CH(W, k) equal CH(W ∪ H, k)?" -- via
  :meth:`HorizonConsistentHash.lookup_with_safety`.

Server *names* may be any hashable value; simulations use small ints for
speed, examples use strings like ``"10.0.0.7:443"``.

All lookups take a pre-hashed 64-bit key (see :func:`repro.hashing.hash_key`)
rather than the raw connection identifier, so the (single) identifier hash is
shared between the CH module and the CT table.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Hashable, Mapping, Optional, Tuple

import numpy as np

Name = Hashable


class BackendError(ValueError):
    """Raised on invalid backend mutations (duplicate adds, unknown removes,
    additions that bypass the horizon contract, capacity exhaustion)."""


def capacity_weights(weights: Optional[Mapping[Name, float]]) -> Optional[Dict[Name, float]]:
    """A weighted family's ``weights=`` argument, checked: every weight
    must be positive; names absent from it (or weighing exactly 1.0)
    weigh 1.0, so what is kept is the non-unit entries -- ``None`` when
    there are none, a unit fleet."""
    kept = {}
    for name, weight in (weights or {}).items():
        if not weight > 0:
            raise BackendError(f"server {name!r} needs a positive weight")
        if weight != 1.0:
            kept[name] = weight
    return kept or None


class ConsistentHash(ABC):
    """A consistent hash over a dynamic working set of servers."""

    #: True for a family whose constructor takes ``weights=`` (per-server
    #: capacities); :func:`repro.core.factories.check_stack` reads it.
    takes_weights = False
    #: The capacities such a family was built with (see
    #: :func:`capacity_weights`); ``None`` on a unit fleet.
    weights: Optional[Dict[Name, float]] = None

    @property
    @abstractmethod
    def working(self) -> FrozenSet[Name]:
        """The current working set ``W``."""

    @abstractmethod
    def lookup(self, key_hash: int) -> Name:
        """Return ``CH(W, k)`` for a pre-hashed key.

        Raises :class:`BackendError` if the working set is empty.
        """

    # --------------------------------------------------- index dataplane
    # Every family defines ``backend_table()`` (server names; a new array
    # after any change, never mutated; ``None`` for retired slots) and an
    # integer-index kernel, ``lookup_batch_idx`` (horizon hashes:
    # ``lookup_with_safety_batch_idx``), whose int32 indices into it equal
    # key for key the scalar lookups.

    @abstractmethod
    def add(self, name: Name) -> None:
        """Add a server directly to the working set."""

    @abstractmethod
    def remove(self, name: Name) -> None:
        """Remove a server from the working set."""

    def __len__(self) -> int:
        return len(self.working)

    def __contains__(self, name: Name) -> bool:
        return name in self.working


class HorizonConsistentHash(ConsistentHash):
    """A consistent hash that additionally tracks the horizon set ``H``.

    The contract mirrors Algorithm 1 of the paper:

    - ``add_working(s)`` admits ``s`` from the horizon into ``W``
      (ADDWORKINGSERVER);
    - ``remove_working(s)`` moves ``s`` from ``W`` back into ``H``
      (REMOVEWORKINGSERVER);
    - ``add_horizon`` / ``remove_horizon`` manage ``H`` itself;
    - ``force_add_working(s)`` models an *unanticipated* addition that
      bypasses the horizon.  JET's safety guarantee does not cover it;
      the simulator uses it to reproduce the horizon-too-small PCC
      violations of Fig. 4.
    """

    @property
    @abstractmethod
    def horizon(self) -> FrozenSet[Name]:
        """The current horizon set ``H``."""

    @abstractmethod
    def lookup_with_safety(self, key_hash: int) -> Tuple[Name, bool]:
        """Return ``(CH(W, k), unsafe)``.

        ``unsafe`` is True iff ``CH(W, k) != CH(W ∪ H, k)``, i.e. the
        connection must be tracked to survive future horizon additions
        (Theorem 4.4).
        """

    @abstractmethod
    def add_working(self, name: Name) -> None:
        """Move ``name`` from the horizon into the working set."""

    @abstractmethod
    def remove_working(self, name: Name) -> None:
        """Move ``name`` from the working set into the horizon."""

    @abstractmethod
    def add_horizon(self, name: Name) -> None:
        """Introduce a new server identity into the horizon."""

    @abstractmethod
    def remove_horizon(self, name: Name) -> None:
        """Permanently retire a horizon server."""

    def force_add_working(self, name: Name) -> None:
        """Add ``name`` to ``W`` without it having been in the horizon.

        Default implementation routes through the horizon (add + admit),
        which is semantically a zero-warmup addition: connections that
        would have needed tracking were never tracked, so PCC may break.
        """
        self.add_horizon(name)
        self.add_working(name)

    # -- ConsistentHash plain mutators, expressed via the horizon API ----
    def add(self, name: Name) -> None:
        self.force_add_working(name)

    def remove(self, name: Name) -> None:
        self.remove_working(name)
        self.remove_horizon(name)

    def lookup(self, key_hash: int) -> Name:
        destination, _ = self.lookup_with_safety(key_hash)
        return destination

    def lookup_batch_idx(self, keys: np.ndarray) -> np.ndarray:
        indices, _ = self.lookup_with_safety_batch_idx(keys)
        return indices

    def lookup_union(self, key_hash: int) -> Name:
        """Return ``CH(W ∪ H, k)``: the destination after the whole horizon
        joins, in the canonical order.  Reference implementation used by
        property tests; subclasses may override with a faster version."""
        raise NotImplementedError

