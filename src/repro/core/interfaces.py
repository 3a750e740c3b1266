"""Load-balancer interface shared by JET and the baselines.

A load balancer in this library is the *decision* component of an L4 LB:
it maps the (pre-hashed) connection identifier of each arriving packet to a
backend server, and it is told about backend change events.  The interface
mirrors Algorithm 1's five entry points plus ``force_add_working_server``
(an addition that bypasses the horizon -- see
:meth:`repro.ch.base.HorizonConsistentHash.force_add_working`).

Dispatch has two tiers: scalar :meth:`LoadBalancer.get_destination` (the
executable spec) and int32 columnar
:meth:`LoadBalancer.get_destinations_batch_idx`, for drivers whose one
probe, :attr:`LoadBalancer.columnar_effective`, said yes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import FrozenSet, Hashable

import numpy as np

Name = Hashable


class LoadBalancer(ABC):
    """Per-packet destination chooser with backend-change notifications."""

    @abstractmethod
    def get_destination(self, key_hash: int) -> Name:
        """Destination server for a packet of connection ``key_hash``."""

    # ------------------------------------------------- columnar dispatch
    # The integer-index dataplane: destinations flow as int32 *backend
    # ids* (stable, LB-local, append-only -- see repro.core.indexing) and
    # names are materialized only at the metrics/result edge through
    # :meth:`dispatch_names`.  Drivers must probe
    # :attr:`columnar_effective` first; balancers that answer False keep
    # these methods raising and are served by the scalar path.

    @property
    def columnar_effective(self) -> bool:
        """True iff :meth:`get_destinations_batch_idx` is wired and fast.

        The one probe batch drivers (``replay_batch``) ask: when False
        there is no vectorized path, so drivers skip batch assembly
        entirely and dispatch scalar -- which also serves the SYN-gated
        load-aware LBs, whose placement no batch can express.  Every CH
        family has an integer kernel, so composed LBs answer with the
        CT's gates alone: the table offers the idx API and cleanup is
        active.  Which order a columnar chunk takes is not a capability
        but the CT's regime, read per chunk.
        """
        return False

    def get_destinations_batch_idx(self, keys: np.ndarray) -> np.ndarray:
        """Destination ids (int32, indices into :meth:`dispatch_names`)
        for a uint64 key array.

        The batch contract: ``dispatch_names()[ids]`` and the post-batch
        CT key->destination mapping equal those of dispatching the keys
        one by one through :meth:`get_destination` (no backend change may
        occur mid-batch), and ids are stable across backend changes (an
        id keeps naming the same server for the balancer's lifetime).
        Only defined when :attr:`columnar_effective` is True; raises
        otherwise.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no columnar dispatch path"
        )

    def dispatch_names(self) -> np.ndarray:
        """Object array mapping dispatch ids -> server names (edge use)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no columnar dispatch path"
        )

    def dispatch_working_mask(self) -> np.ndarray:
        """Bool array over dispatch ids: True where the server is working.

        Rebuilt on every call; drivers cache it between backend events.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no columnar dispatch path"
        )

    @abstractmethod
    def add_working_server(self, name: Name) -> None:
        """ADDWORKINGSERVER: admit ``name`` (from the horizon if one exists)."""

    @abstractmethod
    def remove_working_server(self, name: Name) -> None:
        """REMOVEWORKINGSERVER: remove ``name`` from the working set."""

    def add_horizon_server(self, name: Name) -> None:
        """ADDHORIZONSERVER (no-op for horizon-less balancers)."""

    def remove_horizon_server(self, name: Name) -> None:
        """REMOVEHORIZONSERVER (no-op for horizon-less balancers)."""

    def force_add_working_server(self, name: Name) -> None:
        """Add a server that was never announced via the horizon."""
        self.add_working_server(name)

    @property
    @abstractmethod
    def working(self) -> FrozenSet[Name]:
        """Current working set."""

    @property
    def tracked_connections(self) -> int:
        """Number of connections currently tracked (0 for stateless LBs)."""
        return 0
