"""JET with consistent hashing and bounded loads (CH-BL).

Section 6.3 points at load-aware dispatching and cites Mirrokni et al.'s
*Consistent Hashing with Bounded Loads*: cap every server at
``ceil((1 + epsilon) * connections / servers)`` and cascade overflowing
keys to the next candidate in ring order.  This module integrates CH-BL
with JET the same way :mod:`repro.core.load_aware` integrates
power-of-2-choices -- a placement (``_decide``) and its load accounting
over the shared :class:`~repro.core.jet.TrackingLoadBalancer`:

- the cascade runs only for packets flagged ``new_connection`` (TCP SYN);
  mid-connection packets of untracked flows take the plain CH result,
  which Theorem 4.4 keeps stable -- the PCC-soundness condition;
- a connection is tracked iff it is CH-unsafe **or** its placement
  deviated from the plain CH result (an overflowed, cascaded key), since
  a deviated placement cannot be recomputed from the hash alone.

Tracking cost: at most the overflow fraction (bounded by epsilon's tail
bound, typically a few percent for epsilon = 0.25) on top of JET's
|H|/(|W|+|H|) -- far below the ~50 % of power-of-2-choices, at the price
of a weaker balance target (a hard cap rather than near-perfect spread).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.ch.ring import RingHash
from repro.core.interfaces import Name
from repro.core.jet import TrackingLoadBalancer
from repro.ct.base import ConnectionTracker


class BoundedLoadJET(TrackingLoadBalancer):
    """JET over Ring CH-BL: hard per-server connection caps."""

    dispatches_new_connections = True
    needs_horizon = True

    def __init__(
        self,
        ch: RingHash,
        ct: Optional[ConnectionTracker] = None,
        epsilon: float = 0.25,
        active_cleanup: bool = True,
    ):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        super().__init__(ch, ct, active_cleanup)
        self.epsilon = epsilon
        self.load: Dict[Name, int] = {name: 0 for name in self._working}
        self._active = 0
        self.cascaded = 0  # connections placed off their CH choice

    # ---------------------------------------------------------- capacity
    def capacity(self) -> int:
        """Current per-server cap: ceil((1+eps) * (active+1) / n)."""
        n = max(len(self._working), 1)
        return math.ceil((1 + self.epsilon) * (self._active + 1) / n)

    # ------------------------------------------------------------ packet
    def _decide(self, key_hash: int, new_connection: bool) -> Tuple[Name, bool]:
        ch_choice, unsafe = self.ch.lookup_with_safety(key_hash)
        if new_connection:
            cap = self.capacity()
            if self.load.get(ch_choice, 0) >= cap:
                for candidate in self.ch.iter_successors(key_hash):
                    if self.load.get(candidate, 0) < cap:
                        # Under the cap, so off the saturated CH choice:
                        # not recomputable from the hash alone -- track.
                        self.cascaded += 1
                        return candidate, True
                # (all full can't happen: cap * n > active by construction)
        return ch_choice, unsafe

    # -------------------------------------------------- load accounting
    def note_flow_start(self, destination: Name) -> None:
        self.load[destination] = self.load.get(destination, 0) + 1
        self._active += 1

    def note_flow_end(self, destination: Name) -> None:
        current = self.load.get(destination, 0)
        if current > 0:
            self.load[destination] = current - 1
            self._active -= 1

    def max_load(self) -> int:
        return max(self.load.values()) if self.load else 0

    # -------------------------------------------------- backend changes
    def _admit(self, name: Name) -> None:
        super()._admit(name)
        self.load.setdefault(name, 0)

    def _retire(self, name: Name) -> None:
        super()._retire(name)
        self._active -= self.load.pop(name, 0)  # its connections: inevitably broken
