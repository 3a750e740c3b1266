"""Load-aware JET -- Section 6.3: SYN-gated *placements* on top of
:class:`~repro.core.jet.TrackingLoadBalancer`'s Algorithm 1.

The paper sketches ("naive integration") how JET can coexist with
load-aware dispatching: for a new connection the CH result is one
candidate and load may pick another.  :class:`SynGatedJET` states the
pattern once -- a subclass supplies ``_place`` -- with its two rules:

- a connection is tracked iff it is CH-unsafe **or** was placed off the
  plain CH result: a load-dependent decision cannot be recomputed from
  the hash alone (the rule Charon, arXiv 2110.14389, builds on);
- the placement runs only for packets flagged ``new_connection`` (an L4
  LB reads the TCP SYN bit), because re-running it on later packets of an
  untracked connection could silently reroute it.  Those follow the plain
  CH result, which Theorem 4.4 keeps stable for safe connections -- the
  PCC-soundness condition.

:class:`PowerOfTwoJET`: the second candidate is an independent hash and
the less loaded one wins.  ~1/2 of connections leave the CH choice, so
JET still saves "up to 50 % of CT table sizes" versus full CT -- the
claim ``benchmarks/bench_extensions.py`` measures.  Load is compared
Charon-style, as :meth:`PowerOfTwoJET._pressure` spells out.

:class:`BoundedLoadJET` (Mirrokni et al., *Consistent Hashing with
Bounded Loads*): cap every server at ``ceil((1 + epsilon) * connections /
servers)`` and cascade an overflowing key to the next candidate in ring
order.  Tracking cost is at most the overflow fraction (a few percent for
epsilon = 0.25) on top of JET's |H|/(|W|+|H|) -- far below p2c's ~50 %,
at the price of a weaker balance target (a hard cap rather than
near-perfect spread).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

from repro.ch.base import HorizonConsistentHash
from repro.ch.ring import RingHash
from repro.core.interfaces import Name
from repro.core.jet import TrackingLoadBalancer
from repro.ct.base import ConnectionTracker
from repro.hashing.mix import fmix64


class SynGatedJET(TrackingLoadBalancer):
    """JET whose new connections go to the working server a subclass's
    ``_place(key_hash, ch_choice)`` names, tracked iff unsafe or placed
    off the CH choice."""

    #: Capability flag: replayers/simulators should pass
    #: ``new_connection=True`` for a flow's first packet (TCP SYN).
    dispatches_new_connections = True
    needs_horizon = True

    def __init__(self, ch, ct=None):
        super().__init__(ch, ct)
        #: Active connections per working server, and their total.
        self.load: Dict[Name, int] = {name: 0 for name in self._working}
        self._active = 0

    def _decide(self, key_hash: int, new_connection: bool) -> Tuple[Name, bool]:
        ch_choice, unsafe = self.ch.lookup_with_safety(key_hash)
        if new_connection:
            placed = self._place(key_hash, ch_choice)
            if placed != ch_choice:
                return placed, True  # not reproducible from the hash alone
        # Mid-connection packet of an untracked flow, or the CH choice
        # stood: plain JET -- track iff not stable under the horizon.
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


class PowerOfTwoJET(SynGatedJET):
    """JET with power-of-2-choices placement for new connections."""

    def __init__(
        self,
        ch: HorizonConsistentHash,
        ct: Optional[ConnectionTracker] = None,
        weights: Optional[Mapping[Name, float]] = None,
    ):
        super().__init__(ch, ct)
        self._order: List[Name] = sorted(self._working, key=repr)
        #: Per-server capacity weights (a weight-2 machine looks half as
        #: loaded at equal occupancy); absent servers count as 1.0.
        self.weights: Dict[Name, float] = dict(weights or {})
        # Last observed occupancy gauges and the self-counted loads at
        # observation time (so in-flight placements since the refresh
        # still steer the comparison).
        self._occupancy: Optional[Dict[Name, int]] = None
        self._load_at_observe: Dict[Name, int] = {}

    def _place(self, key_hash: int, ch_choice: Name) -> Name:
        """The lighter of the CH choice and an independent uniform
        candidate among working servers."""
        alternative = self._order[fmix64(key_hash ^ 0xD6E8_FEB8_6659_FD93) % len(self._order)]
        if self._pressure(alternative) < self._pressure(ch_choice):
            return alternative
        return ch_choice

    def _pressure(self, name: Name) -> float:
        """Capacity-normalized load: observed occupancy gauge plus the
        self-counted in-flight delta since the last refresh, divided by
        the server's weight.  With no view ever observed and unit
        weights this is exactly the self-counted comparison."""
        occupancy = self.load.get(name, 0)
        if self._occupancy is not None:
            occupancy += self._occupancy.get(name, 0) - self._load_at_observe.get(name, 0)
        return occupancy / self.weights.get(name, 1.0)

    def observe_occupancy(self, occupancy: Mapping[Name, int]) -> None:
        """Refresh the live occupancy view -- in a pool deployment the
        fleet-wide truth no single LB can self-count (the driver mirrors
        the ``repro_backend_active_flows`` gauges here at sample
        boundaries; called identically whether or not a registry is
        attached, so observability cannot change dispatch decisions)."""
        self._occupancy = dict(occupancy)
        self._load_at_observe = dict(self.load)

    def _admit(self, name: Name) -> None:
        super()._admit(name)
        self._order = sorted(self._working, key=repr)

    def _retire(self, name: Name) -> None:
        super()._retire(name)
        self._order = sorted(self._working, key=repr)


class BoundedLoadJET(SynGatedJET):
    """JET over Ring CH-BL: hard per-server connection caps."""

    def __init__(
        self,
        ch: RingHash,
        ct: Optional[ConnectionTracker] = None,
        epsilon: float = 0.25,
    ):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        super().__init__(ch, ct)
        self.epsilon = epsilon
        self.cascaded = 0  # connections placed off their CH choice

    def capacity(self) -> int:
        """Current per-server cap: ceil((1+eps) * (active+1) / n)."""
        n = max(len(self._working), 1)
        return math.ceil((1 + self.epsilon) * (self._active + 1) / n)

    def _place(self, key_hash: int, ch_choice: Name) -> Name:
        cap = self.capacity()
        if self.load.get(ch_choice, 0) >= cap:
            for candidate in self.ch.iter_successors(key_hash):
                if self.load.get(candidate, 0) < cap:
                    self.cascaded += 1
                    return candidate
            # (all full can't happen: cap * n > active by construction)
        return ch_choice
