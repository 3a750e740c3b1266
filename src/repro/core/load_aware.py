"""Load-aware JET -- the Section 6.3 power-of-2-choices extension: a
SYN-gated *placement* (``_decide``) plus its load accounting on top of
:class:`~repro.core.jet.TrackingLoadBalancer`'s Algorithm 1.

The paper sketches ("naive integration") how JET can coexist with
power-of-choice dispatching: for a new connection, the CH result serves as
one of the two candidate servers; the second candidate is an independent
hash.  The less-loaded candidate wins, and the connection is tracked if it
is CH-unsafe *or* the winner disagrees with the plain CH result (because
then the decision is no longer reproducible from the hash alone).

Expected tracking: ~1/2 of connections pick the non-CH candidate, so JET
still saves "up to 50 % of CT table sizes" versus full CT -- the claim
``benchmarks/bench_extensions.py`` measures.

The load-aware choice runs only for packets flagged as *new connections*
(``new_connection=True``) -- an L4 LB identifies these by the TCP SYN bit.
This is what keeps the scheme PCC-consistent: a load-dependent decision is
not reproducible from the hash alone, so re-running it on later packets of
an untracked connection could silently reroute it.  Non-SYN packets of
untracked connections always follow the plain CH result, which Theorem 4.4
guarantees to be stable for safe connections.

Load is the number of active connections per server.  Two signals feed
the comparison, Charon-style (arXiv 2110.14389):

- a periodically-refreshed **occupancy view** -- the per-backend active-
  connection gauges the driver publishes into :mod:`repro.obs`
  (``repro_backend_active_flows``) and mirrors into the balancer via
  :meth:`PowerOfTwoJET.observe_occupancy`.  In a pool deployment this is
  the fleet-wide truth no single LB can self-count;
- the balancer's own ``note_flow_start`` / ``note_flow_end`` counters,
  used as an in-flight *delta* on top of the last observed view (and as
  the sole signal when no view was ever observed).

Heterogeneous fleets normalize both by per-server capacity ``weights``,
so a weight-2 machine looks half as loaded at equal occupancy.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.ch.base import HorizonConsistentHash
from repro.core.interfaces import Name
from repro.core.jet import TrackingLoadBalancer
from repro.ct.base import ConnectionTracker
from repro.hashing.mix import fmix64


class PowerOfTwoJET(TrackingLoadBalancer):
    """JET with power-of-2-choices placement for new connections."""

    #: Capability flag: replayers/simulators should pass
    #: ``new_connection=True`` for a flow's first packet (TCP SYN).
    dispatches_new_connections = True
    needs_horizon = True

    def __init__(
        self,
        ch: HorizonConsistentHash,
        ct: Optional[ConnectionTracker] = None,
        active_cleanup: bool = True,
        weights: Optional[Mapping[Name, float]] = None,
    ):
        super().__init__(ch, ct, active_cleanup)
        self._order: List[Name] = sorted(self._working, key=repr)
        self.load: Dict[Name, int] = {name: 0 for name in self._working}
        #: Per-server capacity weights; absent servers count as 1.0.
        self.weights: Dict[Name, float] = dict(weights or {})
        # Last observed occupancy gauges and the self-counted loads at
        # observation time (so in-flight placements since the refresh
        # still steer the comparison).
        self._occupancy: Optional[Dict[Name, int]] = None
        self._load_at_observe: Dict[Name, int] = {}

    # ----------------------------------------------------------- packet
    def _decide(self, key_hash: int, new_connection: bool) -> Tuple[Name, bool]:
        ch_choice, unsafe = self.ch.lookup_with_safety(key_hash)
        if new_connection:
            alternative = self._second_choice(key_hash)
            if self._pressure(alternative) < self._pressure(ch_choice):
                # Track: a load-dependent pick is not reproducible from
                # the hash alone.
                return alternative, True
        # Mid-connection packet of an untracked flow, or the CH choice
        # won: plain JET -- track iff not stable under the horizon.
        return ch_choice, unsafe

    def _second_choice(self, key_hash: int) -> Name:
        """Independent uniform candidate among working servers."""
        return self._order[fmix64(key_hash ^ 0xD6E8_FEB8_6659_FD93) % len(self._order)]

    def _pressure(self, name: Name) -> float:
        """Capacity-normalized load: observed occupancy gauge plus the
        self-counted in-flight delta since the last refresh, divided by
        the server's weight.  With no view ever observed and unit
        weights this is exactly the self-counted comparison."""
        local = self.load.get(name, 0)
        if self._occupancy is None:
            occupancy = local
        else:
            occupancy = self._occupancy.get(name, 0) + (
                local - self._load_at_observe.get(name, 0)
            )
        return occupancy / self.weights.get(name, 1.0)

    def observe_occupancy(self, occupancy: Mapping[Name, int]) -> None:
        """Refresh the live occupancy view (the driver mirrors the
        ``repro_backend_active_flows`` gauges here at sample boundaries;
        called identically whether or not a registry is attached, so
        observability cannot change dispatch decisions)."""
        self._occupancy = dict(occupancy)
        self._load_at_observe = dict(self.load)

    # -------------------------------------------------- load accounting
    def note_flow_start(self, destination: Name) -> None:
        self.load[destination] = self.load.get(destination, 0) + 1

    def note_flow_end(self, destination: Name) -> None:
        current = self.load.get(destination, 0)
        if current > 0:
            self.load[destination] = current - 1

    def max_load(self) -> int:
        return max(self.load.values()) if self.load else 0

    # -------------------------------------------------- backend changes
    def _admit(self, name: Name) -> None:
        super()._admit(name)
        self.load.setdefault(name, 0)
        self._order = sorted(self._working, key=repr)

    def _retire(self, name: Name) -> None:
        super()._retire(name)
        self.load.pop(name, None)
        self._order = sorted(self._working, key=repr)
