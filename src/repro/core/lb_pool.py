"""LB pools -- the Section 6.2 multi-balancer deployment model, hardened.

Datacenters run many LB instances behind ECMP: the router hashes each
packet's flow onto one of the live LBs.  Connection-tracking state is
*per-LB*, so when the LB pool itself changes, ECMP re-steers a slice of
the traffic onto LBs that have never seen those flows.  A re-steered
connection breaks iff the current ``CH(W, k)`` disagrees with its true
destination and the new LB has no CT entry for it -- Section 6.2's
observation, true for full CT and JET alike.

CT synchronization has exactly two modes besides none (``sync=False``,
independent CTs: the §6.2 failure mode):

- ``sync=True`` -- the paper's idealised replication, done by the pool
  itself: a fresh insert is put into every live peer's CT on the spot,
  through the peer's own ``put_tracked`` (each balancer encodes its CT).
  "If synchronization is employed, JET's smaller CT size means that a
  smaller state needs to be synchronized": the pool counts replicated
  entries in :attr:`sync_stats` so experiments can quantify exactly that;
- ``sync=GossipSync(...)`` -- the realistic, fallible channel
  (:mod:`repro.control.gossip`: epidemic rounds, loss, backoff,
  anti-entropy, crash accounting).  Un-replicated state lost with a
  crashed member is counted and the pool reports itself **degraded**.

Beyond graceful scale-in (:meth:`remove_lb`), members can **crash**
(:meth:`crash_lb`: abrupt, ECMP re-steers, the member's CT entries are
lost and counted) or **partition** (:meth:`partition_lb`: the member
keeps serving its ECMP slice but misses backend broadcasts and sync
traffic).  A healed member replays the suffix of the backend event log
it missed (:meth:`heal_lb`), so pool members converge on (W, H) again --
late joiners via :meth:`add_lb` replay the whole log.  Under perfect
sync, a joiner copies a donor's CT and a rejoiner gets the entries it
lacks; the donor is the first member that is not partitioned.

ECMP steering is hash-mod-n over the live LB list (the common router
behaviour, deliberately *not* consistent: that is what makes pool changes
disruptive).
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional, Union

from repro.control.gossip import GossipSync, SyncStats
from repro.core.interfaces import LoadBalancer, Name
from repro.hashing.mix import fmix64
from repro.obs import metrics as obs_metrics

BalancerFactory = Callable[[], LoadBalancer]

#: Attribute stamped on members to record how much of the pool's backend
#: event log they have applied (partitioned members fall behind).
_LOG_ATTR = "_pool_log_index"


class LBPool(LoadBalancer):
    """A pool of LB replicas behind hash-mod-n ECMP steering."""

    def __init__(
        self,
        factory: BalancerFactory,
        size: int,
        sync: Union[bool, GossipSync] = False,
        registry=None,
    ):
        if size < 1:
            raise ValueError("pool needs at least one LB instance")
        if not isinstance(sync, (bool, GossipSync)):
            raise TypeError(f"sync must be a bool or a GossipSync, got {sync!r}")
        self._factory = factory
        # Membership *events* are incremented here as they happen; pool
        # *state* (members, lost entries, occupancy, sync totals) is
        # scraped by the obs collector at snapshot boundaries.
        self.obs = registry
        #: The fallible channel (None under perfect sync or none), and the
        #: sync bill: the channel's counters, or the pool's own under
        #: perfect sync (None without sync).
        self.gossip: Optional[GossipSync] = None
        self.sync_stats: Optional[SyncStats] = None
        if isinstance(sync, GossipSync):
            self.gossip, self.sync_stats = sync, sync.stats
        elif sync:
            self.sync_stats = SyncStats()
        self.members: List[LoadBalancer] = [factory() for _ in range(size)]
        if self.gossip is not None:
            for member in self.members:
                self.gossip.register_member(member)
        #: CT entries lost with crashed/removed members.
        self.lost_entries = 0
        #: Abrupt member failures observed (vs. graceful scale-in).
        self.crashes = 0
        # Backend changes applied so far; members that missed a suffix
        # (late joiners, healed partitions) replay from their own offset so
        # every member converges on the same (W, H) -- the paper's standing
        # assumption that all LBs see the same backend state.
        self._event_log: List[tuple] = []
        self._partitioned: List[LoadBalancer] = []
        for member in self.members:
            setattr(member, _LOG_ATTR, 0)

    # ------------------------------------------------------------ steer
    def _steer(self, key_hash: int) -> LoadBalancer:
        """ECMP: pick the serving LB for this flow (mod over live LBs)."""
        return self.members[fmix64(key_hash ^ 0x9E6C_63D0_876A_3F6B) % len(self.members)]

    # ----------------------------------------------------------- packet
    def get_destination(self, key_hash: int) -> Name:
        member = self._steer(key_hash)
        if self.gossip is not None:
            self.gossip.on_lookup()
        ct = getattr(member, "ct", None)
        if self.sync_stats is None or ct is None:
            return member.get_destination(key_hash)
        # Detect a fresh insert by the inserts counter, not the table size:
        # in a bounded CT an insert can coincide with an eviction, leaving
        # the size unchanged and (previously) the entry never replicated.
        inserts_before = ct.stats.inserts
        destination = member.get_destination(key_hash)
        if ct.stats.inserts > inserts_before:
            if self.gossip is not None:
                self.gossip.offer(member, key_hash, destination)
            else:
                peers = [
                    m for m in self.members
                    if m is not member and m not in self._partitioned
                ]
                for peer in peers:
                    peer.put_tracked(key_hash, destination)
                self.sync_stats.offered += len(peers)
                self.sync_stats.delivered += len(peers)
        return destination

    def _feed(self, member: LoadBalancer) -> int:
        """Perfect sync's repair: put every entry of the donor's CT that
        ``member`` lacks into its CT.  The donor -- for joins and heals
        alike -- is the first other member that is not partitioned.
        Returns the entries fed."""
        donor = next(
            (m for m in self.members if m is not member and m not in self._partitioned),
            None,
        )
        if getattr(member, "ct", None) is None or donor is None:
            return 0
        fed = 0
        for key, destination in donor.tracked_items().items():
            if member.peek_tracked(key) != destination:
                member.put_tracked(key, destination)
                fed += 1
        self.sync_stats.offered += fed
        self.sync_stats.delivered += fed
        return fed

    # ----------------------------------------------------- pool changes
    def add_lb(self) -> LoadBalancer:
        """Grow the pool.  ECMP re-steers ~all flows (mod-n!); without
        sync, flows landing on the new LB lose their CT protection."""
        member = self._factory()
        self._replay_log(member, 0)
        if self.gossip is not None:
            # Registration alone suffices: the new member's watermarks
            # start at zero, so anti-entropy streams it the full pool
            # state over the next rounds.
            self.gossip.register_member(member)
        elif self.sync_stats is not None:
            self._feed(member)
        self.members.append(member)
        self._note_event("add")
        return member

    def _note_event(self, kind: str) -> None:
        if self.obs is not None:
            self.obs.counter(
                obs_metrics.POOL_EVENTS, "Pool membership events by kind", kind=kind
            ).inc()

    def _validate_index(self, index: int) -> int:
        if not isinstance(index, int) or isinstance(index, bool):
            raise ValueError(f"member index must be an int, got {index!r}")
        size = len(self.members)
        if not -size <= index < size:
            raise ValueError(f"member index {index} out of range for pool of {size}")
        return index % size

    def remove_lb(self, index: int = -1) -> int:
        """Shrink the pool (scale-in).  Returns the number of CT entries
        that left with the member (its un-replicated tracking state)."""
        if len(self.members) <= 1:
            raise ValueError("cannot remove the last LB instance")
        position = self._validate_index(index)
        member = self.members.pop(position)
        if member in self._partitioned:
            self._partitioned.remove(member)
        if self.gossip is not None:
            self.gossip.forget_target(member)
        lost = member.tracked_connections
        self.lost_entries += lost
        self._note_event("remove")
        return lost

    def crash_lb(self, index: int = -1) -> int:
        """Abrupt member failure: like :meth:`remove_lb` (ECMP re-steers
        the slice immediately) but counted as a crash."""
        lost = self.remove_lb(index)
        self.crashes += 1
        self._note_event("crash")
        return lost

    # ------------------------------------------------------- partitions
    def partition_lb(self, index: int) -> LoadBalancer:
        """Partition a member from the control plane: it keeps serving its
        ECMP slice with a stale view, but misses broadcasts and sync."""
        member = self.members[self._validate_index(index)]
        if member not in self._partitioned:
            self._partitioned.append(member)
            if self.gossip is not None:
                # Gossip keeps the member's watermarks: the missed suffix
                # flows back automatically after the heal.
                self.gossip.partition_member(member)
            self._note_event("partition")
        return member

    def heal_lb(self, index: int) -> int:
        """Heal a partitioned member: replay the backend events it missed
        so it converges on the pool's (W, H), then repair its CT.

        A rejoiner must never silently resume with a stale CT: gossip
        resumes anti-entropy from the member's watermarks, and perfect
        sync feeds it the donor's entries it lacks.  Both count the repair
        in ``sync_stats.anti_entropy``.  Returns the backend event replay
        length."""
        member = self.members[self._validate_index(index)]
        if member not in self._partitioned:
            return 0
        self._partitioned.remove(member)
        self._note_event("heal")
        replayed = self._replay_log(member, getattr(member, _LOG_ATTR, 0))
        if self.gossip is not None:
            self.gossip.heal_member(member)
        elif self.sync_stats is not None:
            self.sync_stats.anti_entropy += self._feed(member)
        return replayed

    def _replay_log(self, member: LoadBalancer, start: int) -> int:
        for method, name in self._event_log[start:]:
            getattr(member, method)(name)
        setattr(member, _LOG_ATTR, len(self._event_log))
        return len(self._event_log) - start

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def partitioned(self) -> int:
        return len(self._partitioned)

    @property
    def degraded(self) -> bool:
        """True when pool state is known-incomplete: partitioned members
        are serving stale views, or gossip lost un-replicated entries."""
        if self._partitioned:
            return True
        return self.gossip is not None and self.gossip.degraded

    # ------------------------------------------------- backend changes
    def _broadcast(self, method: str, name: Name) -> None:
        self._event_log.append((method, name))
        for member in self.members:
            if member in self._partitioned:
                continue
            getattr(member, method)(name)
            setattr(member, _LOG_ATTR, len(self._event_log))

    def add_working_server(self, name: Name) -> None:
        self._broadcast("add_working_server", name)

    def remove_working_server(self, name: Name) -> None:
        self._broadcast("remove_working_server", name)

    def add_horizon_server(self, name: Name) -> None:
        self._broadcast("add_horizon_server", name)

    def remove_horizon_server(self, name: Name) -> None:
        self._broadcast("remove_horizon_server", name)

    def force_add_working_server(self, name: Name) -> None:
        self._broadcast("force_add_working_server", name)

    # ------------------------------------------------------------ state
    @property
    def sync(self) -> bool:
        """Whether CT synchronization is enabled (perfect or gossip)."""
        return self.sync_stats is not None

    @property
    def synced_entries(self) -> int:
        """CT entries replicated between members (the §6.2 sync cost)."""
        return self.sync_stats.delivered if self.sync_stats is not None else 0

    @property
    def working(self) -> FrozenSet[Name]:
        # A partitioned member's view may be stale; report a live one's.
        for member in self.members:
            if member not in self._partitioned:
                return member.working
        return self.members[0].working

    @property
    def tracked_connections(self) -> int:
        """Total CT entries across the pool (the aggregate memory bill)."""
        return sum(member.tracked_connections for member in self.members)
