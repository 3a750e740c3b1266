"""CT synchronization for LB pools: the sync bill, and the one fallible
channel.

Section 6.2 assumes replication that is perfect and instantaneous;
:class:`~repro.core.lb_pool.LBPool` does that itself (``sync=True``: every
fresh insert is put into every live peer's CT on the spot) and counts it
in a :class:`SyncStats`.  ``sync=GossipSync(...)`` replaces the push with
the realistic, fallible channel here -- the classic epidemic pattern
(Charon-style UDP sync, most service meshes):

- every member appends its own CT inserts to an append-only per-origin
  delta log, versioned by sequence number.  Deletions need no delta:
  every member invalidates locally from the pool's backend broadcast;
- once per **round** (every ``round_lookups`` pool lookups) each live
  member pushes, to ``fanout`` random peers, every delta *it* knows that
  the peer's per-origin watermark has not covered -- members forward
  third-party deltas, which is what makes dissemination epidemic
  (O(log n) rounds to reach everyone);
- a lost push (probability ``loss_probability``, seeded RNG) backs the
  (src, dst) pair off exponentially **with jitter drawn from the same
  RNG**, so retry storms decorrelate after a partition heals;
- a member that was partitioned (or that joins fresh) is repaired by
  **anti-entropy**: its watermarks simply stopped advancing, so the next
  rounds re-send exactly the missed suffix -- no separate repair protocol,
  and the repaired entries are counted in ``stats.anti_entropy``;
- a member that **crashes** takes state with it: deltas it originated
  that no live member had applied yet are gone (``stats.unreplicated``),
  and deltas still owed to it are voided (``stats.dropped_targets``);
  both show up in ``stats.lost``, the accounted un-replicated bill.

Convergence is measurable: :meth:`GossipSync.staleness` is the total
number of (member, delta) pairs still undelivered across live members,
and it goes to zero after :meth:`~GossipSync.drain` (or enough quiet
rounds).

The pool's push is gossip's degenerate case: with ``fanout`` at least
the pool size, ``round_lookups=1`` and no loss, a replay followed by
:meth:`~GossipSync.drain` ends with the same destinations, the same CTs
and the same ``delivered`` count as ``sync=True`` -- only an order of
magnitude slower, because every lookup pays for a round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hashing.mix import splitmix64


@dataclass
class SyncStats:
    """CT-sync counters (the §6.2 sync bill, itemised), one per event.

    The pool's perfect push fills ``offered``, ``delivered`` and
    ``anti_entropy``; gossip fills the rest as well."""

    offered: int = 0          # (entry, peer) replications requested
    delivered: int = 0        # entries applied at a peer
    anti_entropy: int = 0     # entries re-offered to repair a stale rejoiner
    rounds: int = 0           # gossip rounds run
    pushes: int = 0           # (src, dst) exchanges attempted
    lost_pushes: int = 0      # exchanges the network dropped (each retried)
    unreplicated: int = 0     # deltas gone with a crashed origin
    dropped_targets: int = 0  # deliveries voided when their target left
    #: Sum / count of dissemination lag in rounds (delta creation ->
    #: application at a peer), for the convergence-lag report.
    lag_rounds_sum: int = 0
    lag_rounds_count: int = 0

    @property
    def lost(self) -> int:
        """Entries that will never reach a peer: deltas gone with their
        crashed origin plus deliveries voided when their target left.
        This is the accounted un-replicated state a PCC post-mortem may
        charge to the sync layer."""
        return self.unreplicated + self.dropped_targets

    @property
    def mean_lag_rounds(self) -> float:
        return (
            self.lag_rounds_sum / self.lag_rounds_count
            if self.lag_rounds_count
            else 0.0
        )


@dataclass
class _Delta:
    """One versioned CT insert from an origin's append-only log."""

    key: int
    destination: object
    born_round: int


class _MemberState:
    __slots__ = ("member", "log", "partitioned", "repairing")

    def __init__(self, member):
        self.member = member
        self.log: List[_Delta] = []
        self.partitioned = False
        self.repairing = False


class GossipSync:
    """Fanout-k epidemic CT replication with versioned per-origin logs."""

    def __init__(
        self,
        fanout: int = 2,
        round_lookups: int = 32,
        loss_probability: float = 0.0,
        backoff_rounds: int = 1,
        seed: int = 0,
    ):
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        if round_lookups < 1:
            raise ValueError("round_lookups must be >= 1")
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if backoff_rounds < 1:
            raise ValueError("backoff_rounds must be >= 1")
        self.fanout = fanout
        self.round_lookups = round_lookups
        self.loss_probability = loss_probability
        self.backoff_rounds = backoff_rounds
        self.stats = SyncStats()
        self._rng = random.Random(splitmix64(seed ^ 0x6055_1234))
        self._members: List[_MemberState] = []
        self._by_member: Dict[object, _MemberState] = {}
        # applied[(dst_state, origin_state)] -> highest contiguous seq
        # (1-based index into origin.log) that dst has applied.
        self._applied: Dict[Tuple[int, int], int] = {}
        # Retired origins whose logs live members may still forward.
        self._ghost_logs: List[_MemberState] = []
        # (src_id, dst_id) -> (skip_until_round, consecutive_losses).
        self._defer: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._lookups = 0
        self._round = 0

    # --------------------------------------------------------- membership
    def register_member(self, member) -> None:
        """Start gossiping with ``member``.  A fresh member's watermarks
        are zero, so anti-entropy pushes it the full pool state."""
        if member in self._by_member:
            return
        state = _MemberState(member)
        self._members.append(state)
        self._by_member[member] = state
        if self.staleness_of(member) > 0 or self._has_any_deltas():
            state.repairing = True

    def _has_any_deltas(self) -> bool:
        return any(s.log for s in self._members + self._ghost_logs)

    def forget_target(self, member) -> int:
        """A member crashed or was removed: void deliveries to it and
        account the deltas only it held.  Returns the voided count."""
        state = self._by_member.pop(member, None)
        if state is None:
            return 0
        self._members.remove(state)
        # Deliveries still owed *to* the dead member are voided.
        owed = self.staleness_of(member, state=state)
        self.stats.dropped_targets += owed
        # Deltas it originated that no live member has applied are gone;
        # truncate its log to the highest live watermark and keep the rest
        # forwardable by survivors (ghost log).
        reached = max(
            (
                self._applied.get((id(peer), id(state)), 0)
                for peer in self._members
            ),
            default=0,
        )
        lost_tail = len(state.log) - reached
        if lost_tail > 0:
            self.stats.unreplicated += lost_tail
            del state.log[reached:]
        if state.log:
            self._ghost_logs.append(state)
        self._defer = {
            pair: value
            for pair, value in self._defer.items()
            if id(state) not in pair
        }
        return owed

    def partition_member(self, member) -> None:
        """Cut ``member`` out of gossip (it keeps serving traffic)."""
        state = self._by_member.get(member)
        if state is not None:
            state.partitioned = True

    def heal_member(self, member) -> None:
        """Re-admit a partitioned member; the missed suffix flows back via
        anti-entropy (its watermarks never advanced)."""
        state = self._by_member.get(member)
        if state is not None and state.partitioned:
            state.partitioned = False
            if self.staleness_of(member, state=state) > 0:
                state.repairing = True

    # ------------------------------------------------------------ sending
    def offer(self, origin, key: int, destination) -> None:
        """Record one CT insert at its origin; rounds disseminate it."""
        state = self._by_member.get(origin)
        if state is None:
            return
        state.log.append(_Delta(key, destination, self._round))
        self.stats.offered += max(len(self._live()) - 1, 0)

    # ----------------------------------------------------------- delivery
    def on_lookup(self) -> None:
        self._lookups += 1
        if self._lookups % self.round_lookups == 0:
            self.run_round()

    def _live(self) -> List[_MemberState]:
        return [s for s in self._members if not s.partitioned]

    def run_round(self) -> None:
        """One gossip round: every live member pushes to ``fanout`` peers."""
        self._round += 1
        self.stats.rounds += 1
        live = self._live()
        if len(live) < 2:
            return
        for src in live:
            peers = [s for s in live if s is not src]
            count = min(self.fanout, len(peers))
            for dst in self._rng.sample(peers, count):
                self._push(src, dst)

    def _push(self, src: _MemberState, dst: _MemberState) -> None:
        pair = (id(src), id(dst))
        skip_until, losses = self._defer.get(pair, (0, 0))
        if self._round < skip_until:
            return
        payload = self._payload(src, dst)
        if not payload:
            self._defer.pop(pair, None)
            return
        self.stats.pushes += 1
        if self._rng.random() < self.loss_probability:
            self.stats.lost_pushes += 1
            backoff = self.backoff_rounds * (1 << min(losses, 6))
            backoff += self._rng.randrange(backoff)  # decorrelating jitter
            self._defer[pair] = (self._round + backoff, losses + 1)
            return
        self._defer.pop(pair, None)
        self._apply(dst, payload)

    def _payload(self, src: _MemberState, dst: _MemberState):
        """Deltas src can forward that dst's watermarks lack.  A member
        forwards another origin's log -- live or a crashed one's ghost --
        as far as it has applied it itself."""
        out = []
        for origin in self._members + self._ghost_logs:
            if origin is dst:
                continue  # a member trivially has its own log
            have = (
                len(origin.log)
                if origin is src
                else self._applied.get((id(src), id(origin)), 0)
            )
            need = self._applied.get((id(dst), id(origin)), 0)
            if have > need:
                out.append((origin, need, have))
        return out

    def _apply(self, dst: _MemberState, payload) -> None:
        ct = getattr(dst.member, "ct", None)
        repaired = 0
        for origin, need, have in payload:
            for seq in range(need + 1, have + 1):
                delta = origin.log[seq - 1]
                if ct is not None:
                    ct.put(delta.key, delta.destination)
                self.stats.delivered += 1
                self.stats.lag_rounds_sum += self._round - delta.born_round
                self.stats.lag_rounds_count += 1
                repaired += 1
            self._applied[(id(dst), id(origin))] = have
        if dst.repairing and repaired:
            self.stats.anti_entropy += repaired
            if self.staleness_of(dst.member, state=dst) == 0:
                dst.repairing = False

    # --------------------------------------------------------- inspection
    def staleness_of(self, member, state: Optional[_MemberState] = None) -> int:
        """Deltas ``member`` has not yet applied (its convergence debt)."""
        state = state or self._by_member.get(member)
        if state is None:
            return 0
        debt = 0
        for origin in self._members + self._ghost_logs:
            if origin is state:
                continue
            debt += len(origin.log) - self._applied.get(
                (id(state), id(origin)), 0
            )
        return debt

    def staleness(self) -> int:
        """Total undelivered (live member, delta) pairs -- 0 = converged."""
        return sum(self.staleness_of(s.member, state=s) for s in self._live())

    @property
    def converged(self) -> bool:
        return self.staleness() == 0

    @property
    def degraded(self) -> bool:
        """True once un-replicated state exists (a member died holding
        deltas nobody else had)."""
        return self.stats.unreplicated > 0

    def _available(self, origin: _MemberState) -> int:
        """Highest sequence of ``origin``'s log any live member can push.

        A partitioned origin's unforwarded suffix is unreachable until it
        heals; survivors can forward a ghost origin's log only as far as
        they themselves applied it."""
        live = self._live()
        if any(s is origin for s in live):
            return len(origin.log)
        return max(
            (self._applied.get((id(src), id(origin)), 0) for src in live),
            default=0,
        )

    def _reachable_staleness(self) -> int:
        """The part of :meth:`staleness` gossip can still fix: debt on
        deltas some live member holds.  The remainder is waiting on a
        partition heal (or is gone with a crashed origin)."""
        debt = 0
        for state in self._live():
            for origin in self._members + self._ghost_logs:
                if origin is state:
                    continue
                have = self._applied.get((id(state), id(origin)), 0)
                debt += max(self._available(origin) - have, 0)
        return debt

    # -------------------------------------------------------------- drain
    def drain(self, max_rounds: int = 100_000) -> int:
        """Run rounds (ignoring backoff deferrals) until every delta a
        live member holds has reached every live member.  Returns the
        number of rounds it took; loss still applies per push, so
        convergence is stochastic but certain for ``loss_probability < 1``.
        Debt behind an active partition is *not* waited on -- it drains
        after :meth:`heal_member` (and :meth:`staleness` keeps reporting
        it until then)."""
        start = self._round
        while self._reachable_staleness() > 0:
            if self._round - start >= max_rounds:
                raise RuntimeError("gossip drain did not converge")
            self._defer.clear()
            self.run_round()
            if len(self._live()) < 2:
                break
        return self._round - start
