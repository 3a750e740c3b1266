"""Backend-change orchestration: the one bounded FIFO horizon.

Implements the Section 2.2/2.3 operational model: ``H`` is a FIFO of
*announced* servers -- identities expected to join ``W`` -- at most
``cap`` long, and every arrival in ``W`` is scored against it:

- a working server that goes down joins the horizon at once ("transient
  failures" strategy); ``announce`` puts a not-yet-running one there;
- on overflow the **oldest** member is evicted: a standby placeholder
  goes back to the spares, anything else was a promise and is *revoked*;
- an arrival found in the horizon is a *proper* JET addition; one that
  is not (never announced, or revoked) is an **unanticipated** addition
  (``force_add``) whose unsafe connections were never tracked -- the
  Fig. 4 horizon-too-small failure mode.

One class, two configurations:

- **exogenous**, ``HorizonManager(balancers, standby_names)``: the
  standbys are pre-announced, ``cap`` is their count, and after a proper
  addition a spare standby tops the horizon back up, so ``|H|`` stays
  constant as in the paper's fixed "horizon 10%" configurations;
- **closed loop**, ``HorizonManager(balancers, cap=n)``: no standbys, so
  ``H`` is exactly the control plane's pending changes and ``|H|`` floats
  below the cap; ``expire`` writes off an announcement that never
  realized (a *phantom*), ``retire`` is a planned, permanent departure.

The manager drives one *or more* load balancers in lockstep so a JET LB
and a full-CT LB can consume an identical event sequence (Proposition 4.1).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Sequence, Set

from repro.control.autoscaler import HorizonScorecard
from repro.core.interfaces import LoadBalancer, Name


class HorizonManager:
    """The announced set ``H`` of one or more balancers, and its score."""

    def __init__(
        self,
        balancers: Sequence[LoadBalancer],
        standby_names: Iterable[Name] = (),
        cap: Optional[int] = None,
    ):
        if cap is not None and cap < 1:
            raise ValueError("cap must be >= 1")
        self.balancers: List[LoadBalancer] = list(balancers)
        self._fifo: Deque[Name] = deque(standby_names)
        self._members: Set[Name] = set(self._fifo)
        self._standby = frozenset(self._fifo)
        self._spares: Deque[Name] = deque()
        self._down: Set[Name] = set()
        self._exogenous = cap is None
        self.horizon_size = len(self._fifo) if cap is None else cap
        self.proper_additions = 0
        self.surprise_additions = 0
        #: Announcements evicted by overflow while still owed: the
        #: eventual arrival will land as a surprise.
        self.revoked_announcements = 0
        #: Announcements that timed out without the server ever joining
        #: W -- wasted tracking.
        self.phantom_announcements = 0
        self.retirements = 0

    # ------------------------------------------------------------ state
    @property
    def members(self) -> frozenset:
        return frozenset(self._members)

    @property
    def down_servers(self) -> frozenset:
        return frozenset(self._down)

    @property
    def horizon_occupancy(self) -> int:
        return len(self._members)

    @property
    def scorecard(self) -> HorizonScorecard:
        """Precision / recall of the announcements against the arrivals.

        The two configurations disagree on what a *wasted* announcement
        is, and both rules are kept (docs/CONTROL_PLANE.md): an exogenous
        run charges every revoked one, a closed-loop run only the
        phantoms that expired."""
        if self._exogenous:
            wasted = self.revoked_announcements
        else:
            wasted = self.phantom_announcements
        return HorizonScorecard(self.proper_additions, wasted, self.surprise_additions)

    # ---------------------------------------------------- announcements
    def _enter(self, name: Name) -> None:
        """``name`` (already in every CH's horizon) takes the newest FIFO
        slot; on overflow the oldest member loses its own."""
        self._fifo.append(name)
        self._members.add(name)
        if len(self._fifo) <= self.horizon_size:
            return
        victim = self._fifo.popleft()
        self._members.discard(victim)
        for lb in self.balancers:
            lb.remove_horizon_server(victim)
        if victim in self._standby and victim not in self._down:
            self._spares.append(victim)
        else:
            self.revoked_announcements += 1

    def _leave(self, name: Name) -> bool:
        """Give up ``name``'s FIFO slot; False when it held none."""
        if name not in self._members:
            return False
        self._fifo.remove(name)
        self._members.discard(name)
        return True

    def announce(self, name: Name) -> None:
        """The control plane anticipates ``name`` joining W: put it in H."""
        if name in self._members:
            return
        for lb in self.balancers:
            lb.add_horizon_server(name)
        self._enter(name)

    def expire(self, name: Name) -> None:
        """A phantom announcement timed out unrealized."""
        if self._leave(name):
            for lb in self.balancers:
                lb.remove_horizon_server(name)
        self.phantom_announcements += 1

    # ------------------------------------------------------------ churn
    def remove_server(self, name: Name) -> None:
        """A working server goes down and, being expected back, enters
        the horizon (Algorithm 1 REMOVEWORKINGSERVER moves it there)."""
        self._down.add(name)
        for lb in self.balancers:
            lb.remove_working_server(name)
        self._enter(name)

    def retire(self, name: Name) -> None:
        """Scale-in: a planned, permanent departure (the server is not
        expected back, so the horizon slot REMOVEWORKINGSERVER gave it is
        revoked at once)."""
        self._down.discard(name)
        for lb in self.balancers:
            lb.remove_working_server(name)
            lb.remove_horizon_server(name)
        self.retirements += 1

    def recover_server(self, name: Name) -> bool:
        """A down server rejoins ``W``; scored like any other arrival."""
        self._down.discard(name)
        return self.realize(name)

    def realize(self, name: Name) -> bool:
        """``name`` joins ``W``.  Returns True for a proper (announced)
        addition, False for an unanticipated one."""
        if not self._leave(name):
            for lb in self.balancers:
                lb.force_add_working_server(name)
            self.surprise_additions += 1
            return False
        # Promotion, not withdrawal: add_working_server moves the name
        # from H to W inside the CH, so it is still in the CH's horizon.
        for lb in self.balancers:
            lb.add_working_server(name)
        self.proper_additions += 1
        if self._spares and len(self._fifo) < self.horizon_size:
            # Restore |H| with a spare standby identity.
            spare = self._spares.popleft()
            for lb in self.balancers:
                lb.add_horizon_server(spare)
            self._enter(spare)
        return True
