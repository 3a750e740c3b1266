"""The closed control loop: probe -> membership -> horizon.

A plug-in of the event-driven simulator.  In a closed-loop run the
horizon is the capped, standby-less configuration of
:class:`~repro.sim.backend.HorizonManager`: exactly the *pending
membership changes the control plane knows about* -- autoscaler launches
in their lead-time window, plus evicted servers awaiting readmission.
``|H|`` is therefore dynamic, which is the realistic reading of the
paper's §2.3 contract, and every realized addition is scored against the
announcements (:class:`~repro.control.autoscaler.HorizonScorecard`).

:class:`ControlLoop` runs every ``interval_s`` of simulated time: it
fires the :class:`~repro.control.prober.HealthProber` (evidence-based
evictions and probation-ordered readmissions) and then lets the
:class:`~repro.control.autoscaler.Autoscaler` plan against the live load
signal.  It schedules its own continuations with ``sim.at`` -- the next
tick, each launch's join, each phantom's expiry -- and keeps the books of
the autoscaled fleet (what is launching, what joined and may be retired).

The loop holds no RNG of its own; all stochastic choices live in the
seeded autoscaler/prober, so a control run is exactly as reproducible as
a plain one.
"""

from __future__ import annotations

from typing import List

from repro.control.autoscaler import Autoscaler
from repro.control.prober import HealthProber
from repro.core.interfaces import Name


class ControlLoop:
    """Periodic control tick binding prober + autoscaler to a simulation."""

    def __init__(
        self,
        autoscaler: Autoscaler,
        prober: HealthProber,
        interval_s: float = 0.5,
        max_extra: int = 8,
        phantom_ttl_s: float = None,
        name_prefix: str = "auto",
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.autoscaler = autoscaler
        self.prober = prober
        self.interval_s = interval_s
        self.max_extra = max_extra
        #: How long an unrealized announcement lingers in H before it is
        #: written off as a phantom (default: two lead times).
        if phantom_ttl_s is None:
            phantom_ttl_s = 2.0 * autoscaler.lead_time_s
        self.phantom_ttl_s = phantom_ttl_s
        self.name_prefix = name_prefix
        self._seq = 0
        self._outstanding = 0  # autoscaled servers alive or launching
        #: Autoscaled servers that joined W, oldest first (scale-in
        #: retires the newest).
        self._joined: List[Name] = []

    # ----------------------------------------------------------- wiring
    def attach(self, sim) -> None:
        """Bind the prober's ground-truth oracle and initial watch list,
        and schedule the first tick."""
        self.prober.is_up = sim.server_responsive
        for name in sim.up_index:
            self.prober.watch(name)
        sim.at(self.interval_s, self.tick, sim)

    # ------------------------------------------------------------- tick
    def tick(self, sim) -> None:
        now = sim.now
        sim.result.control_ticks += 1
        evict, readmit = self.prober.probe_all(now)
        # Verdicts can race with recovery / retirement: act only on a
        # server that is still on the side the prober saw it on.  A false
        # eviction (server actually up) re-steers its flows away; they
        # are inevitably broken exactly like a real removal's.
        for name in evict:
            if name in sim.up_index:
                sim.take_down(name)
        for name in readmit:
            if name not in sim.up_index:
                sim.bring_up(name)
        working = sim.responsive_count
        self.autoscaler.observe(now, sim.active_flows, working)
        decision = self.autoscaler.plan(now, working)
        if decision is not None:
            if decision.kind == "launch":
                self._launch(sim, decision)
            else:
                self._outstanding -= self._retire(sim, decision.count)
        if now + self.interval_s <= sim.duration_s:
            sim.at(now + self.interval_s, self.tick, sim)

    def _new_name(self) -> Name:
        self._seq += 1
        return f"{self.name_prefix}{self._seq}"

    def _launch(self, sim, decision) -> None:
        """Start servers booting (announced, or a recall miss) and float
        the decision's phantom announcements; each schedules its own end."""
        room = max(self.max_extra - self._outstanding, 0)
        for i in range(min(decision.count, room)):
            name = self._new_name()
            if i < decision.announced:
                sim.manager.announce(name)
            sim.at(sim.now + self.autoscaler.lead_time_s, self._on_join, sim, name)
            self._outstanding += 1
        for _ in range(decision.phantoms):
            name = self._new_name()
            sim.manager.announce(name)
            sim.at(sim.now + self.phantom_ttl_s, sim.manager.expire, name)

    def _on_join(self, sim, name: Name) -> None:
        """A launch finishes warming up and joins W."""
        sim.result.scale_outs += 1
        sim.bring_up(name, launched=True)
        self._joined.append(name)
        self.prober.watch(name)

    def _retire(self, sim, count: int) -> int:
        """Scale-in: retire up to ``count`` autoscaled servers, newest
        first.  Returns how many actually left."""
        retired = 0
        while self._joined and retired < count:
            name = self._joined.pop()
            if name not in sim.up_index or len(sim.up_index) <= 1:
                continue
            if not sim.server_responsive(name):
                continue  # dead; the prober's eviction path owns it
            sim.result.scale_ins += 1
            sim.take_down(name, retire=True)
            self.prober.forget(name)
            retired += 1
        return retired
