"""ChaosInjector -- binds a fault schedule to the event-driven simulator.

The injector owns the *semantics* of each fault kind and schedules its
own events (``sim.at``); the engine knows no fault kinds.  All victim
choices draw from the engine's RNG stream, so a chaos run is exactly as
reproducible as a plain one, and a schedule with zero events leaves the
engine's event sequence (and RNG stream) byte-identical to a no-injector run.

Fault semantics, and the paper assumption each one violates:

- ``crash``: like a §5 removal, but readmission adds the
  :class:`~repro.faults.health.HealthMonitor`'s probation delay on top
  of the sampled downtime (violates *instant recovery*; honours the
  horizon contract).
- ``flap``: a crash whose recovery is near-immediate, repeated
  ``flap_count`` times.  Without probation this thrashes ``W``; with it,
  each cycle doubles the wait (violates the assumption that churn is
  slower than the horizon turnover).
- ``group``: ``group_size`` distinct servers crash at the same instant
  (violates *one change at a time*, §6.1's motivation).
- ``unannounced_add``: a brand-new identity enters ``W`` via
  ``force_add_working_server`` without ever appearing in ``H`` (violates
  the §2.3 known-horizon contract; the connections it re-steers were
  never tracked, so the paper *predicts* their breakage -- the injector
  records that prediction for the resilience experiment to check).
"""

from __future__ import annotations

from typing import Optional

from repro.faults.events import (
    CRASH,
    FLAP,
    GROUP,
    PROBE_LOSS,
    STALE_AUTOSCALER,
    UNANNOUNCED_ADD,
    FaultEvent,
    FaultSchedule,
)
from repro.faults.health import HealthMonitor
from repro.obs import metrics as obs_metrics


class ChaosInjector:
    """Applies :class:`FaultSchedule` events to a running simulation."""

    def __init__(
        self,
        schedule: FaultSchedule,
        health: Optional[HealthMonitor] = None,
        fault_window_s: float = 10.0,
        registry=None,
    ):
        self.schedule = schedule
        self.health = health
        #: A PCC violation within this window after any fault is
        #: attributed to the fault (``violations_under_fault``).
        self.fault_window_s = fault_window_s
        self._chaos_births = 0
        self.obs = registry

    # ------------------------------------------------------------ priming
    def prime(self, sim) -> None:
        """Push every scheduled fault into the engine's event heap."""
        for event in self.schedule:
            if event.time <= sim.duration_s:
                self._schedule(sim, event)

    def _schedule(self, sim, event: FaultEvent) -> None:
        sim.at(event.time, self.apply, sim, event)

    # ----------------------------------------------------------- dispatch
    def apply(self, sim, event: FaultEvent) -> None:
        handler = {
            CRASH: self._crash,
            FLAP: self._flap,
            GROUP: self._group,
            UNANNOUNCED_ADD: self._unannounced_add,
            PROBE_LOSS: self._probe_loss,
            STALE_AUTOSCALER: self._stale_autoscaler,
        }[event.kind]
        applied = handler(sim, event)
        if applied:
            sim.result.fault_events += 1
            sim.note_fault()
            if self.obs is not None:
                self.obs.counter(
                    obs_metrics.FAULT_EVENTS, "Fault events applied by kind",
                    kind=event.kind,
                ).inc()

    # ----------------------------------------------------------- handlers
    def _crash(self, sim, event: FaultEvent) -> bool:
        victim = event.target if event.target in sim.up_index else sim.pick_up_server()
        if victim is None:
            return False
        sim.crash_server(victim, downtime=event.downtime)
        sim.result.crashes += 1
        return True

    def _flap(self, sim, event: FaultEvent) -> bool:
        victim = event.target
        if victim is not None and victim not in sim.up_index:
            # Still down (probation damped the flap): drop this cycle.
            return False
        if victim is None:
            victim = sim.pick_up_server()
            if victim is None:
                return False
        recovery_at = sim.crash_server(victim, downtime=event.flap_interval)
        sim.result.flaps += 1
        if event.flap_count > 1:
            self._schedule(
                sim,
                FaultEvent(
                    time=recovery_at + event.flap_interval,
                    kind=FLAP,
                    target=victim,
                    flap_count=event.flap_count - 1,
                    flap_interval=event.flap_interval,
                ),
            )
        return True

    def _group(self, sim, event: FaultEvent) -> bool:
        crashed = 0
        if event.targets:
            # Scripted victim set (a zone, a rack): crash exactly the
            # listed servers that are still up, in the given order.
            for victim in event.targets:
                if victim not in sim.up_index:
                    continue
                sim.crash_server(victim, downtime=event.downtime)
                crashed += 1
        else:
            for _ in range(max(event.group_size, 1)):
                victim = sim.pick_up_server()
                if victim is None:
                    break
                sim.crash_server(victim, downtime=event.downtime)
                crashed += 1
        if crashed:
            sim.result.correlated_failures += 1
            sim.result.crashes += crashed
        return crashed > 0

    def _unannounced_add(self, sim, event: FaultEvent) -> bool:
        self._chaos_births += 1
        name = f"chaos{self._chaos_births}"
        sim.admit_unannounced(name)
        return True

    # --------------------------------------- control-plane fault handlers
    # These degrade the controller's *senses*; with no control loop they
    # are no-ops and don't count as applied faults.
    def _probe_loss(self, sim, event: FaultEvent) -> bool:
        if sim.controller is None:
            return False
        sim.controller.prober.degrade(event.intensity, event.time + event.duration)
        return True

    def _stale_autoscaler(self, sim, event: FaultEvent) -> bool:
        if sim.controller is None:
            return False
        sim.controller.autoscaler.freeze(event.time + event.duration)
        return True
