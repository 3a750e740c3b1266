"""Deterministic fault injection: chaos schedules and health probation.

The package makes "robustness under adversarial churn" a measurable
dimension: :class:`FaultSchedule` scripts crash / flap / correlated-group
/ unannounced-addition events, :class:`ChaosInjector` applies them inside
:class:`~repro.sim.engine.EventDrivenSimulation`, and
:class:`HealthMonitor` gates readmission with exponential-backoff
probation.  Fallible CT sync between LB-pool members is
:class:`~repro.control.gossip.GossipSync`.
"""

from repro.faults.events import (
    CRASH,
    FLAP,
    GROUP,
    KINDS,
    PROBE_LOSS,
    STALE_AUTOSCALER,
    UNANNOUNCED_ADD,
    FaultEvent,
    FaultSchedule,
    chaos_mix,
)
from repro.faults.health import HealthMonitor
from repro.faults.injector import ChaosInjector

__all__ = [
    "CRASH",
    "FLAP",
    "GROUP",
    "UNANNOUNCED_ADD",
    "PROBE_LOSS",
    "STALE_AUTOSCALER",
    "KINDS",
    "FaultEvent",
    "FaultSchedule",
    "chaos_mix",
    "HealthMonitor",
    "ChaosInjector",
]
