"""Deterministic fault injection: chaos schedules, health probation, and
fallible CT-sync channels.

The package makes "robustness under adversarial churn" a measurable
dimension: :class:`FaultSchedule` scripts crash / flap / correlated-group
/ unannounced-addition events, :class:`ChaosInjector` applies them inside
:class:`~repro.sim.engine.EventDrivenSimulation`, :class:`HealthMonitor`
gates readmission with exponential-backoff probation, and
:class:`SyncChannel` replaces :class:`~repro.core.lb_pool.LBPool`'s
perfect CT replication with a lossy, lagging, bounded-retry one.
"""

from repro.faults.channel import SyncChannel, SyncStats
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
    "SyncChannel",
    "SyncStats",
]
