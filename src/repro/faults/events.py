"""Fault events and deterministic fault schedules.

The §5 simulator models *polite* churn: one server at a time leaves on a
Poisson clock and recovers through the horizon.  Real deployments break
the paper's two standing assumptions -- a known horizon (§2.3) and a
synchronized view of the backend -- in messier ways.  This module gives
those failure modes first-class, seedable event types:

- ``crash``            -- an abrupt single-server failure (like the §5
                          removal process, but driven by the chaos clock
                          and subject to health probation on return);
- ``flap``             -- a server that dies and returns rapidly,
                          ``flap_count`` times at ``flap_interval``
                          spacing (the pathological input for any
                          instantaneous-readmission policy);
- ``group``            -- a correlated failure of ``group_size`` servers
                          at one instant (rack / power-domain loss);
- ``unannounced_add``  -- a brand-new server joins *without ever being in
                          the horizon*, exercising
                          ``force_add_working_server``: the §2.3 contract
                          violation whose breakage JET explicitly does
                          not cover.

Closed-loop runs (:mod:`repro.control`) add two *control-plane* kinds
that degrade the controller's senses instead of the backends: for
``duration`` seconds, ``probe_loss`` drops health probes with probability
``intensity`` and ``stale_autoscaler`` freezes the autoscaler's load
signal so it plans on stale data.

A :class:`FaultSchedule` is an immutable, time-sorted list of
:class:`FaultEvent`; :meth:`FaultSchedule.generate` draws each kind from
an independent Poisson process seeded by ``splitmix64(seed ^ salt)``, so
two schedules built with the same arguments are identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.interfaces import Name
from repro.hashing.mix import splitmix64

#: The recognised event kinds (order fixes tie-breaking at equal times).
CRASH = "crash"
FLAP = "flap"
GROUP = "group"
UNANNOUNCED_ADD = "unannounced_add"
# Control-plane faults (repro.control closed-loop runs): they degrade the
# *controller's senses* rather than the backends themselves.
PROBE_LOSS = "probe_loss"            # health probes drop for a window
STALE_AUTOSCALER = "stale_autoscaler"  # the autoscaler's load signal freezes
KINDS: Tuple[str, ...] = (
    CRASH, FLAP, GROUP, UNANNOUNCED_ADD, PROBE_LOSS, STALE_AUTOSCALER,
)

#: Per-kind seed salts so each Poisson stream is independent.
_SALTS = {
    CRASH: 0xC4A5_11D0,
    FLAP: 0xF1A9_0B57,
    GROUP: 0x6E00_9A2C,
    UNANNOUNCED_ADD: 0x0ADD_ED00,
    PROBE_LOSS: 0x9B0B_E105,
    STALE_AUTOSCALER: 0x57A1_EA5C,
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` is usually ``None`` (the injector picks a victim from the
    live set at fire time, keeping schedules valid under any churn); flap
    continuations carry the flapping server explicitly.  Scripted
    scenarios (:mod:`repro.scenarios`) pin victims ahead of time instead:
    ``targets`` names the exact victim set of a ``group`` event (a zone,
    a rack) and ``downtime`` overrides the engine's sampled recovery
    delay so a rolling deploy can promise each instance back after a
    fixed drain window.
    """

    time: float
    kind: str
    target: Optional[Name] = None
    group_size: int = 0
    flap_count: int = 0
    flap_interval: float = 0.0
    #: Window length for control-plane faults (probe loss, stale
    #: autoscaler); 0 for instantaneous kinds.
    duration: float = 0.0
    #: Severity knob for control-plane faults (e.g. probe loss probability).
    intensity: float = 0.0
    #: Explicit victim set for ``group`` events (empty = random victims).
    targets: Tuple[Name, ...] = ()
    #: Recovery-delay override for ``crash``/``group`` (None = sampled).
    downtime: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {KINDS}")
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        if not isinstance(self.targets, tuple):
            object.__setattr__(self, "targets", tuple(self.targets))
        if self.downtime is not None and self.downtime < 0:
            raise ValueError("fault downtime must be non-negative")


@dataclass(frozen=True)
class FaultSchedule:
    """A time-sorted, immutable sequence of fault events."""

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time, KINDS.index(e.kind)))
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def until(self, horizon_s: float) -> "FaultSchedule":
        """The sub-schedule of events at or before ``horizon_s``."""
        return FaultSchedule(tuple(e for e in self.events if e.time <= horizon_s))

    def merged(self, other: "FaultSchedule") -> "FaultSchedule":
        return FaultSchedule(self.events + tuple(other.events))

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    # ------------------------------------------------------- constructors
    @classmethod
    def at(cls, *events: FaultEvent) -> "FaultSchedule":
        """An explicit scripted schedule (tests, targeted scenarios)."""
        return cls(tuple(events))

    @classmethod
    def generate(
        cls,
        duration_s: float,
        seed: int = 0,
        crash_rate_per_min: float = 0.0,
        flap_rate_per_min: float = 0.0,
        group_rate_per_min: float = 0.0,
        unannounced_rate_per_min: float = 0.0,
        probe_loss_rate_per_min: float = 0.0,
        stale_autoscaler_rate_per_min: float = 0.0,
        group_size: int = 3,
        flap_count: int = 3,
        flap_interval: float = 0.5,
        fault_duration_s: float = 5.0,
        probe_loss_intensity: float = 0.5,
    ) -> "FaultSchedule":
        """Draw each fault kind from its own seeded Poisson process."""
        rates = {
            CRASH: crash_rate_per_min,
            FLAP: flap_rate_per_min,
            GROUP: group_rate_per_min,
            UNANNOUNCED_ADD: unannounced_rate_per_min,
            PROBE_LOSS: probe_loss_rate_per_min,
            STALE_AUTOSCALER: stale_autoscaler_rate_per_min,
        }
        windowed = (PROBE_LOSS, STALE_AUTOSCALER)
        events: List[FaultEvent] = []
        for kind, rate_per_min in rates.items():
            if rate_per_min <= 0:
                continue
            rng = random.Random(splitmix64(seed ^ _SALTS[kind]))
            rate = rate_per_min / 60.0
            now = rng.expovariate(rate)
            while now <= duration_s:
                events.append(
                    FaultEvent(
                        time=now,
                        kind=kind,
                        group_size=group_size if kind == GROUP else 0,
                        flap_count=flap_count if kind == FLAP else 0,
                        flap_interval=flap_interval if kind == FLAP else 0.0,
                        duration=fault_duration_s if kind in windowed else 0.0,
                        intensity=probe_loss_intensity if kind == PROBE_LOSS else 0.0,
                    )
                )
                now += rng.expovariate(rate)
        return cls(tuple(events))


def chaos_mix(
    duration_s: float,
    fault_rate_per_min: float,
    seed: int = 0,
    group_size: int = 3,
) -> FaultSchedule:
    """The canonical mixed-fault workload used by the resilience sweep.

    One scalar knob splits into the four kinds with fixed proportions
    (1/2 crash, 1/4 flap, 1/8 group, 1/8 unannounced) so sweeping the
    knob scales *all* failure modes together.
    """
    if fault_rate_per_min <= 0:
        return FaultSchedule()
    return FaultSchedule.generate(
        duration_s,
        seed=seed,
        crash_rate_per_min=fault_rate_per_min / 2,
        flap_rate_per_min=fault_rate_per_min / 4,
        group_rate_per_min=fault_rate_per_min / 8,
        unannounced_rate_per_min=fault_rate_per_min / 8,
        group_size=group_size,
    )

