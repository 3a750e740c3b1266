"""Health monitoring with probation and exponential backoff.

The paper's operational contract (§2.2-2.3) readmits a recovered server
through the horizon: the server is announced in ``H`` *before* it serves
traffic, so JET has tracked every connection its addition could move.
The seed simulator honoured that protocol but readmitted *instantly* --
a flapping backend would cycle through ``W`` as fast as it failed,
shrinking the window in which its identity sits in the horizon and
amplifying unanticipated additions.

:class:`HealthMonitor` inserts a probation stage between "recovered" and
"readmitted":

``HEALTHY --failure--> FAILED --(downtime elapses)--> PROBATION
--(backoff elapses)--> HEALTHY``

Each failure within :data:`PROBATION_DECAY_S` of the previous one
multiplies the probation delay by :data:`PROBATION_MULTIPLIER`, capped at
:data:`PROBATION_CAP_S`; a server that stays healthy that long resets to
the base delay.  The delay is *added on top of* the natural downtime, so
readmission remains a proper horizon addition -- just a damped one.  The
monitor holds no RNG and performs no I/O; delays are pure functions of
the failure history, which keeps chaos runs bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.interfaces import Name

#: Factor between the delays of consecutive failures in one burst.
PROBATION_MULTIPLIER = 2.0
#: The longest probation delay; also the largest base a run may set.
PROBATION_CAP_S = 60.0
#: A failure this long after the previous one restarts the schedule.
PROBATION_DECAY_S = 30.0


@dataclass
class _ServerHealth:
    consecutive_failures: int = 0
    last_failure_at: float = 0.0
    in_probation: bool = False


class HealthMonitor:
    """Per-server failure history -> probation delay before readmission."""

    def __init__(self, base_s: float = 1.0):
        if not 0 <= base_s <= PROBATION_CAP_S:
            raise ValueError(f"need 0 <= base_s <= {PROBATION_CAP_S}")
        self.base_s = base_s
        self._servers: Dict[Name, _ServerHealth] = {}
        #: Total probation delay handed out (for reporting).
        self.total_probation_s = 0.0

    # ------------------------------------------------------------ events
    def record_failure(self, name: Name, now: float) -> float:
        """Note a failure; return the probation delay to add before the
        server may rejoin ``W`` (0.0 for a first, isolated failure)."""
        health = self._servers.setdefault(name, _ServerHealth())
        if now - health.last_failure_at > PROBATION_DECAY_S:
            health.consecutive_failures = 0  # stable period: history forgiven
        health.consecutive_failures += 1
        health.last_failure_at = now
        health.in_probation = True
        delay = self.delay_for(health.consecutive_failures)
        self.total_probation_s += delay
        return delay

    def note_recovered(self, name: Name, now: float) -> None:
        """The server re-entered ``W`` (its probation, if any, elapsed)."""
        health = self._servers.get(name)
        if health is not None:
            health.in_probation = False

    # ------------------------------------------------------------- state
    def delay_for(self, consecutive_failures: int) -> float:
        """The backoff schedule: 0, base, base*m, base*m^2, ... capped."""
        if consecutive_failures <= 1:
            return 0.0
        return min(
            self.base_s * PROBATION_MULTIPLIER ** (consecutive_failures - 2),
            PROBATION_CAP_S,
        )

    def failures(self, name: Name) -> int:
        health = self._servers.get(name)
        return health.consecutive_failures if health else 0

    def in_probation(self, name: Name) -> bool:
        health = self._servers.get(name)
        return bool(health and health.in_probation)
