"""repro.control -- the closed-loop control plane.

Everything the dataplane (JET, LB pools) takes as given -- who is in W,
what is about to be added (H), which CT entries peers have -- is produced
here by feedback instead of fiat:

- :mod:`repro.control.autoscaler` -- predictive scale-out whose pending
  launches *are* the JET horizon, with a precision/recall scorecard;
- :mod:`repro.control.prober`     -- evidence-based membership via
  periodic health probes with thresholds and probation readmission;
- :mod:`repro.control.gossip`     -- eventually-consistent CT replication
  (fanout-k epidemic rounds, versioned deltas, anti-entropy), the one
  fallible channel an LB pool can sync through, and the sync bill;
- :mod:`repro.control.loop`       -- the periodic tick binding them to
  the event-driven simulator as a plug-in (the dynamic-|H| horizon is
  ``repro.sim.backend.HorizonManager`` with a ``cap`` and no standbys).
"""

from repro.control.autoscaler import Autoscaler, HorizonScorecard, ScaleDecision
from repro.control.gossip import GossipSync, SyncStats
from repro.control.loop import ControlLoop
from repro.control.prober import HealthProber, ProbeStats

__all__ = [
    "Autoscaler",
    "ControlLoop",
    "GossipSync",
    "HealthProber",
    "HorizonScorecard",
    "ProbeStats",
    "ScaleDecision",
    "SyncStats",
]
