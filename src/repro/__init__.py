"""JET: Just Enough Tracking for Connection Consistency.

A from-scratch Python reproduction of *"Load Balancing with JET: Just
Enough Tracking for Connection Consistency"* (Mendelson, Vargaftik,
Lorenz, Barabash, Keslassy, Orda -- CoNEXT 2021).

Quickstart::

    from repro import make_jet

    lb = make_jet("anchor", working=[f"10.0.0.{i}" for i in range(1, 11)],
                  horizon=["10.0.1.1"])
    server = lb.get_destination(hash_key(("1.2.3.4", 443, "src", 12345)))

Package map:

- :mod:`repro.core`      -- the JET framework (Algorithm 1) + baselines
- :mod:`repro.ch`        -- consistent hashes (HRW, Ring, Table, Anchor,
  Maglev, Jump, mod-N)
- :mod:`repro.ct`        -- connection-tracking tables (the unbounded
  columnar table; LRU/FIFO/random/TTL)
- :mod:`repro.sim`       -- the Section 5.1 event-driven simulator
- :mod:`repro.traces`    -- synthetic traces + replay (Sections 5.2-5.3)
- :mod:`repro.analysis`  -- balance/statistics helpers
- :mod:`repro.experiments` -- every table and figure, runnable
- :mod:`repro.faults`    -- deterministic fault injection: chaos
  schedules, health probation
- :mod:`repro.control`   -- the closed-loop control plane, including
  gossip CT sync for LB pools
"""

from repro.core import (
    BoundedLoadJET,
    FullCTLoadBalancer,
    JETLoadBalancer,
    LoadBalancer,
    PowerOfTwoJET,
    StatelessLoadBalancer,
    make_ch,
    make_full_ct,
    make_jet,
)
from repro.core.lb_pool import LBPool
from repro.ch import (
    AnchorHash,
    BackendError,
    ConsistentHash,
    HorizonConsistentHash,
    HRWHash,
    JumpHash,
    MaglevHash,
    ModuloHash,
    RingHash,
    TableHRWHash,
)
from repro.ct import FIFOCT, LRUCT, RandomEvictCT, TTLCT, UnboundedCT, make_ct
from repro.faults import (
    ChaosInjector,
    FaultEvent,
    FaultSchedule,
    HealthMonitor,
    chaos_mix,
)
from repro.hashing.keyed import hash_key
from repro.net import FiveTuple
from repro.sim import SimulationConfig, run_simulation
from repro.traces import Trace, ny18_like, replay, uni1_like, zipf_trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "LoadBalancer",
    "JETLoadBalancer",
    "FullCTLoadBalancer",
    "StatelessLoadBalancer",
    "PowerOfTwoJET",
    "LBPool",
    "BoundedLoadJET",
    "make_jet",
    "make_full_ct",
    "make_ch",
    # consistent hashing
    "ConsistentHash",
    "HorizonConsistentHash",
    "BackendError",
    "HRWHash",
    "RingHash",
    "TableHRWHash",
    "AnchorHash",
    "MaglevHash",
    "JumpHash",
    "ModuloHash",
    # connection tracking
    "UnboundedCT",
    "LRUCT",
    "FIFOCT",
    "RandomEvictCT",
    "TTLCT",
    "make_ct",
    # networking + hashing
    "FiveTuple",
    "hash_key",
    # simulation + traces
    "SimulationConfig",
    "run_simulation",
    "Trace",
    "zipf_trace",
    "uni1_like",
    "ny18_like",
    "replay",
]
