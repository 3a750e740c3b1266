"""Event-driven simulation of hash-based stateful load balancing (Sec. 5.1)."""

from repro.sim.distributions import (
    BoundedPareto,
    Constant,
    Distribution,
    Exponential,
    LogNormal,
    Mixture,
    hadoop_flow_duration,
    hadoop_flow_size,
    server_downtime,
)
from repro.sim.engine import EventDrivenSimulation
from repro.sim.backend import HorizonManager
from repro.sim.metrics import LoadTracker, SimResult, merge_sim_results
from repro.sim.scenario import (
    PAPER_HORIZON,
    PAPER_N_SERVERS,
    SimulationConfig,
    build_balancer,
    run_simulation,
)
from repro.sim.workload import Flow, WorkloadGenerator

__all__ = [
    "Distribution",
    "Constant",
    "Exponential",
    "LogNormal",
    "BoundedPareto",
    "Mixture",
    "hadoop_flow_size",
    "hadoop_flow_duration",
    "server_downtime",
    "EventDrivenSimulation",
    "HorizonManager",
    "LoadTracker",
    "SimResult",
    "merge_sim_results",
    "SimulationConfig",
    "run_simulation",
    "build_balancer",
    "WorkloadGenerator",
    "Flow",
    "PAPER_N_SERVERS",
    "PAPER_HORIZON",
]
