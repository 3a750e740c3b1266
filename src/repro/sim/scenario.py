"""Simulation configuration and entry points.

:class:`SimulationConfig` exposes the six knobs the paper's Section 5.1
lists -- connection rate, size distribution, duration distribution,
backend update rate, down-time distribution, CT table size -- plus the
reproduction's scaling and plumbing parameters (LB mode, CH family, seed).

The paper's "connection rate" is the nominal number of *concurrent*
connections (their 100K-rate / 1000 s runs produce ~5M connections, i.e.
a Poisson arrival rate of connection_rate / mean-duration).  We keep that
convention so CT-table sizes stated as fractions of the connection rate
line up with Figs. 3-4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.core.factories import make_lb
from repro.ct import Clock, make_ct
from repro.sim.distributions import (
    Distribution,
    hadoop_flow_duration,
    hadoop_flow_size,
    server_downtime,
)
from repro.sim.engine import EventDrivenSimulation
from repro.sim.metrics import SimResult
from repro.sim.workload import RateProfile, WorkloadGenerator

#: Backend size used throughout the paper's event-driven simulations.
PAPER_N_SERVERS = 468
#: The paper's "horizon 10%" for 468 servers.
PAPER_HORIZON = 47


@dataclass
class SimulationConfig:
    """All knobs for one event-driven run (paper defaults, scaled down)."""

    duration_s: float = 100.0
    connection_rate: float = 2_000.0  # nominal concurrent connections
    n_servers: int = PAPER_N_SERVERS
    horizon_size: int = PAPER_HORIZON
    update_rate_per_min: float = 10.0
    ct_capacity: Optional[int] = None  # None = unbounded
    ct_policy: str = "lru"  # lru | fifo | random | ttl
    ct_ttl: Optional[float] = None  # idle timeout for ct_policy="ttl"
    mode: str = "jet"  # jet | full | stateless | p2c | jet-p2c | concury
    ch_family: str = "anchor"
    ch_kwargs: Dict = field(default_factory=dict)
    #: Per-server capacity weights (heterogeneous fleets); None = uniform.
    #: The families that take weights ("hrw", "ring") read them as
    #: capacities, "jet-p2c" as occupancy normalizers, and the engine's
    #: expected-tracked-fraction accounting generalizes to
    #: weight(H)/(weight(W)+weight(H)) whenever the CH carries weights.
    server_weights: Optional[Dict] = None
    #: Extra per-server health-probe loss probability (asymmetric-latency
    #: zones in repro.scenarios); composes with the global probability.
    probe_loss_by_server: Optional[Dict] = None
    seed: int = 0
    #: Separate seed for the workload stream only (None = use ``seed``).
    #: The sharded simulator sets this per shard so shards draw disjoint
    #: flow populations while the engine seed -- and with it the whole
    #: membership/churn schedule -- stays identical in every shard.
    workload_seed: Optional[int] = None
    sample_interval: float = 1.0
    warmup_s: Optional[float] = None  # balance-metric warmup; default 20%
    arrival_rate: Optional[float] = None  # derived if None
    size_dist: Optional[Distribution] = None
    duration_dist: Optional[Distribution] = None
    downtime_dist: Optional[Distribution] = None
    # Adversarial churn (repro.faults); None keeps the polite §5 model.
    fault_schedule: Optional[object] = None  # FaultSchedule
    fault_window_s: float = 10.0
    probation_base_s: float = 1.0
    probation_cap_s: float = 60.0
    # Observability (repro.obs); None is off and costs nothing.
    registry: Optional[object] = None  # repro.obs.Registry
    # Closed-loop control plane (repro.control); False keeps exogenous H.
    control: bool = False
    control_interval_s: float = 0.5
    scale_lead_time_s: float = 5.0
    #: Active flows per server the autoscaler targets; None derives it
    #: from the nominal concurrency (connection_rate / n_servers).
    target_load_per_server: Optional[float] = None
    forecast_precision: float = 1.0
    forecast_recall: float = 1.0
    autoscale_max: int = 8
    probe_fail_threshold: int = 3
    probe_recover_threshold: int = 2
    probe_loss_probability: float = 0.0
    #: Time-varying arrival rate (flash crowd / diurnal); None keeps the
    #: homogeneous Poisson workload bit-identical to the seed generator.
    rate_profile: Optional[object] = None  # RateProfile

    def with_(self, **changes) -> "SimulationConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)


def build_balancer(config: SimulationConfig):
    """Construct the LB (CH + CT + wrapper) a config describes."""
    working = list(range(config.n_servers))
    if config.control:
        # Closed loop: H starts empty -- the control plane announces
        # pending changes into it; no exogenous standby identities.
        standby = []
    else:
        standby = list(range(config.n_servers, config.n_servers + config.horizon_size))
    ch_kwargs = dict(config.ch_kwargs)
    if config.ch_family == "anchor" and "capacity" not in ch_kwargs:
        # Leave headroom for forced additions and horizon churn; chaos
        # schedules can force-add brand-new identities, each needing a slot.
        extra = 0
        if config.fault_schedule is not None:
            extra = 2 * sum(
                1 for e in config.fault_schedule if e.kind == "unannounced_add"
            )
        if config.control:
            # Autoscaled servers and phantom announcements are brand-new
            # identities too; reserve room for a full run's worth.
            extra += 4 * config.autoscale_max + 64
        ch_kwargs["capacity"] = 2 * (config.n_servers + config.horizon_size) + 16 + extra
    clock = Clock() if config.ct_policy == "ttl" else None
    ct = make_ct(
        config.ct_capacity,
        config.ct_policy,
        seed=config.seed,
        ttl=config.ct_ttl,
        clock=clock,
    )
    # make_lb decides what builds; each stack takes what it uses of the
    # CT, the weights and the seed (for "concury" ch_family names the
    # *inner* control-plane CH).
    balancer = make_lb(
        config.mode, config.ch_family, working, standby,
        ct=ct, weights=config.server_weights, master_seed=config.seed, **ch_kwargs,
    )
    return balancer, working, standby


def run_simulation(config: SimulationConfig) -> SimResult:
    """Run one event-driven simulation and return its metrics."""
    duration_dist = config.duration_dist or hadoop_flow_duration()
    size_dist = config.size_dist or hadoop_flow_size()
    downtime_dist = config.downtime_dist or server_downtime()
    arrival_rate = config.arrival_rate
    if arrival_rate is None:
        arrival_rate = config.connection_rate / duration_dist.mean()

    balancer, working, standby = build_balancer(config)
    rate_profile = config.rate_profile
    if rate_profile is not None and not isinstance(rate_profile, RateProfile):
        raise TypeError("rate_profile must be a repro.sim.workload.RateProfile")
    workload = WorkloadGenerator(
        arrival_rate=arrival_rate,
        size_dist=size_dist,
        duration_dist=duration_dist,
        seed=config.seed if config.workload_seed is None else config.workload_seed,
        rate_profile=rate_profile,
    )
    injector = None
    if config.fault_schedule is not None and len(config.fault_schedule):
        from repro.faults import ChaosInjector, HealthMonitor

        injector = ChaosInjector(
            config.fault_schedule,
            health=HealthMonitor(
                base_s=config.probation_base_s, cap_s=config.probation_cap_s
            ),
            fault_window_s=config.fault_window_s,
            registry=config.registry,
        )
    controller = build_controller(config, arrival_rate, duration_dist)
    sim = EventDrivenSimulation(
        balancer=balancer,
        workload=workload,
        working_servers=working,
        standby_servers=standby,
        duration_s=config.duration_s,
        update_rate_per_min=config.update_rate_per_min,
        downtime_dist=downtime_dist,
        seed=config.seed,
        sample_interval=config.sample_interval,
        warmup_s=config.warmup_s,
        injector=injector,
        registry=config.registry,
        controller=controller,
        horizon_cap=max(config.horizon_size, 1),
    )
    return sim.run()


def build_controller(config: SimulationConfig, arrival_rate: float, duration_dist):
    """Construct the closed-loop controller a config asks for (or None)."""
    if not config.control:
        return None
    from repro.control import Autoscaler, ControlLoop, HealthProber
    from repro.faults import HealthMonitor

    target = config.target_load_per_server
    if target is None:
        # Steady-state concurrency is arrival_rate * mean duration
        # (Little's law); spread over the baseline fleet.
        target = arrival_rate * duration_dist.mean() / config.n_servers
    autoscaler = Autoscaler(
        target_load=max(target, 1e-9),
        lead_time_s=config.scale_lead_time_s,
        cooldown_s=4 * config.control_interval_s,
        forecast_precision=config.forecast_precision,
        forecast_recall=config.forecast_recall,
        seed=config.seed,
    )
    prober = HealthProber(
        is_up=lambda name: True,  # rebound to the engine oracle at attach
        fail_threshold=config.probe_fail_threshold,
        recover_threshold=config.probe_recover_threshold,
        loss_probability=config.probe_loss_probability,
        loss_by_target=config.probe_loss_by_server,
        monitor=HealthMonitor(
            base_s=config.probation_base_s, cap_s=config.probation_cap_s
        ),
        seed=config.seed,
    )
    controller = ControlLoop(
        autoscaler,
        prober,
        interval_s=config.control_interval_s,
        max_extra=config.autoscale_max,
    )
    if config.registry is not None:
        from repro.obs.collectors import instrument_controller

        instrument_controller(config.registry, controller)
    return controller


def run_paired(config: SimulationConfig) -> Dict[str, SimResult]:
    """Run JET and full CT on the *same seed* (identical event sequences);
    the Proposition 4.1 comparison setup."""
    return {
        "jet": run_simulation(config.with_(mode="jet")),
        "full": run_simulation(config.with_(mode="full")),
    }
