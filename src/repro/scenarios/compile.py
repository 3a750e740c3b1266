"""Compile a declarative scenario into a runnable simulation config.

The compiler is a pure function of the spec: the same
:class:`~repro.scenarios.spec.ScenarioSpec` always compiles to the same
:class:`~repro.sim.scenario.SimulationConfig` -- fault schedule baked,
zone ranges resolved, weights and per-zone probe loss expanded to
per-server maps -- so a compiled scenario runs byte-stably through the
existing engine (``run_simulation``) and the sharded driver
(``simulate_sharded``) alike.

Timeline lowering (all through :mod:`repro.faults` event kinds; the
engine and injector are unchanged):

- ``rolling_deploy`` -- a sequence of ``group`` events with explicit
  ``targets`` batches and ``downtime`` pinned to the drain window: each
  batch goes down for exactly ``drain_s`` and comes back, marching
  through the fleet at ``interval_s`` spacing;
- ``zone_failure`` -- one ``group`` event whose ``targets`` are the
  zone's whole contiguous server range (correlated power-domain loss);
- ``region_failover`` -- a ``zone_failure`` whose blackout outlasts the
  run by default: the region does not come back, and (in closed-loop
  scenarios) the autoscaler must replace the capacity;
- ``flap_storm`` -- a burst of ``flap`` events (random victims, scripted
  count/interval), optionally spread over ``spread_s``;
- ``probe_blackout`` -- a ``probe_loss`` window blinding the prober;
- ``chaos`` -- background Poisson fault processes via
  :meth:`~repro.faults.events.FaultSchedule.generate` (seeded by the
  scenario seed, so the "random" chaos is part of the scenario identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.faults.events import (
    FLAP,
    GROUP,
    PROBE_LOSS,
    FaultEvent,
    FaultSchedule,
)
from repro.scenarios.spec import ScenarioSpec, TimelineEvent
from repro.sim.distributions import dist_from_dict
from repro.sim.scenario import SimulationConfig
from repro.sim.workload import profile_from_dict

#: How long past the end of the run a ``region_failover`` blackout lasts
#: by default -- long enough that the region never returns mid-run.
FAILOVER_BLACKOUT_SLACK_S = 60.0


@dataclass(frozen=True)
class CompiledScenario:
    """A scenario lowered to runnable form."""

    spec: ScenarioSpec
    config: SimulationConfig
    #: Zone name -> [start, end) server-name range (empty for flat fleets).
    zone_ranges: Dict[str, Tuple[int, int]]
    #: Pinned keyspace partition (``--workers`` never changes results).
    shards: int


def _zone_targets(ranges: Dict[str, Tuple[int, int]], zone: str) -> Tuple[int, ...]:
    start, end = ranges[zone]
    return tuple(range(start, end))


def _lower_event(
    event: TimelineEvent,
    spec: ScenarioSpec,
    ranges: Dict[str, Tuple[int, int]],
) -> List[FaultEvent]:
    when = event.resolve_time(spec.duration_s)
    params = event.params
    if event.kind == "rolling_deploy":
        count = params.get("servers", spec.fleet.servers)
        count = min(count, spec.fleet.servers)
        batch = params.get("batch", 1)
        interval = float(params["interval_s"])
        drain = float(params["drain_s"])
        events = []
        for step in range(math.ceil(count / batch)):
            targets = tuple(range(step * batch, min((step + 1) * batch, count)))
            events.append(
                FaultEvent(
                    time=when + step * interval,
                    kind=GROUP,
                    targets=targets,
                    downtime=drain,
                )
            )
        return events
    if event.kind == "zone_failure":
        downtime = params.get("downtime_s")
        return [
            FaultEvent(
                time=when,
                kind=GROUP,
                targets=_zone_targets(ranges, params["zone"]),
                downtime=float(downtime) if downtime is not None else None,
            )
        ]
    if event.kind == "region_failover":
        blackout = params.get("blackout_s")
        if blackout is None:
            blackout = spec.duration_s - when + FAILOVER_BLACKOUT_SLACK_S
        return [
            FaultEvent(
                time=when,
                kind=GROUP,
                targets=_zone_targets(ranges, params["zone"]),
                downtime=float(blackout),
            )
        ]
    if event.kind == "flap_storm":
        victims = params["victims"]
        flaps = params.get("flaps", 3)
        interval = float(params["interval_s"])
        spread = float(params.get("spread_s", 0.0))
        gap = spread / victims if victims > 1 and spread > 0 else 0.0
        return [
            FaultEvent(
                time=when + j * gap,
                kind=FLAP,
                flap_count=flaps,
                flap_interval=interval,
            )
            for j in range(victims)
        ]
    if event.kind == "probe_blackout":
        return [
            FaultEvent(
                time=when,
                kind=PROBE_LOSS,
                duration=float(params["duration_s"]),
                intensity=float(params["loss"]),
            )
        ]
    raise AssertionError(f"unhandled timeline kind {event.kind!r}")  # pragma: no cover


def build_fault_schedule(spec: ScenarioSpec) -> Optional[FaultSchedule]:
    """The scenario's full fault schedule: scripted timeline events merged
    with seeded background chaos; ``None`` when the timeline is empty."""
    ranges = spec.fleet.zone_ranges()
    events: List[FaultEvent] = []
    chaos: Optional[FaultSchedule] = None
    for event in spec.timeline:
        if event.kind == "chaos":
            generated = FaultSchedule.generate(
                spec.duration_s, seed=spec.seed, **dict(event.params)
            )
            chaos = generated if chaos is None else chaos.merged(generated)
        else:
            events.extend(_lower_event(event, spec, ranges))
    if not events and chaos is None:
        return None
    schedule = FaultSchedule(tuple(events))
    if chaos is not None:
        schedule = schedule.merged(chaos)
    return schedule


def _fleet_maps(spec: ScenarioSpec):
    """Expand zones into per-server weight and probe-loss maps."""
    weights: Dict[int, float] = {}
    probe_loss: Dict[int, float] = {}
    for zone in spec.fleet.zones:
        start, end = spec.fleet.zone_ranges()[zone.name]
        for server in range(start, end):
            if zone.weight != 1.0:
                weights[server] = zone.weight
            if zone.probe_loss > 0.0:
                probe_loss[server] = zone.probe_loss
    return (weights or None), (probe_loss or None)


def _distribution(written):
    """A document's distribution field -> what ``SimulationConfig`` takes
    (None = the paper-calibrated default ``run_simulation`` fills in)."""
    return None if written in (None, "hadoop") else dist_from_dict(written)


def compile_scenario(
    spec: ScenarioSpec, seed: Optional[int] = None
) -> CompiledScenario:
    """Lower a spec to a :class:`CompiledScenario`.

    ``seed`` overrides the spec's seed (sweeps re-seed scenarios without
    editing files); everything downstream -- chaos schedule included --
    derives from the effective seed.
    """
    spec = spec.with_(seed=seed)
    weights, probe_loss = _fleet_maps(spec)
    workload = spec.workload
    control_kwargs: Dict[str, object] = {}
    if spec.control is not None:
        control = spec.control
        control_kwargs = {
            "control": True,
            "control_interval_s": control.interval_s,
            "scale_lead_time_s": control.lead_time_s,
            "autoscale_max": control.autoscale_max,
            "target_load_per_server": control.target_load_per_server,
            "forecast_precision": control.forecast_precision,
            "forecast_recall": control.forecast_recall,
            "probe_fail_threshold": control.probe_fail_threshold,
            "probe_recover_threshold": control.probe_recover_threshold,
            "probe_loss_probability": control.probe_loss_probability,
        }
    config = SimulationConfig(
        duration_s=spec.duration_s,
        connection_rate=workload.connection_rate,
        n_servers=spec.fleet.servers,
        horizon_size=spec.fleet.horizon,
        update_rate_per_min=spec.update_rate_per_min,
        ct_capacity=spec.ct_capacity,
        ct_policy=spec.ct_policy,
        ct_ttl=spec.ct_ttl,
        mode=spec.mode,
        ch_family=spec.ch_family,
        ch_kwargs=dict(spec.ch_kwargs),
        server_weights=weights,
        probe_loss_by_server=probe_loss,
        seed=spec.seed,
        sample_interval=spec.sample_interval,
        warmup_s=spec.warmup_s,
        size_dist=_distribution(workload.flow_size),
        duration_dist=_distribution(workload.flow_duration),
        downtime_dist=_distribution(spec.downtime),
        rate_profile=(
            profile_from_dict(workload.rate_profile)
            if workload.rate_profile is not None
            else None
        ),
        fault_schedule=build_fault_schedule(spec),
        probation_base_s=spec.probation_base_s,
        **control_kwargs,
    )
    return CompiledScenario(
        spec=spec,
        config=config,
        zone_ranges=spec.fleet.zone_ranges(),
        shards=spec.shards,
    )
