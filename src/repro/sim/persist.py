"""Persist the *effective* configuration of a simulation run.

``repro simulate`` (and ``repro scenario run``) assemble a
:class:`~repro.sim.scenario.SimulationConfig` from CLI flags, scenario
compilation, seeded fault-schedule generation, and scale presets -- and
until now none of that was recoverable from a run's artifacts.  This
module serializes the full effective config (seed, family, mode, chaos
schedule, rate profile, distributions, weights) to JSON and loads it
back, so any run is reproducible from its ``--config-out`` file alone::

    repro simulate --scenario flash-crowd --config-out run.json
    repro simulate --config run.json          # byte-identical re-run

Runtime-only objects are excluded by design: the ``registry`` field is
an attached live object (re-attach one at load time; the
obs-differential invariant guarantees it cannot change results).

Rate profiles serialize via their declarative ``spec`` (recorded by the
classmethod constructors); a hand-rolled ``RateProfile`` with no spec is
rejected with an actionable error rather than silently dropped.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Dict, List, Optional

from repro.faults.events import FaultEvent, FaultSchedule
from repro.sim.distributions import (
    BoundedPareto,
    Constant,
    Distribution,
    Exponential,
    LogNormal,
    Mixture,
)
from repro.sim.scenario import SimulationConfig
from repro.sim.workload import RateProfile

#: Format tag so future layout changes stay loadable.
FORMAT = "repro-simulation-config/1"


class PersistError(ValueError):
    """A config (or one of its parts) cannot be serialized/loaded."""


# ----------------------------------------------------------- distributions
def dist_to_dict(dist: Distribution) -> Dict[str, Any]:
    if isinstance(dist, Constant):
        return {"kind": "constant", "value": dist.value}
    if isinstance(dist, Exponential):
        return {"kind": "exponential", "mean": dist.mean()}
    if isinstance(dist, LogNormal):
        import math

        return {
            "kind": "lognormal",
            "median": math.exp(dist.mu),
            "sigma": dist.sigma,
        }
    if isinstance(dist, BoundedPareto):
        return {
            "kind": "bounded_pareto",
            "alpha": dist.alpha,
            "minimum": dist.minimum,
            "maximum": dist.maximum,
        }
    if isinstance(dist, Mixture):
        components: List[List[Any]] = []
        previous = 0.0
        for threshold, part in zip(dist._weights, dist._dists):
            components.append([threshold - previous, dist_to_dict(part)])
            previous = threshold
        return {"kind": "mixture", "components": components}
    raise PersistError(
        f"cannot serialize distribution {type(dist).__name__}; "
        "supported: Constant, Exponential, LogNormal, BoundedPareto, Mixture"
    )


def dist_from_dict(payload: Dict[str, Any]) -> Distribution:
    kind = payload.get("kind")
    if kind == "constant":
        return Constant(payload["value"])
    if kind == "exponential":
        return Exponential(payload["mean"])
    if kind == "lognormal":
        return LogNormal(median=payload["median"], sigma=payload["sigma"])
    if kind == "bounded_pareto":
        return BoundedPareto(payload["alpha"], payload["minimum"], payload["maximum"])
    if kind == "mixture":
        return Mixture(
            [(weight, dist_from_dict(part)) for weight, part in payload["components"]]
        )
    raise PersistError(f"unknown distribution kind {kind!r}")


# ---------------------------------------------------------- fault schedule
_EVENT_DEFAULTS = {f.name: f.default for f in fields(FaultEvent)}


def _event_to_dict(event: FaultEvent) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"time": event.time, "kind": event.kind}
    for name, default in _EVENT_DEFAULTS.items():
        if name in ("time", "kind"):
            continue
        value = getattr(event, name)
        if name == "targets":
            if value:
                payload[name] = list(value)
            continue
        if value != default:
            payload[name] = value
    return payload


def schedule_to_list(schedule: FaultSchedule) -> List[Dict[str, Any]]:
    return [_event_to_dict(event) for event in schedule]


def schedule_from_list(events: List[Dict[str, Any]]) -> FaultSchedule:
    parsed = []
    for payload in events:
        kwargs = dict(payload)
        if "targets" in kwargs:
            kwargs["targets"] = tuple(kwargs["targets"])
        parsed.append(FaultEvent(**kwargs))
    return FaultSchedule(tuple(parsed))


# ------------------------------------------------------------ rate profile
def profile_to_dict(profile: RateProfile) -> Dict[str, Any]:
    if profile.spec is None:
        raise PersistError(
            "rate profile has no declarative spec (built from a raw callable); "
            "construct it via RateProfile.flat/flash_crowd/diurnal to persist it"
        )
    return dict(profile.spec)


def profile_from_dict(payload: Dict[str, Any]) -> RateProfile:
    kind = payload.get("kind")
    params = {k: v for k, v in payload.items() if k != "kind"}
    factory = {
        "flat": RateProfile.flat,
        "flash_crowd": RateProfile.flash_crowd,
        "diurnal": RateProfile.diurnal,
    }.get(kind)
    if factory is None:
        raise PersistError(f"unknown rate-profile kind {kind!r}")
    return factory(**params)


# ----------------------------------------------------- name-keyed mappings
def _pairs(mapping: Optional[Dict[Any, Any]]) -> Optional[List[List[Any]]]:
    """Encode a name-keyed dict as [name, value] pairs: JSON object keys
    are always strings, which would silently corrupt integer server names."""
    if mapping is None:
        return None
    return [[name, value] for name, value in mapping.items()]


def _unpairs(pairs: Optional[List[List[Any]]]) -> Optional[Dict[Any, Any]]:
    if pairs is None:
        return None
    return {name: value for name, value in pairs}


# ------------------------------------------------------------- the config
#: Fields that carry live runtime objects and are never persisted.
_RUNTIME_FIELDS = ("registry",)
#: Keys older files carry for options since removed; skipped on load
#: (either value gave identical results by contract), never written.
_RETIRED_FIELDS = ("coalesce_packets",)
#: Fields with dedicated encoders.
_SPECIAL_FIELDS = (
    "fault_schedule",
    "rate_profile",
    "size_dist",
    "duration_dist",
    "downtime_dist",
    "server_weights",
    "probe_loss_by_server",
) + _RUNTIME_FIELDS


def config_to_dict(config: SimulationConfig) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"format": FORMAT}
    for f in fields(SimulationConfig):
        if f.name in _SPECIAL_FIELDS:
            continue
        payload[f.name] = getattr(config, f.name)
    schedule = config.fault_schedule
    payload["fault_schedule"] = (
        schedule_to_list(schedule) if schedule is not None else None
    )
    payload["rate_profile"] = (
        profile_to_dict(config.rate_profile)
        if config.rate_profile is not None
        else None
    )
    for name in ("size_dist", "duration_dist", "downtime_dist"):
        dist = getattr(config, name)
        payload[name] = dist_to_dict(dist) if dist is not None else None
    payload["server_weights"] = _pairs(config.server_weights)
    payload["probe_loss_by_server"] = _pairs(config.probe_loss_by_server)
    return payload


def config_from_dict(payload: Dict[str, Any]) -> SimulationConfig:
    if payload.get("format") != FORMAT:
        raise PersistError(
            f"unrecognized config format {payload.get('format')!r}; "
            f"expected {FORMAT!r}"
        )
    known = {f.name for f in fields(SimulationConfig)}
    kwargs: Dict[str, Any] = {}
    for name, value in payload.items():
        if name == "format" or name in _RUNTIME_FIELDS or name in _RETIRED_FIELDS:
            continue
        if name not in known:
            raise PersistError(f"unknown config field {name!r}")
        kwargs[name] = value
    if kwargs.get("fault_schedule") is not None:
        kwargs["fault_schedule"] = schedule_from_list(kwargs["fault_schedule"])
    if kwargs.get("rate_profile") is not None:
        kwargs["rate_profile"] = profile_from_dict(kwargs["rate_profile"])
    for name in ("size_dist", "duration_dist", "downtime_dist"):
        if kwargs.get(name) is not None:
            kwargs[name] = dist_from_dict(kwargs[name])
    kwargs["server_weights"] = _unpairs(kwargs.get("server_weights"))
    kwargs["probe_loss_by_server"] = _unpairs(kwargs.get("probe_loss_by_server"))
    if kwargs.get("ch_kwargs") is None:
        kwargs["ch_kwargs"] = {}
    return SimulationConfig(**kwargs)


def save_config(config: SimulationConfig, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(config_to_dict(config), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_config(path: str) -> SimulationConfig:
    with open(path) as handle:
        return config_from_dict(json.load(handle))
