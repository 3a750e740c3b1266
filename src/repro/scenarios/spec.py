"""Declarative scenario specs: schema, strict parsing, round-tripping.

A *scenario* is a production-shaped situation described declaratively --
fleet shape (zones, heterogeneous capacities), workload (rate profile,
flow mixes), a membership/chaos timeline (rolling deploy, correlated
zone failure, flap storms, multi-region failover), and an
**expected-envelope** block stating what the paper's theory predicts for
the run (tracked-fraction band vs |H|/(|W|+|H|), max breakage, balance
CV bound, gossip-staleness decay).  The spec compiles into a
:class:`~repro.sim.scenario.SimulationConfig` plus a scripted
:class:`~repro.faults.events.FaultSchedule` (:mod:`.compile`) and the
envelope compiles into :mod:`repro.obs` invariant monitors
(:mod:`.envelope`) evaluated at run end.

Parsing is **strict**: unknown fields, wrong types, and inconsistent
envelopes are rejected with a :class:`ScenarioError` naming the exact
field path -- a scenario file that parses is a scenario that runs.

Files are JSON (always) or TOML (Python 3.11+, via ``tomllib``); the
library ships JSON so every supported interpreter can load it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.factories import lb_mode_choices

#: LB modes a scenario may select (registry names + the legacy alias).
MODES = tuple(lb_mode_choices(aliases=True))

#: Timeline event kinds (see ``compile.py`` for their fault semantics).
TIMELINE_KINDS = (
    "rolling_deploy",
    "zone_failure",
    "region_failover",
    "flap_storm",
    "probe_blackout",
    "chaos",
)


class ScenarioError(ValueError):
    """A scenario spec is malformed; the message names the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ScenarioError(path, f"expected a table/object, got {type(value).__name__}")
    return value


def _check_known(data: Mapping[str, Any], allowed: Tuple[str, ...], path: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(
            path,
            f"unknown field(s) {unknown}; expected a subset of {sorted(allowed)}",
        )


def _get(
    data: Mapping[str, Any],
    key: str,
    path: str,
    types: tuple,
    default: Any = None,
    required: bool = False,
    type_name: Optional[str] = None,
):
    if key not in data or data[key] is None:
        if required:
            raise ScenarioError(f"{path}.{key}", "required field is missing")
        return default
    value = data[key]
    # bool is an int subclass; reject it where a number is expected.
    if isinstance(value, bool) and bool not in types:
        raise ScenarioError(f"{path}.{key}", "expected a number, got a boolean")
    if not isinstance(value, types):
        wanted = type_name or "/".join(t.__name__ for t in types)
        raise ScenarioError(
            f"{path}.{key}", f"expected {wanted}, got {type(value).__name__}"
        )
    return value


def _positive(value, path: str, strict: bool = True):
    if value is None:
        return None
    if strict and value <= 0:
        raise ScenarioError(path, f"must be positive, got {value}")
    if not strict and value < 0:
        raise ScenarioError(path, f"must be non-negative, got {value}")
    return value


# ------------------------------------------------------------------ fleet
@dataclass(frozen=True)
class ZoneSpec:
    """One failure domain: ``servers`` backends of capacity ``weight``,
    probed over a path that drops an extra ``probe_loss`` of probes
    (asymmetric-latency regions)."""

    name: str
    servers: int
    weight: float = 1.0
    probe_loss: float = 0.0

    @staticmethod
    def parse(data: Mapping[str, Any], path: str) -> "ZoneSpec":
        data = _require_mapping(data, path)
        _check_known(data, ("name", "servers", "weight", "probe_loss"), path)
        name = _get(data, "name", path, (str,), required=True)
        servers = _get(data, "servers", path, (int,), required=True)
        _positive(servers, f"{path}.servers")
        weight = float(_get(data, "weight", path, (int, float), default=1.0))
        _positive(weight, f"{path}.weight")
        probe_loss = float(_get(data, "probe_loss", path, (int, float), default=0.0))
        if not 0.0 <= probe_loss < 1.0:
            raise ScenarioError(f"{path}.probe_loss", "must be in [0, 1)")
        return ZoneSpec(name=name, servers=servers, weight=weight, probe_loss=probe_loss)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "servers": self.servers,
            "weight": self.weight,
            "probe_loss": self.probe_loss,
        }


@dataclass(frozen=True)
class FleetSpec:
    """Backend fleet shape: either a flat ``servers`` count or a list of
    ``zones`` (contiguous server ranges, in order).  ``horizon`` is the
    exogenous standby horizon size (ignored under closed-loop control,
    where it caps announcements instead)."""

    servers: int
    horizon: int
    zones: Tuple[ZoneSpec, ...] = ()

    @staticmethod
    def parse(data: Mapping[str, Any], path: str = "fleet") -> "FleetSpec":
        data = _require_mapping(data, path)
        _check_known(data, ("servers", "horizon", "zones"), path)
        horizon = _get(data, "horizon", path, (int,), required=True)
        _positive(horizon, f"{path}.horizon")
        zones_raw = _get(data, "zones", path, (list, tuple), default=[])
        zones = tuple(
            ZoneSpec.parse(zone, f"{path}.zones[{i}]")
            for i, zone in enumerate(zones_raw)
        )
        names = [zone.name for zone in zones]
        if len(set(names)) != len(names):
            raise ScenarioError(f"{path}.zones", f"duplicate zone names in {names}")
        servers = _get(data, "servers", path, (int,))
        if zones:
            zone_total = sum(zone.servers for zone in zones)
            if servers is not None and servers != zone_total:
                raise ScenarioError(
                    f"{path}.servers",
                    f"{servers} contradicts the zone total {zone_total}; "
                    "omit it or make them agree",
                )
            servers = zone_total
        elif servers is None:
            raise ScenarioError(f"{path}.servers", "required when no zones are given")
        _positive(servers, f"{path}.servers")
        return FleetSpec(servers=servers, horizon=horizon, zones=zones)

    def zone_ranges(self) -> Dict[str, Tuple[int, int]]:
        """Zone name -> [start, end) over the contiguous integer server
        names the compiler assigns, in declaration order."""
        ranges: Dict[str, Tuple[int, int]] = {}
        offset = 0
        for zone in self.zones:
            ranges[zone.name] = (offset, offset + zone.servers)
            offset += zone.servers
        return ranges

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"servers": self.servers, "horizon": self.horizon}
        if self.zones:
            payload["zones"] = [zone.to_dict() for zone in self.zones]
        return payload


# --------------------------------------------------------------- workload
_DIST_KINDS = ("constant", "exponential", "lognormal", "bounded_pareto", "mixture")


def _parse_dist_spec(data: Any, path: str) -> Any:
    """A distribution spec: the string "hadoop" (paper-calibrated mixture)
    or a dict understood by :mod:`repro.sim.persist`."""
    if isinstance(data, str):
        if data != "hadoop":
            raise ScenarioError(path, f"unknown named distribution {data!r}")
        return data
    data = _require_mapping(data, path)
    kind = data.get("kind")
    if kind not in _DIST_KINDS:
        raise ScenarioError(
            f"{path}.kind", f"expected one of {list(_DIST_KINDS)}, got {kind!r}"
        )
    from repro.sim.persist import PersistError, dist_from_dict

    try:
        dist_from_dict(dict(data))
    except PersistError as exc:
        raise ScenarioError(path, str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(path, f"bad distribution parameters: {exc}") from exc
    return dict(data)


_PROFILE_KINDS = ("flat", "flash_crowd", "diurnal")


def _parse_profile_spec(data: Any, path: str) -> Dict[str, Any]:
    data = _require_mapping(data, path)
    kind = data.get("kind")
    if kind not in _PROFILE_KINDS:
        raise ScenarioError(
            f"{path}.kind", f"expected one of {list(_PROFILE_KINDS)}, got {kind!r}"
        )
    from repro.sim.persist import PersistError, profile_from_dict

    try:
        profile_from_dict(dict(data))
    except PersistError as exc:
        raise ScenarioError(path, str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(path, f"bad rate-profile parameters: {exc}") from exc
    return dict(data)


@dataclass(frozen=True)
class WorkloadSpec:
    """Traffic shape: nominal concurrency, flow duration/size mixes, and
    an optional time-varying rate profile."""

    connection_rate: float
    flow_duration: Any = "hadoop"  # "hadoop" | distribution spec dict
    flow_size: Any = "hadoop"
    rate_profile: Optional[Dict[str, Any]] = None

    @staticmethod
    def parse(data: Mapping[str, Any], path: str = "workload") -> "WorkloadSpec":
        data = _require_mapping(data, path)
        _check_known(
            data, ("connection_rate", "flow_duration", "flow_size", "rate_profile"),
            path,
        )
        rate = _get(data, "connection_rate", path, (int, float), required=True)
        _positive(rate, f"{path}.connection_rate")
        duration = data.get("flow_duration", "hadoop")
        duration = _parse_dist_spec(duration, f"{path}.flow_duration")
        size = data.get("flow_size", "hadoop")
        size = _parse_dist_spec(size, f"{path}.flow_size")
        profile = data.get("rate_profile")
        if profile is not None:
            profile = _parse_profile_spec(profile, f"{path}.rate_profile")
        return WorkloadSpec(
            connection_rate=float(rate),
            flow_duration=duration,
            flow_size=size,
            rate_profile=profile,
        )

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "connection_rate": self.connection_rate,
            "flow_duration": self.flow_duration,
            "flow_size": self.flow_size,
        }
        if self.rate_profile is not None:
            payload["rate_profile"] = self.rate_profile
        return payload


# ---------------------------------------------------------------- control
@dataclass(frozen=True)
class ControlSpec:
    """Closed-loop control-plane settings; presence of the ``control``
    table turns the scenario into a closed-loop run (H = the autoscaler's
    pending launches, membership by probe evidence)."""

    interval_s: float = 0.5
    lead_time_s: float = 5.0
    autoscale_max: int = 8
    target_load_per_server: Optional[float] = None
    forecast_precision: float = 1.0
    forecast_recall: float = 1.0
    probe_fail_threshold: int = 3
    probe_recover_threshold: int = 2
    probe_loss_probability: float = 0.0

    _FIELDS = (
        "interval_s",
        "lead_time_s",
        "autoscale_max",
        "target_load_per_server",
        "forecast_precision",
        "forecast_recall",
        "probe_fail_threshold",
        "probe_recover_threshold",
        "probe_loss_probability",
    )

    @staticmethod
    def parse(data: Mapping[str, Any], path: str = "control") -> "ControlSpec":
        data = _require_mapping(data, path)
        _check_known(data, ControlSpec._FIELDS, path)
        kwargs: Dict[str, Any] = {}
        for key in ("interval_s", "lead_time_s"):
            value = _get(data, key, path, (int, float))
            if value is not None:
                kwargs[key] = float(_positive(value, f"{path}.{key}"))
        for key in ("autoscale_max", "probe_fail_threshold", "probe_recover_threshold"):
            value = _get(data, key, path, (int,))
            if value is not None:
                kwargs[key] = _positive(value, f"{path}.{key}")
        value = _get(data, "target_load_per_server", path, (int, float))
        if value is not None:
            kwargs["target_load_per_server"] = float(_positive(value, f"{path}.target_load_per_server"))
        for key in ("forecast_precision", "forecast_recall", "probe_loss_probability"):
            value = _get(data, key, path, (int, float))
            if value is not None:
                value = float(value)
                if not 0.0 <= value <= 1.0:
                    raise ScenarioError(f"{path}.{key}", "must be in [0, 1]")
                kwargs[key] = value
        return ControlSpec(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {}
        for key in self._FIELDS:
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return payload


# --------------------------------------------------------------- timeline
#: Per-kind allowed fields ("at"/"at_frac" are common to all but chaos).
_TIMELINE_FIELDS: Dict[str, Tuple[str, ...]] = {
    "rolling_deploy": ("servers", "batch", "interval_s", "drain_s"),
    "zone_failure": ("zone", "downtime_s"),
    "region_failover": ("zone", "blackout_s"),
    "flap_storm": ("victims", "flaps", "interval_s", "spread_s"),
    "probe_blackout": ("duration_s", "loss"),
    "chaos": (
        "crash_rate_per_min",
        "flap_rate_per_min",
        "group_rate_per_min",
        "unannounced_rate_per_min",
        "probe_loss_rate_per_min",
        "stale_autoscaler_rate_per_min",
        "group_size",
        "flap_count",
        "flap_interval",
        "fault_duration_s",
        "probe_loss_intensity",
    ),
}


@dataclass(frozen=True)
class TimelineEvent:
    """One scripted membership/chaos timeline entry.

    ``at`` is an absolute simulation time; ``at_frac`` expresses it as a
    fraction of the scenario duration instead (exactly one may be given,
    except for ``chaos``, which is a whole-run background process).
    """

    kind: str
    at: Optional[float] = None
    at_frac: Optional[float] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    @staticmethod
    def parse(data: Mapping[str, Any], path: str) -> "TimelineEvent":
        data = _require_mapping(data, path)
        kind = data.get("kind")
        if kind not in TIMELINE_KINDS:
            raise ScenarioError(
                f"{path}.kind", f"expected one of {list(TIMELINE_KINDS)}, got {kind!r}"
            )
        allowed = ("kind", "at", "at_frac") + _TIMELINE_FIELDS[kind]
        _check_known(data, allowed, path)
        at = _get(data, "at", path, (int, float))
        at_frac = _get(data, "at_frac", path, (int, float))
        if kind == "chaos":
            if at is not None or at_frac is not None:
                raise ScenarioError(
                    path, "chaos is a whole-run background process; drop at/at_frac"
                )
        else:
            if (at is None) == (at_frac is None):
                raise ScenarioError(path, "give exactly one of 'at' or 'at_frac'")
            if at is not None:
                _positive(float(at), f"{path}.at", strict=False)
            if at_frac is not None and not 0.0 <= float(at_frac) <= 1.0:
                raise ScenarioError(f"{path}.at_frac", "must be in [0, 1]")
        params = {
            key: value
            for key, value in data.items()
            if key not in ("kind", "at", "at_frac")
        }
        TimelineEvent._validate_params(kind, params, path)
        return TimelineEvent(
            kind=kind,
            at=float(at) if at is not None else None,
            at_frac=float(at_frac) if at_frac is not None else None,
            params=params,
        )

    @staticmethod
    def _validate_params(kind: str, params: Mapping[str, Any], path: str) -> None:
        def number(key, default=None, required=False, nonneg=False):
            value = _get(params, key, path, (int, float), default=default, required=required)
            if value is not None:
                _positive(float(value), f"{path}.{key}", strict=not nonneg)
            return value

        def integer(key, default=None, required=False):
            value = _get(params, key, path, (int,), default=default, required=required)
            if value is not None:
                _positive(value, f"{path}.{key}")
            return value

        if kind == "rolling_deploy":
            integer("servers")
            integer("batch", default=1)
            number("interval_s", required=True)
            number("drain_s", required=True)
        elif kind == "zone_failure":
            _get(params, "zone", path, (str,), required=True)
            number("downtime_s")
        elif kind == "region_failover":
            _get(params, "zone", path, (str,), required=True)
            number("blackout_s")
        elif kind == "flap_storm":
            integer("victims", required=True)
            integer("flaps", default=3)
            number("interval_s", required=True)
            number("spread_s", nonneg=True)
        elif kind == "probe_blackout":
            number("duration_s", required=True)
            loss = _get(params, "loss", path, (int, float), required=True)
            if not 0.0 < float(loss) < 1.0:
                raise ScenarioError(f"{path}.loss", "must be in (0, 1)")
        elif kind == "chaos":
            for key in _TIMELINE_FIELDS["chaos"]:
                if key in ("group_size", "flap_count"):
                    integer(key)
                elif key == "probe_loss_intensity":
                    value = _get(params, key, path, (int, float))
                    if value is not None and not 0.0 < float(value) < 1.0:
                        raise ScenarioError(f"{path}.{key}", "must be in (0, 1)")
                else:
                    number(key, nonneg=True)
            if not any(key.endswith("_rate_per_min") and params.get(key) for key in params):
                raise ScenarioError(path, "chaos needs at least one positive *_rate_per_min")

    def resolve_time(self, duration_s: float) -> float:
        if self.at is not None:
            return self.at
        return float(self.at_frac) * duration_s  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.at is not None:
            payload["at"] = self.at
        if self.at_frac is not None:
            payload["at_frac"] = self.at_frac
        payload.update(self.params)
        return payload


# --------------------------------------------------------------- envelope
@dataclass(frozen=True)
class EnvelopeSpec:
    """The expected envelope: what theory predicts for this scenario.

    Every bound is optional; set ones compile into invariant monitors
    (:func:`repro.scenarios.envelope.envelope_monitors`) evaluated over
    the run's merged registry at the final snapshot:

    - ``tracked_fraction_tolerance``: relative band around the
      flow-weighted |H|/(|W|+|H|) expectation (Theorems 4.2/4.3);
    - ``max_breakage``: PCC violations as a fraction of flows (inevitable
      breakage excluded, per Section 2.1);
    - ``max_balance_cv``: bound on the post-warmup max coefficient of
      variation of per-server load (capacity-normalized);
    - ``max_gossip_staleness``: residual gossip debt allowed at run end;
    - ``min_horizon_precision`` / ``min_horizon_recall``: floors on
      horizon-announcement fidelity (closed-loop runs).
    """

    tracked_fraction_tolerance: Optional[float] = None
    max_breakage: Optional[float] = None
    max_balance_cv: Optional[float] = None
    max_gossip_staleness: Optional[float] = None
    min_horizon_precision: Optional[float] = None
    min_horizon_recall: Optional[float] = None

    _FIELDS = (
        "tracked_fraction_tolerance",
        "max_breakage",
        "max_balance_cv",
        "max_gossip_staleness",
        "min_horizon_precision",
        "min_horizon_recall",
    )

    @staticmethod
    def parse(data: Mapping[str, Any], path: str = "envelope") -> "EnvelopeSpec":
        data = _require_mapping(data, path)
        _check_known(data, EnvelopeSpec._FIELDS, path)
        kwargs: Dict[str, Any] = {}
        for key in ("tracked_fraction_tolerance",):
            value = _get(data, key, path, (int, float))
            if value is not None:
                kwargs[key] = float(_positive(value, f"{path}.{key}"))
        for key in ("max_breakage", "max_balance_cv", "max_gossip_staleness"):
            value = _get(data, key, path, (int, float))
            if value is not None:
                value = float(value)
                _positive(value, f"{path}.{key}", strict=False)
                kwargs[key] = value
        for key in ("min_horizon_precision", "min_horizon_recall"):
            value = _get(data, key, path, (int, float))
            if value is not None:
                value = float(value)
                if not 0.0 <= value <= 1.0:
                    raise ScenarioError(f"{path}.{key}", "must be in [0, 1]")
                kwargs[key] = value
        if kwargs.get("max_breakage") is not None and kwargs["max_breakage"] > 1.0:
            raise ScenarioError(
                f"{path}.max_breakage", "is a fraction of flows; must be <= 1"
            )
        return EnvelopeSpec(**kwargs)

    def bounds(self) -> Dict[str, float]:
        """The set bounds only (stable-keyed, for reports and benches)."""
        return {
            key: getattr(self, key)
            for key in self._FIELDS
            if getattr(self, key) is not None
        }

    def to_dict(self) -> Dict[str, Any]:
        return self.bounds()


# ---------------------------------------------------------------- the spec
_TOP_FIELDS = (
    "name",
    "description",
    "seed",
    "duration_s",
    "mode",
    "ch_family",
    "ch_kwargs",
    "ct_capacity",
    "ct_policy",
    "update_rate_per_min",
    "sample_interval",
    "warmup_s",
    "shards",
    "fleet",
    "workload",
    "control",
    "timeline",
    "envelope",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario."""

    name: str
    duration_s: float
    fleet: FleetSpec
    workload: WorkloadSpec
    description: str = ""
    seed: int = 0
    mode: str = "jet"
    ch_family: str = "anchor"
    ch_kwargs: Mapping[str, Any] = field(default_factory=dict)
    ct_capacity: Optional[int] = None
    ct_policy: str = "lru"
    update_rate_per_min: float = 0.0
    sample_interval: float = 1.0
    warmup_s: Optional[float] = None
    #: Pinned keyspace partition: the flow population is split into this
    #: many shards *regardless of worker count*, so ``--workers`` only
    #: changes process fan-out and results stay byte-stable.
    shards: int = 2
    control: Optional[ControlSpec] = None
    timeline: Tuple[TimelineEvent, ...] = ()
    envelope: EnvelopeSpec = field(default_factory=EnvelopeSpec)

    @staticmethod
    def parse(data: Mapping[str, Any], source: str = "scenario") -> "ScenarioSpec":
        data = _require_mapping(data, source)
        _check_known(data, _TOP_FIELDS, source)
        name = _get(data, "name", source, (str,), required=True)
        path = f"scenario {name!r}" if source == "scenario" else source
        duration = _get(data, "duration_s", path, (int, float), required=True)
        _positive(duration, f"{path}.duration_s")
        mode = _get(data, "mode", path, (str,), default="jet")
        if mode not in MODES:
            raise ScenarioError(f"{path}.mode", f"expected one of {list(MODES)}, got {mode!r}")
        ch_family = _get(data, "ch_family", path, (str,), default="anchor")
        ch_kwargs = dict(_get(data, "ch_kwargs", path, (Mapping,), default={},
                              type_name="table/object"))
        ct_capacity = _get(data, "ct_capacity", path, (int,))
        if ct_capacity is not None:
            _positive(ct_capacity, f"{path}.ct_capacity")
        ct_policy = _get(data, "ct_policy", path, (str,), default="lru")
        update_rate = _get(data, "update_rate_per_min", path, (int, float), default=0.0)
        _positive(float(update_rate), f"{path}.update_rate_per_min", strict=False)
        sample_interval = _get(data, "sample_interval", path, (int, float), default=1.0)
        _positive(float(sample_interval), f"{path}.sample_interval")
        warmup = _get(data, "warmup_s", path, (int, float))
        if warmup is not None:
            _positive(float(warmup), f"{path}.warmup_s", strict=False)
        shards = _get(data, "shards", path, (int,), default=2)
        _positive(shards, f"{path}.shards")
        fleet = FleetSpec.parse(
            _get(data, "fleet", path, (Mapping,), required=True, type_name="table/object"),
            f"{path}.fleet",
        )
        workload = WorkloadSpec.parse(
            _get(data, "workload", path, (Mapping,), required=True, type_name="table/object"),
            f"{path}.workload",
        )
        control = None
        if data.get("control") is not None:
            control = ControlSpec.parse(data["control"], f"{path}.control")
        timeline_raw = _get(data, "timeline", path, (list, tuple), default=[])
        timeline = tuple(
            TimelineEvent.parse(event, f"{path}.timeline[{i}]")
            for i, event in enumerate(timeline_raw)
        )
        envelope = EnvelopeSpec()
        if data.get("envelope") is not None:
            envelope = EnvelopeSpec.parse(data["envelope"], f"{path}.envelope")
        spec = ScenarioSpec(
            name=name,
            duration_s=float(duration),
            fleet=fleet,
            workload=workload,
            description=_get(data, "description", path, (str,), default=""),
            seed=_get(data, "seed", path, (int,), default=0),
            mode=mode,
            ch_family=ch_family,
            ch_kwargs=ch_kwargs,
            ct_capacity=ct_capacity,
            ct_policy=ct_policy,
            update_rate_per_min=float(update_rate),
            sample_interval=float(sample_interval),
            warmup_s=float(warmup) if warmup is not None else None,
            shards=shards,
            control=control,
            timeline=timeline,
            envelope=envelope,
        )
        spec.validate()
        return spec

    def validate(self) -> None:
        """Cross-field consistency (zone references, control dependencies)."""
        path = f"scenario {self.name!r}"
        ranges = self.fleet.zone_ranges()
        for i, event in enumerate(self.timeline):
            event_path = f"{path}.timeline[{i}]"
            zone = event.params.get("zone")
            if zone is not None and zone not in ranges:
                raise ScenarioError(
                    f"{event_path}.zone",
                    f"unknown zone {zone!r}; declared zones: {sorted(ranges)}",
                )
            if event.kind == "probe_blackout" and self.control is None:
                raise ScenarioError(
                    event_path, "probe_blackout needs a [control] block (no prober otherwise)"
                )
            if event.at is not None and event.at > self.duration_s:
                raise ScenarioError(
                    f"{event_path}.at",
                    f"{event.at} is past the scenario duration {self.duration_s}",
                )
        if any(zone.probe_loss > 0 for zone in self.fleet.zones) and self.control is None:
            raise ScenarioError(
                f"{path}.fleet.zones",
                "per-zone probe_loss needs a [control] block (no prober otherwise)",
            )
        if (
            self.envelope.min_horizon_precision is not None
            or self.envelope.min_horizon_recall is not None
        ) and self.control is None and self.update_rate_per_min == 0 and not self.timeline:
            raise ScenarioError(
                f"{path}.envelope",
                "horizon fidelity floors need membership churn (control, "
                "update_rate_per_min, or timeline events) to be judged",
            )

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "duration_s": self.duration_s,
            "fleet": self.fleet.to_dict(),
            "workload": self.workload.to_dict(),
        }
        if self.description:
            payload["description"] = self.description
        for key, default in (
            ("seed", 0),
            ("mode", "jet"),
            ("ch_family", "anchor"),
            ("ct_policy", "lru"),
            ("update_rate_per_min", 0.0),
            ("sample_interval", 1.0),
            ("shards", 2),
        ):
            value = getattr(self, key)
            if value != default:
                payload[key] = value
        if self.ch_kwargs:
            payload["ch_kwargs"] = dict(self.ch_kwargs)
        if self.ct_capacity is not None:
            payload["ct_capacity"] = self.ct_capacity
        if self.warmup_s is not None:
            payload["warmup_s"] = self.warmup_s
        if self.control is not None:
            payload["control"] = self.control.to_dict()
        if self.timeline:
            payload["timeline"] = [event.to_dict() for event in self.timeline]
        bounds = self.envelope.to_dict()
        if bounds:
            payload["envelope"] = bounds
        return payload


# ------------------------------------------------------------ file loading
def loads(text: str, source: str = "scenario") -> ScenarioSpec:
    """Parse a JSON scenario document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(source, f"invalid JSON: {exc}") from exc
    return ScenarioSpec.parse(data, source)


def load_file(path: str) -> ScenarioSpec:
    """Load a scenario from a ``.json`` or ``.toml`` file.

    TOML needs ``tomllib`` (Python 3.11+); the shipped library is JSON so
    every supported interpreter can read it.
    """
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError as exc:  # Python 3.10
            raise ScenarioError(
                path, "TOML scenarios need Python 3.11+ (tomllib); use JSON"
            ) from exc
        with open(path, "rb") as handle:
            try:
                data = tomllib.load(handle)
            except tomllib.TOMLDecodeError as exc:
                raise ScenarioError(path, f"invalid TOML: {exc}") from exc
        return ScenarioSpec.parse(data, path)
    with open(path) as handle:
        return loads(handle.read(), source=path)
