"""The scenario document: schema, strict parsing, round-tripping.

A *scenario* is the one serialised description of a simulation run --
fleet shape (zones, heterogeneous capacities), workload (rate profile,
flow mixes), the paper's Section 5.1 knobs (update rate, down-time, CT
size and policy), a membership/chaos timeline (rolling deploy,
correlated zone failure, flap storms, multi-region failover), and an
**expected-envelope** block stating what the paper's theory predicts for
the run (tracked-fraction band vs |H|/(|W|+|H|), max breakage, balance
CV bound, horizon-fidelity floors).  ``repro simulate`` lowers its flags
to this document and ``--config-out`` / ``--config`` write and read it.
The spec compiles into a :class:`~repro.sim.scenario.SimulationConfig`
plus a scripted :class:`~repro.faults.events.FaultSchedule`
(:mod:`.compile`) and the envelope bounds :func:`repro.obs.invariants.check`
at run end.

Every field is declared once, on its dataclass attribute: ``_f(convert,
default)`` names the converter that type- and range-checks a written
value and the default an absent one takes.  One generic
:meth:`_Section.parse` and :meth:`_Section.to_dict` walk those
declarations; what relates *several* fields (zone totals, ``at`` xor
``at_frac``, per-kind timeline parameters, zone references) is code, in
each class's ``_checked`` hook.

Parsing is **strict**: unknown fields, wrong types, out-of-range values,
unregistered names and inconsistent envelopes are rejected with a
:class:`ScenarioError` naming the exact field path -- a scenario file
that parses is a scenario that runs.

Files are JSON (always) or TOML (Python 3.11+, via ``tomllib``); the
library ships JSON so every supported interpreter can load it.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from typing import Any, Callable, ClassVar, Dict, Mapping, Optional, Tuple

from repro.ch import family_choices
from repro.core.factories import check_stack, lb_mode_choices
from repro.ct import CT_POLICIES
from repro.sim.distributions import DIST_KINDS, dist_from_dict
from repro.sim.workload import PROFILE_KINDS, profile_from_dict

class ScenarioError(ValueError):
    """A scenario spec is malformed; the message names the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# ------------------------------------------------------------- converters
#: ``convert(value, path)`` checks one written (non-null) value and
#: returns its normalised form, or raises :class:`ScenarioError`.
Convert = Callable[[Any, str], Any]

#: Intervals a number may be confined to.  All start at 0, so one is
#: (open at 0?, upper bound or None, open at the upper bound?).
_POSITIVE = (True, None, False)
_NON_NEGATIVE = (False, None, False)
_UNIT = (False, 1, False)
_UNIT_BELOW_ONE = (False, 1, True)
_UNIT_OPEN = (True, 1, True)


def _number(interval: Optional[tuple] = None, integer: bool = False) -> Convert:
    types = (int,) if integer else (int, float)

    def convert(value: Any, path: str):
        # bool is an int subclass; reject it where a number is expected.
        if isinstance(value, bool):
            raise ScenarioError(path, "expected a number, got a boolean")
        if not isinstance(value, types):
            wanted = "/".join(t.__name__ for t in types)
            raise ScenarioError(path, f"expected {wanted}, got {type(value).__name__}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ScenarioError(path, f"must be finite, got {value}")
        if interval is not None:
            lo_open, hi, hi_open = interval
            inside = (value > 0 if lo_open else value >= 0) and (
                hi is None or (value < hi if hi_open else value <= hi)
            )
            if not inside and hi is None:
                sign = "positive" if lo_open else "non-negative"
                raise ScenarioError(path, f"must be {sign}, got {value}")
            if not inside:
                raise ScenarioError(
                    path,
                    f"must be in {'(' if lo_open else '['}0, {hi}{')' if hi_open else ']'}",
                )
        return value if integer else float(value)

    return convert


def _text(choices: Optional[Tuple[str, ...]] = None) -> Convert:
    def convert(value: Any, path: str) -> str:
        if not isinstance(value, str):
            raise ScenarioError(path, f"expected str, got {type(value).__name__}")
        if choices is not None and value not in choices:
            raise ScenarioError(path, f"expected one of {list(choices)}, got {value!r}")
        return value

    return convert


def _table(value: Any, path: str) -> Dict[str, Any]:
    if not isinstance(value, Mapping):
        raise ScenarioError(path, f"expected a table/object, got {type(value).__name__}")
    return dict(value)


def _each(convert: Convert) -> Convert:
    def convert_all(value: Any, path: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ScenarioError(path, f"expected list/tuple, got {type(value).__name__}")
        return tuple(convert(item, f"{path}[{i}]") for i, item in enumerate(value))

    return convert_all


def _kinded(
    build: Callable[[dict], Any], kinds: Mapping[str, Any], what: str, *named: str
) -> Convert:
    """A ``{"kind": ..., **params}`` table that ``build`` accepts (the run
    calls the same builder), or one of the ``named`` strings."""

    def convert(value: Any, path: str):
        if isinstance(value, str):
            if value not in named:
                raise ScenarioError(path, f"unknown named {what} {value!r}")
            return value
        value = _table(value, path)
        if value.get("kind") not in kinds:
            raise ScenarioError(
                f"{path}.kind", f"expected one of {list(kinds)}, got {value.get('kind')!r}"
            )
        try:
            build(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(path, f"bad {what} parameters: {exc}") from exc
        return value

    return convert


_POS = _number(_POSITIVE)
_POS_INT = _number(_POSITIVE, integer=True)
_NONNEG = _number(_NON_NEGATIVE)
_FRACTION = _number(_UNIT)
_INSIDE_UNIT = _number(_UNIT_OPEN)
_STR = _text()

_REQUIRED = MISSING  # a declaration's default when the field must be written


def _parse_fields(
    data: Any, declared: Mapping[str, Tuple[Convert, Any]], path: str
) -> Dict[str, Any]:
    """The one strict parse: ``data`` holds only ``declared`` names, every
    required one is written, and each written value passes its converter
    (``null`` counts as absent)."""
    data = _table(data, path)
    unknown = sorted(set(data) - set(declared))
    if unknown:
        raise ScenarioError(
            path,
            f"unknown field(s) {unknown}; expected a subset of {sorted(declared)}",
        )
    values: Dict[str, Any] = {}
    for name, (convert, default) in declared.items():
        if data.get(name) is not None:
            values[name] = convert(data[name], f"{path}.{name}")
        elif default is _REQUIRED:
            raise ScenarioError(f"{path}.{name}", "required field is missing")
        else:
            values[name] = default
    return values


def _f(convert: Convert, default: Any = _REQUIRED, **kwargs: Any) -> Any:
    """Declare one document field of a :class:`_Section` dataclass."""
    if default is not _REQUIRED:
        kwargs["default"] = default
    return field(metadata={"convert": convert}, **kwargs)


def _default(declaration: Field) -> Any:
    if declaration.default_factory is not MISSING:
        return declaration.default_factory()
    return declaration.default


def _plain(value: Any) -> Any:
    if isinstance(value, _Section):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, Mapping):
        return dict(value)
    return value


class _Section:
    """One table of the document: a frozen dataclass whose attributes are
    ``_f`` declarations.  ``parse(to_dict())`` is the identity."""

    #: Attribute that collects the fields the class does not declare (the
    #: kind-dependent parameters of a timeline entry); None = strict.
    _rest: ClassVar[Optional[str]] = None

    @classmethod
    def parse(cls, data: Mapping[str, Any], path: Optional[str] = None):
        path = path or cls.__name__.replace("Spec", "").lower()
        declared = {
            f.name: (f.metadata["convert"], _default(f))
            for f in fields(cls)
            if f.name != cls._rest
        }
        rest = {}
        if cls._rest is not None:
            data = _table(data, path)
            rest[cls._rest] = {
                key: value
                for key, value in data.items()
                if key not in declared and value is not None
            }
            data = {key: data[key] for key in data if key in declared}
        return cls(**_parse_fields(data, declared, path), **rest)._checked(path)

    def _checked(self, path: str):
        """Cross-field checks; returns the (possibly completed) section."""
        return self

    def to_dict(self) -> Dict[str, Any]:
        """The document form: required fields and those off their default."""
        payload: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == self._rest:
                payload.update(value)
            elif value != _default(f):
                payload[f.name] = _plain(value)
        return payload


# ------------------------------------------------------------------ fleet
@dataclass(frozen=True)
class ZoneSpec(_Section):
    """One failure domain: ``servers`` backends of capacity ``weight``,
    probed over a path that drops an extra ``probe_loss`` of probes
    (asymmetric-latency regions)."""

    name: str = _f(_STR)
    servers: int = _f(_POS_INT)
    weight: float = _f(_POS, 1.0)
    probe_loss: float = _f(_number(_UNIT_BELOW_ONE), 0.0)


@dataclass(frozen=True)
class FleetSpec(_Section):
    """Backend fleet shape: either a flat ``servers`` count or a list of
    ``zones`` (contiguous server ranges, in order).  ``horizon`` is the
    exogenous standby horizon size (under closed-loop control it caps
    announcements instead); 0 runs without a horizon."""

    horizon: int = _f(_number(_NON_NEGATIVE, integer=True))
    servers: Optional[int] = _f(_POS_INT, None)
    zones: Tuple[ZoneSpec, ...] = _f(_each(ZoneSpec.parse), ())

    def _checked(self, path: str) -> "FleetSpec":
        names = [zone.name for zone in self.zones]
        if len(set(names)) != len(names):
            raise ScenarioError(f"{path}.zones", f"duplicate zone names in {names}")
        if not self.zones:
            if self.servers is None:
                raise ScenarioError(f"{path}.servers", "required when no zones are given")
            return self
        zone_total = sum(zone.servers for zone in self.zones)
        if self.servers is not None and self.servers != zone_total:
            raise ScenarioError(
                f"{path}.servers",
                f"{self.servers} contradicts the zone total {zone_total}; "
                "omit it or make them agree",
            )
        return replace(self, servers=zone_total)

    def zone_ranges(self) -> Dict[str, Tuple[int, int]]:
        """Zone name -> [start, end) over the contiguous integer server
        names the compiler assigns, in declaration order."""
        ranges: Dict[str, Tuple[int, int]] = {}
        offset = 0
        for zone in self.zones:
            ranges[zone.name] = (offset, offset + zone.servers)
            offset += zone.servers
        return ranges


# --------------------------------------------------------------- workload
_FLOW_DIST = _kinded(dist_from_dict, DIST_KINDS, "distribution", "hadoop")
_DIST = _kinded(dist_from_dict, DIST_KINDS, "distribution")
_PROFILE = _kinded(profile_from_dict, PROFILE_KINDS, "rate-profile")


@dataclass(frozen=True)
class WorkloadSpec(_Section):
    """Traffic shape: nominal concurrency, flow duration/size mixes
    (``"hadoop"`` = the paper-calibrated mixture, or a distribution
    table), and an optional time-varying rate profile."""

    connection_rate: float = _f(_POS)
    flow_duration: Any = _f(_FLOW_DIST, "hadoop")
    flow_size: Any = _f(_FLOW_DIST, "hadoop")
    rate_profile: Optional[Dict[str, Any]] = _f(_PROFILE, None)


# ---------------------------------------------------------------- control
@dataclass(frozen=True)
class ControlSpec(_Section):
    """Closed-loop control-plane settings; presence of the ``control``
    table turns the scenario into a closed-loop run (H = the autoscaler's
    pending launches, membership by probe evidence)."""

    interval_s: float = _f(_POS, 0.5)
    lead_time_s: float = _f(_POS, 5.0)
    autoscale_max: int = _f(_POS_INT, 8)
    target_load_per_server: Optional[float] = _f(_POS, None)
    forecast_precision: float = _f(_FRACTION, 1.0)
    forecast_recall: float = _f(_FRACTION, 1.0)
    probe_fail_threshold: int = _f(_POS_INT, 3)
    probe_recover_threshold: int = _f(_POS_INT, 2)
    probe_loss_probability: float = _f(_FRACTION, 0.0)


# --------------------------------------------------------------- timeline
def _need(convert: Convert) -> Tuple[Convert, Any]:
    return convert, _REQUIRED


def _may(convert: Convert) -> Tuple[Convert, Any]:
    return convert, None


#: Timeline event kinds (``compile.py`` has their fault semantics) and
#: each kind's own parameters ("at"/"at_frac" are common to all but
#: chaos); the chaos ones are :meth:`FaultSchedule.generate`'s keywords.
TIMELINE_PARAMS: Dict[str, Dict[str, Tuple[Convert, Any]]] = {
    "rolling_deploy": {
        "servers": _may(_POS_INT),
        "batch": _may(_POS_INT),
        "interval_s": _need(_POS),
        "drain_s": _need(_POS),
    },
    "zone_failure": {"zone": _need(_STR), "downtime_s": _may(_POS)},
    "region_failover": {"zone": _need(_STR), "blackout_s": _may(_POS)},
    "flap_storm": {
        "victims": _need(_POS_INT),
        "flaps": _may(_POS_INT),
        "interval_s": _need(_POS),
        "spread_s": _may(_NONNEG),
    },
    "probe_blackout": {"duration_s": _need(_POS), "loss": _need(_INSIDE_UNIT)},
    "chaos": {
        "crash_rate_per_min": _may(_NONNEG),
        "flap_rate_per_min": _may(_NONNEG),
        "group_rate_per_min": _may(_NONNEG),
        "unannounced_rate_per_min": _may(_NONNEG),
        "probe_loss_rate_per_min": _may(_NONNEG),
        "stale_autoscaler_rate_per_min": _may(_NONNEG),
        "group_size": _may(_POS_INT),
        "flap_count": _may(_POS_INT),
        "flap_interval": _may(_NONNEG),
        "fault_duration_s": _may(_NONNEG),
        "probe_loss_intensity": _may(_INSIDE_UNIT),
    },
}


@dataclass(frozen=True)
class TimelineEvent(_Section):
    """One scripted membership/chaos timeline entry.

    ``at`` is an absolute simulation time; ``at_frac`` expresses it as a
    fraction of the scenario duration instead (exactly one may be given,
    except for ``chaos``, which is a whole-run background process).
    ``params`` holds the kind's own fields as written.
    """

    _rest = "params"

    kind: str = _f(_text(tuple(TIMELINE_PARAMS)))
    at: Optional[float] = _f(_NONNEG, None)
    at_frac: Optional[float] = _f(_FRACTION, None)
    params: Mapping[str, Any] = field(default_factory=dict)

    def _checked(self, path: str) -> "TimelineEvent":
        _parse_fields(self.params, TIMELINE_PARAMS[self.kind], path)
        timed = (self.at is not None) + (self.at_frac is not None)
        if self.kind != "chaos":
            if timed != 1:
                raise ScenarioError(path, "give exactly one of 'at' or 'at_frac'")
            return self
        if timed:
            raise ScenarioError(
                path, "chaos is a whole-run background process; drop at/at_frac"
            )
        if not any(
            key.endswith("_rate_per_min") and rate for key, rate in self.params.items()
        ):
            raise ScenarioError(path, "chaos needs at least one positive *_rate_per_min")
        return self

    def resolve_time(self, duration_s: float) -> float:
        if self.at is not None:
            return self.at
        return float(self.at_frac) * duration_s  # type: ignore[arg-type]


# --------------------------------------------------------------- envelope
@dataclass(frozen=True)
class EnvelopeSpec(_Section):
    """The expected envelope: what theory predicts for this scenario.

    This is the one description of the invariant bounds:
    :func:`repro.obs.invariants.check` reads these four fields by name
    over the run's merged registry at the final snapshot, and experiments
    that judge their own runs pass one (``Experiment.envelope``).  Every
    bound is optional.  The tracked fraction has no field: Theorems
    4.2/4.3 fix its band (:func:`repro.analysis.model.tracked_fraction_band`).

    - ``max_breakage``: PCC violations as a fraction of flows (inevitable
      breakage excluded, per Section 2.1); checked only when set;
    - ``max_balance_cv``: bound on the post-warmup max coefficient of
      variation of per-server load (capacity-normalized); checked only
      when set;
    - ``min_horizon_precision`` / ``min_horizon_recall``: floors on
      horizon-announcement fidelity (closed-loop runs); unset, the scores
      need only lie in [0, 1].
    """

    max_breakage: Optional[float] = _f(_NONNEG, None)
    max_balance_cv: Optional[float] = _f(_NONNEG, None)
    min_horizon_precision: Optional[float] = _f(_FRACTION, None)
    min_horizon_recall: Optional[float] = _f(_FRACTION, None)

    def _checked(self, path: str) -> "EnvelopeSpec":
        if self.max_breakage is not None and self.max_breakage > 1.0:
            raise ScenarioError(
                f"{path}.max_breakage", "is a fraction of flows; must be <= 1"
            )
        return self

    def bounds(self) -> Dict[str, float]:
        """The set bounds only (stable-keyed, for reports and benches)."""
        return self.to_dict()


# ---------------------------------------------------------------- the spec
@dataclass(frozen=True)
class ScenarioSpec(_Section):
    """A complete declarative scenario."""

    name: str = _f(_STR)
    duration_s: float = _f(_POS)
    fleet: FleetSpec = _f(FleetSpec.parse)
    workload: WorkloadSpec = _f(WorkloadSpec.parse)
    description: str = _f(_STR, "")
    seed: int = _f(_number(integer=True), 0)
    #: LB stack, inner CH family and CT policy: registered names only.
    mode: str = _f(_text(tuple(lb_mode_choices())), "jet")
    ch_family: str = _f(_text(tuple(family_choices())), "anchor")
    ch_kwargs: Mapping[str, Any] = _f(_table, default_factory=dict)
    ct_capacity: Optional[int] = _f(_POS_INT, None)  # None = unbounded
    ct_policy: str = _f(_text(CT_POLICIES), "lru")
    ct_ttl: Optional[float] = _f(_POS, None)  # idle timeout of ct_policy "ttl"
    #: Exogenous churn (Section 5.1): removals per minute, and how long a
    #: removed server stays down (None = the paper's ~1 min log-normal).
    update_rate_per_min: float = _f(_NONNEG, 0.0)
    downtime: Optional[Dict[str, Any]] = _f(_DIST, None)
    #: Base of the probation backoff a repeatedly failing server serves.
    probation_base_s: float = _f(_NONNEG, 1.0)
    sample_interval: float = _f(_POS, 1.0)
    warmup_s: Optional[float] = _f(_NONNEG, None)
    #: Pinned keyspace partition: the flow population is split into this
    #: many shards *regardless of worker count*, so ``--workers`` only
    #: changes process fan-out and results stay byte-stable.  0 is one
    #: unsharded engine whose workload draws from the master seed (plain
    #: ``repro simulate``); it differs from 1 shard, which draws from
    #: shard 0's derived seed.
    shards: int = _f(_number(_NON_NEGATIVE, integer=True), 2)
    control: Optional[ControlSpec] = _f(ControlSpec.parse, None)
    timeline: Tuple[TimelineEvent, ...] = _f(_each(TimelineEvent.parse), ())
    envelope: EnvelopeSpec = _f(EnvelopeSpec.parse, EnvelopeSpec())

    @classmethod
    def parse(cls, data: Mapping[str, Any], source: str = "scenario") -> "ScenarioSpec":
        path = source
        if isinstance(data, Mapping):
            if data.get("format") == "repro-simulation-config/1":
                raise ScenarioError(
                    source,
                    "a 'repro-simulation-config/1' file (the format --config-out "
                    "wrote before it wrote this document) is not read any more; "
                    "re-run its command line with --config-out",
                )
            if source == "scenario" and isinstance(data.get("name"), str):
                path = f"scenario {data['name']!r}"
        return super().parse(data, path)

    def _checked(self, path: str) -> "ScenarioSpec":
        if self.ct_ttl is not None and self.ct_policy != "ttl":
            raise ScenarioError(
                f"{path}.ct_ttl",
                f'an idle timeout needs ct_policy "ttl" (it is {self.ct_policy!r}, '
                "which would ignore it)",
            )
        # What builds is make_lb's one decision, asked here so the error
        # names the field: the stack, then the first weighted zone.
        checks = [(f"{path}.ch_family", False)]
        heavy = [i for i, zone in enumerate(self.fleet.zones) if zone.weight != 1.0]
        if heavy:
            checks.append((f"{path}.fleet.zones[{heavy[0]}].weight", True))
        for field_path, weighted in checks:
            try:
                check_stack(self.mode, self.ch_family, weighted)
            except ValueError as exc:
                raise ScenarioError(field_path, str(exc)) from None
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
        return self

    def with_(self, **overrides: Any) -> "ScenarioSpec":
        """A re-validated copy with top-level fields replaced (``None``
        keeps the spec's value).  Sweeps and the CLI re-parameterise
        scenarios through here, *before* compilation, so the chaos
        schedule and shard seeds derive from the effective values."""
        overrides = {key: value for key, value in overrides.items() if value is not None}
        if not overrides:
            return self
        return ScenarioSpec.parse({**self.to_dict(), **overrides})


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
