"""Scenario spec schema: strict parsing, actionable errors, round-trips.

The parsing contract is "a scenario file that parses is a scenario that
runs": unknown fields, wrong types, and cross-field inconsistencies are
all rejected at parse time with a :class:`ScenarioError` naming the
exact field path.  The hypothesis suite then universally quantifies the
round-trip law -- ``parse(spec.to_dict()) == spec`` -- over generated
specs, which is what makes ``to_dict`` a safe persistence format for
seed/mode/duration overrides.
"""

import dataclasses
import json
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    EnvelopeSpec,
    FleetSpec,
    ScenarioError,
    ScenarioSpec,
    TimelineEvent,
    compile_scenario,
    load_file,
    loads,
)
from repro.scenarios import spec as spec_module

MINIMAL = {
    "name": "t",
    "duration_s": 10,
    "fleet": {"servers": 8, "horizon": 2},
    "workload": {"connection_rate": 50},
}


def spec_dict(**overrides):
    data = {k: (dict(v) if isinstance(v, dict) else v) for k, v in MINIMAL.items()}
    data.update(overrides)
    return data


def expect_error(data, fragment):
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.parse(data)
    assert fragment in str(err.value), str(err.value)
    return err.value


class TestStrictParsing:
    def test_minimal_parses(self):
        spec = ScenarioSpec.parse(spec_dict())
        assert spec.name == "t"
        assert spec.fleet.servers == 8
        assert spec.mode == "jet"
        assert spec.shards == 2  # pinned partition default

    def test_unknown_top_level_field_named(self):
        err = expect_error(spec_dict(flet={"servers": 1}), "'flet'")
        assert "subset of" in str(err)

    def test_unknown_fleet_field_named_with_path(self):
        data = spec_dict()
        data["fleet"]["horizons"] = 3
        expect_error(data, "fleet: unknown field(s) ['horizons']")

    def test_missing_required_field_has_path(self):
        data = spec_dict()
        del data["fleet"]["horizon"]
        expect_error(data, "fleet.horizon: required field is missing")

    def test_bool_rejected_where_number_expected(self):
        data = spec_dict()
        data["workload"]["connection_rate"] = True
        expect_error(data, "connection_rate: expected a number, got a boolean")

    def test_bad_mode_lists_choices(self):
        err = expect_error(spec_dict(mode="magic"), ".mode")
        assert "jet" in str(err) and "concury" in str(err)

    def test_zone_total_contradiction(self):
        data = spec_dict()
        data["fleet"] = {
            "servers": 10,
            "horizon": 2,
            "zones": [{"name": "a", "servers": 4}, {"name": "b", "servers": 4}],
        }
        expect_error(data, "contradicts the zone total 8")

    def test_duplicate_zone_names(self):
        data = spec_dict()
        data["fleet"] = {
            "horizon": 2,
            "zones": [{"name": "a", "servers": 4}, {"name": "a", "servers": 4}],
        }
        expect_error(data, "duplicate zone names")

    def test_zone_probe_loss_range(self):
        data = spec_dict()
        data["fleet"] = {
            "horizon": 2,
            "zones": [{"name": "a", "servers": 4, "probe_loss": 1.0}],
        }
        expect_error(data, "probe_loss: must be in [0, 1)")

    def test_bad_distribution_kind(self):
        data = spec_dict()
        data["workload"]["flow_duration"] = {"kind": "weibull", "k": 2}
        expect_error(data, "flow_duration.kind")

    def test_bad_rate_profile_kind(self):
        data = spec_dict()
        data["workload"]["rate_profile"] = {"kind": "sawtooth"}
        expect_error(data, "rate_profile.kind")

    @pytest.mark.parametrize("key", ["ct_policy", "ch_family"])
    def test_unregistered_names_fail_at_parse_not_at_build(self, key):
        # Was: only type-checked, so "bogus" parsed and died in make_ct /
        # make_ch (or, for an unbounded CT, was silently ignored).
        err = expect_error(spec_dict(**{key: "bogus"}), f".{key}: expected one of")
        assert "'bogus'" in str(err)
        ScenarioSpec.parse(spec_dict(ch_family="hrw", ct_policy="ttl"))

    def test_the_section_5_1_knobs_reach_the_config(self):
        # A ct_policy "ttl" scenario could not set its TTL (silently
        # 60 s), nor could any scenario say how long servers stay down.
        spec = ScenarioSpec.parse(spec_dict(
            ct_policy="ttl", ct_ttl=5, probation_base_s=2,
            downtime={"kind": "lognormal", "median": 3, "sigma": 0.8},
        ))
        config = compile_scenario(spec).config
        assert (config.ct_ttl, config.probation_base_s) == (5.0, 2.0)
        assert config.downtime_dist.mean() == pytest.approx(3 * 2.718281828 ** 0.32)
        assert compile_scenario(ScenarioSpec.parse(spec_dict())).config.downtime_dist is None
        expect_error(spec_dict(ct_ttl=0), ".ct_ttl: must be positive")
        expect_error(spec_dict(ct_ttl=5), '.ct_ttl: an idle timeout needs ct_policy "ttl"')
        expect_error(spec_dict(downtime="hadoop"), ".downtime: unknown named")
        expect_error(spec_dict(downtime={"kind": "lognormal", "median": 0, "sigma": 1}),
                     ".downtime: bad distribution parameters")

    def test_zero_horizon_and_unsharded_are_spellable(self):
        data = spec_dict(shards=0)
        data["fleet"]["horizon"] = 0
        spec = ScenarioSpec.parse(data)
        assert (spec.fleet.horizon, spec.shards) == (0, 0)
        data["fleet"]["horizon"] = -1
        expect_error(data, "fleet.horizon: must be non-negative, got -1")
        expect_error(spec_dict(shards=-1), ".shards: must be non-negative")

    def test_with_revalidates_and_none_keeps(self):
        spec = ScenarioSpec.parse(spec_dict())
        assert spec.with_(seed=None, mode=None) is spec
        changed = spec.with_(seed=9, mode="full", duration_s=None)
        assert (changed.seed, changed.mode, changed.duration_s) == (9, "full", 10.0)
        assert spec.seed == 0
        with pytest.raises(ScenarioError, match="mode: expected one of"):
            spec.with_(mode="magic")


class TestEnvelopeValidation:
    def test_tracked_fraction_band_is_not_an_envelope_bound(self):
        # Theorems 4.2/4.3 fix the band (repro.analysis.tracked_fraction_band).
        expect_error(
            spec_dict(envelope={"tracked_fraction_tolerance": 0.5}),
            "envelope: unknown field(s) ['tracked_fraction_tolerance']",
        )

    def test_breakage_over_one(self):
        expect_error(
            spec_dict(envelope={"max_breakage": 1.5}),
            "max_breakage: is a fraction of flows",
        )

    def test_precision_out_of_range(self):
        expect_error(
            spec_dict(envelope={"min_horizon_precision": 2.0}),
            "min_horizon_precision: must be in [0, 1]",
        )

    def test_unknown_envelope_field(self):
        expect_error(spec_dict(envelope={"max_latency": 1}), "envelope: unknown")

    def test_gossip_staleness_is_not_an_envelope_bound(self):
        # No simulator stack syncs CTs, so there is no staleness to bound.
        expect_error(
            spec_dict(envelope={"max_gossip_staleness": 0}),
            "envelope: unknown field(s) ['max_gossip_staleness']",
        )

    def test_horizon_floors_need_churn(self):
        # A static fleet with no control/churn/timeline has no horizon
        # announcements to judge fidelity against.
        expect_error(
            spec_dict(envelope={"min_horizon_recall": 0.9}),
            "horizon fidelity floors need membership churn",
        )
        spec = ScenarioSpec.parse(
            spec_dict(
                envelope={"min_horizon_recall": 0.9}, update_rate_per_min=6.0
            )
        )
        assert spec.envelope.min_horizon_recall == 0.9

    def test_bounds_only_set_keys(self):
        env = EnvelopeSpec.parse({"max_breakage": 0.05})
        assert env.to_dict() == {"max_breakage": 0.05}


class TestTimelineValidation:
    def test_at_and_at_frac_exclusive(self):
        event = {"kind": "zone_failure", "zone": "a", "at": 1, "at_frac": 0.5}
        data = spec_dict(timeline=[event])
        data["fleet"] = {"horizon": 2, "zones": [{"name": "a", "servers": 8}]}
        expect_error(data, "exactly one of 'at' or 'at_frac'")

    def test_neither_time_rejected(self):
        event = {"kind": "flap_storm", "victims": 2, "interval_s": 1.0}
        expect_error(spec_dict(timeline=[event]), "exactly one of")

    def test_chaos_takes_no_time(self):
        event = {"kind": "chaos", "crash_rate_per_min": 2.0, "at": 3}
        expect_error(spec_dict(timeline=[event]), "whole-run background process")

    def test_chaos_needs_a_rate(self):
        event = {"kind": "chaos", "group_size": 3}
        expect_error(spec_dict(timeline=[event]), "at least one positive *_rate_per_min")

    def test_unknown_zone_reference(self):
        event = {"kind": "zone_failure", "zone": "nowhere", "at": 2}
        err = expect_error(spec_dict(timeline=[event]), "unknown zone 'nowhere'")
        assert "timeline[0]" in str(err)

    def test_event_past_duration(self):
        event = {"kind": "flap_storm", "victims": 1, "interval_s": 1.0, "at": 99}
        expect_error(spec_dict(timeline=[event]), "past the scenario duration")

    def test_probe_blackout_needs_control(self):
        event = {"kind": "probe_blackout", "duration_s": 2, "loss": 0.5, "at": 1}
        expect_error(spec_dict(timeline=[event]), "needs a [control] block")
        data = spec_dict(timeline=[event], control={})
        assert ScenarioSpec.parse(data).control is not None

    def test_per_kind_unknown_field(self):
        event = {"kind": "zone_failure", "zone": "a", "at": 1, "blast_radius": 9}
        data = spec_dict(timeline=[event])
        data["fleet"] = {"horizon": 2, "zones": [{"name": "a", "servers": 8}]}
        expect_error(data, "unknown field(s) ['blast_radius']")

    def test_resolve_time_fraction(self):
        event = TimelineEvent.parse(
            {"kind": "zone_failure", "zone": "a", "at_frac": 0.25}, "t"
        )
        assert event.resolve_time(40.0) == 10.0

    def test_zone_ranges_contiguous_in_declaration_order(self):
        fleet = FleetSpec.parse(
            {
                "horizon": 2,
                "zones": [
                    {"name": "b", "servers": 3},
                    {"name": "a", "servers": 5},
                ],
            }
        )
        assert fleet.zone_ranges() == {"b": (0, 3), "a": (3, 8)}
        assert fleet.servers == 8


class TestFiles:
    def test_loads_rejects_bad_json(self):
        with pytest.raises(ScenarioError) as err:
            loads("{not json", source="stdin")
        assert "invalid JSON" in str(err.value)

    def test_load_file_json(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(spec_dict()))
        assert load_file(str(path)).name == "t"

    def test_load_file_toml(self, tmp_path):
        path = tmp_path / "t.toml"
        path.write_text(
            'name = "t"\nduration_s = 10\n'
            "[fleet]\nservers = 8\nhorizon = 2\n"
            "[workload]\nconnection_rate = 50\n"
        )
        try:
            import tomllib  # noqa: F401
        except ImportError:
            with pytest.raises(ScenarioError) as err:
                load_file(str(path))
            assert "Python 3.11+" in str(err.value)
        else:
            assert load_file(str(path)).name == "t"


# ----------------------------------------------------------- hypothesis
zone_names = st.sampled_from(["east", "west", "core", "edge"])

zones = st.lists(
    st.builds(
        lambda name, servers, weight: {
            "name": name,
            "servers": servers,
            "weight": weight,
        },
        zone_names,
        st.integers(min_value=1, max_value=20),
        st.sampled_from([0.5, 1.0, 2.0]),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda z: z["name"],
)

fleets = st.one_of(
    st.builds(
        lambda servers, horizon: {"servers": servers, "horizon": horizon},
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=8),
    ),
    st.builds(
        lambda zs, horizon: {"zones": zs, "horizon": horizon},
        zones,
        st.integers(min_value=0, max_value=8),
    ),
)

dists = st.one_of(
    st.just("hadoop"),
    st.builds(
        lambda mean: {"kind": "exponential", "mean": mean},
        st.floats(min_value=0.5, max_value=10, allow_nan=False),
    ),
)

profiles = st.one_of(
    st.none(),
    st.builds(
        lambda period, amp: {"kind": "diurnal", "period_s": period, "amplitude": amp},
        st.floats(min_value=5, max_value=50, allow_nan=False),
        st.floats(min_value=0.1, max_value=0.9, allow_nan=False),
    ),
)

workloads = st.builds(
    lambda rate, dur, prof: {
        "connection_rate": rate,
        "flow_duration": dur,
        **({"rate_profile": prof} if prof else {}),
    },
    st.floats(min_value=1, max_value=500, allow_nan=False),
    dists,
    profiles,
)

envelopes = st.fixed_dictionaries(
    {},
    optional={
        "max_breakage": st.floats(min_value=0, max_value=1, allow_nan=False),
        "max_balance_cv": st.floats(min_value=0, max_value=5, allow_nan=False),
    },
)

#: A CT policy with what may go with it: only "ttl" has an idle timeout.
ct_knobs = st.one_of(
    st.fixed_dictionaries({}, optional={"ct_policy": st.sampled_from(["lru", "fifo", "random"])}),
    st.fixed_dictionaries(
        {"ct_policy": st.just("ttl")},
        optional={"ct_ttl": st.floats(min_value=0.5, max_value=60, allow_nan=False)},
    ),
)

#: The fields the document gained so that ``simulate``'s flags fit in it.
run_knobs = st.fixed_dictionaries(
    {},
    optional={
        "probation_base_s": st.floats(min_value=0, max_value=5, allow_nan=False),
        "downtime": st.builds(
            lambda median: {"kind": "lognormal", "median": median, "sigma": 0.8},
            st.floats(min_value=0.5, max_value=60, allow_nan=False),
        ),
        "control": st.fixed_dictionaries(
            {},
            optional={
                "lead_time_s": st.floats(min_value=0.5, max_value=9, allow_nan=False),
                "forecast_recall": st.floats(min_value=0, max_value=1, allow_nan=False),
                "autoscale_max": st.integers(min_value=1, max_value=8),
            },
        ),
    },
)

chaos_events = st.builds(
    lambda rate: {"kind": "chaos", "crash_rate_per_min": rate},
    st.floats(min_value=0.1, max_value=10, allow_nan=False),
)


@st.composite
def scenario_dicts(draw):
    fleet = draw(fleets)
    duration = draw(st.floats(min_value=5, max_value=120, allow_nan=False))
    mode = draw(st.sampled_from(["jet", "full", "concury", "jet-p2c"]))
    family = {}
    if mode != "jet-p2c" and any(z["weight"] != 1.0 for z in fleet.get("zones", ())):
        # Zone weights need a family that reads them, and Concury's map
        # reads none.
        if mode == "concury":
            fleet = {**fleet, "zones": [{**z, "weight": 1.0} for z in fleet["zones"]]}
        else:
            family["ch_family"] = draw(st.sampled_from(["hrw", "ring"]))
    data = {
        "name": draw(st.sampled_from(["alpha", "beta-2", "gamma_x"])),
        "duration_s": duration,
        "seed": draw(st.integers(min_value=0, max_value=10_000)),
        "mode": mode,
        **family,
        "shards": draw(st.integers(min_value=0, max_value=4)),
        "fleet": fleet,
        "workload": draw(workloads),
        **draw(ct_knobs),
        **draw(run_knobs),
    }
    envelope = draw(envelopes)
    if envelope:
        data["envelope"] = envelope
    timeline = []
    if draw(st.booleans()):
        timeline.append(draw(chaos_events))
    if "zones" in fleet and draw(st.booleans()):
        timeline.append(
            {
                "kind": "zone_failure",
                "zone": fleet["zones"][0]["name"],
                "at_frac": draw(st.floats(min_value=0, max_value=1, allow_nan=False)),
            }
        )
    if timeline:
        data["timeline"] = timeline
    return data


class TestRoundTrip:
    @given(scenario_dicts())
    @settings(max_examples=60, deadline=None)
    def test_to_dict_parse_is_identity(self, data):
        spec = ScenarioSpec.parse(data)
        again = ScenarioSpec.parse(spec.to_dict())
        assert again == spec
        # And the dict form itself is a fixpoint (stable persistence).
        assert again.to_dict() == spec.to_dict()

    @given(scenario_dicts())
    @settings(max_examples=30, deadline=None)
    def test_json_round_trip(self, data):
        spec = ScenarioSpec.parse(data)
        again = loads(json.dumps(spec.to_dict()))
        assert again == spec


class TestDeclaredOnce:
    def sections(self):
        return [
            cls for cls in vars(spec_module).values()
            if isinstance(cls, type) and issubclass(cls, spec_module._Section)
            and dataclasses.is_dataclass(cls)
        ]

    def test_every_declared_field_is_documented(self):
        # docs/SCENARIOS.md is the field reference: a field declared in
        # spec.py that the page never names in backticks is undocumented.
        page = (pathlib.Path(__file__).parent.parent / "docs" / "SCENARIOS.md").read_text()
        documented = set(re.findall(r"[`\"]([a-z_*0-9]+)[`\"]", page))
        declared = {
            f.name for cls in self.sections() for f in dataclasses.fields(cls)
        } - {"params"}
        for params in spec_module.TIMELINE_PARAMS.values():
            declared |= set(params)
        assert len(self.sections()) == 7
        assert sorted(declared - documented) == []
