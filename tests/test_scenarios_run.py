"""Scenario compilation, envelope monitors, and the determinism contract.

The load-bearing guarantees:

- timeline lowering is exact (zone failures target the zone's contiguous
  server range, rolling deploys march through explicit batches, region
  failovers black out past the end of the run);
- envelope bounds reach ``repro.obs.check`` with the documented units
  and skip/violate semantics;
- a scenario's result is a pure function of (spec, seed, shards):
  byte-identical across repeat runs AND across ``--workers``, and the
  ``--config-out`` document replays to the same numbers through the
  plain simulate path.
"""

import json

import pytest

from repro.faults.events import FLAP, GROUP, PROBE_LOSS
from repro.obs import Registry, check, margins, metrics as M
from repro.scenarios import (
    EnvelopeSpec,
    ScenarioError,
    ScenarioSpec,
    build_fault_schedule,
    compile_scenario,
    fingerprint,
    load_file,
    run_engine,
    run_scenario,
)

TINY = {
    "name": "tiny",
    "duration_s": 8,
    "seed": 5,
    "shards": 2,
    "fleet": {"servers": 12, "horizon": 2},
    "workload": {
        "connection_rate": 90,
        "flow_duration": {"kind": "exponential", "mean": 2.0},
    },
    "update_rate_per_min": 6,
    "envelope": {"tracked_fraction_tolerance": 1.0, "max_breakage": 0.5},
}

ZONED = {
    "name": "zoned",
    "duration_s": 20,
    "ch_family": "weighted-hrw",  # a family that reads zone weights
    "fleet": {
        "horizon": 2,
        "zones": [
            {"name": "a", "servers": 4},
            {"name": "b", "servers": 6, "weight": 2.0},
        ],
    },
    "workload": {"connection_rate": 50},
}


def tiny_spec(**overrides):
    return ScenarioSpec.parse({**TINY, **overrides})


def zoned_spec(timeline=None, **overrides):
    data = {**ZONED, **overrides}
    if timeline is not None:
        data["timeline"] = timeline
    return ScenarioSpec.parse(data)


class TestCompileLowering:
    def test_zone_failure_targets_contiguous_range(self):
        spec = zoned_spec(
            [{"kind": "zone_failure", "zone": "b", "at": 5, "downtime_s": 3}]
        )
        schedule = build_fault_schedule(spec)
        (event,) = schedule.events
        assert event.kind == GROUP
        assert event.time == 5.0
        assert event.targets == (4, 5, 6, 7, 8, 9)  # zone b = servers [4, 10)
        assert event.downtime == 3.0

    def test_rolling_deploy_marches_in_batches(self):
        spec = tiny_spec(
            timeline=[
                {
                    "kind": "rolling_deploy",
                    "at": 1,
                    "servers": 5,
                    "batch": 2,
                    "interval_s": 1.5,
                    "drain_s": 0.5,
                }
            ]
        )
        events = build_fault_schedule(spec).events
        assert [e.targets for e in events] == [(0, 1), (2, 3), (4,)]
        assert [e.time for e in events] == [1.0, 2.5, 4.0]
        assert all(e.kind == GROUP and e.downtime == 0.5 for e in events)

    def test_region_failover_outlasts_the_run(self):
        spec = zoned_spec([{"kind": "region_failover", "zone": "a", "at": 12}])
        (event,) = build_fault_schedule(spec).events
        assert event.targets == (0, 1, 2, 3)
        # blackout = duration - when + slack: the region never returns.
        assert event.downtime == pytest.approx(20 - 12 + 60.0)

    def test_flap_storm_spreads_victims(self):
        spec = tiny_spec(
            timeline=[
                {
                    "kind": "flap_storm",
                    "at": 2,
                    "victims": 3,
                    "flaps": 4,
                    "interval_s": 0.5,
                    "spread_s": 3.0,
                }
            ]
        )
        events = build_fault_schedule(spec).events
        assert all(e.kind == FLAP and e.flap_count == 4 for e in events)
        assert [e.time for e in events] == [2.0, 3.0, 4.0]

    def test_probe_blackout_lowered(self):
        spec = tiny_spec(
            control={},
            timeline=[
                {"kind": "probe_blackout", "at": 3, "duration_s": 2, "loss": 0.7}
            ],
        )
        (event,) = build_fault_schedule(spec).events
        assert event.kind == PROBE_LOSS
        assert event.duration == 2.0 and event.intensity == 0.7

    def test_chaos_merges_with_scripted_events(self):
        spec = zoned_spec(
            [
                {"kind": "zone_failure", "zone": "a", "at": 5},
                {"kind": "chaos", "crash_rate_per_min": 30},
            ]
        )
        schedule = build_fault_schedule(spec)
        kinds = {e.kind for e in schedule.events}
        assert GROUP in kinds and len(schedule) > 1
        times = [e.time for e in schedule.events]
        assert times == sorted(times)

    def test_empty_timeline_has_no_schedule(self):
        assert build_fault_schedule(zoned_spec()) is None

    def test_fleet_maps_only_non_default(self):
        compiled = compile_scenario(zoned_spec())
        # zone a has default weight -> only zone b appears in the map.
        assert compiled.config.server_weights == {s: 2.0 for s in range(4, 10)}
        assert compiled.config.probe_loss_by_server is None
        assert compiled.zone_ranges == {"a": (0, 4), "b": (4, 10)}

    def test_seed_override_reseeds_chaos(self):
        spec = tiny_spec(timeline=[{"kind": "chaos", "crash_rate_per_min": 30}])
        a = compile_scenario(spec, seed=1).config.fault_schedule
        b = compile_scenario(spec, seed=2).config.fault_schedule
        assert [e.time for e in a.events] != [e.time for e in b.events]

    def test_control_block_compiles_to_closed_loop(self):
        compiled = compile_scenario(tiny_spec(control={"lead_time_s": 4.0}))
        assert compiled.config.control
        assert compiled.config.scale_lead_time_s == 4.0


def verdict(registry, name, **bounds):
    """The one result ``check`` reports under ``name`` inside ``bounds``."""
    (result,) = [r for r in check(registry, EnvelopeSpec(**bounds)) if r.name == name]
    return result


class TestEnvelopeMonitors:
    def test_breakage_bound_semantics(self):
        reg = Registry()
        reg.counter(M.FLOWS).inc(1000)
        reg.counter(M.PCC_VIOLATIONS).inc(30)
        assert verdict(reg, "breakage_bound", max_breakage=0.05).ok
        result = verdict(reg, "breakage_bound", max_breakage=0.02)
        assert result.violated
        assert result.observed == pytest.approx(0.03)

    def test_breakage_skips_without_flows(self):
        result = verdict(Registry(), "breakage_bound", max_breakage=0.05)
        assert result.skipped and result.ok

    def test_balance_cv_semantics(self):
        reg = Registry()
        reg.gauge(M.BALANCE_CV_MAX).set(0.9)
        assert verdict(reg, "balance_cv", max_balance_cv=1.0).ok
        assert verdict(reg, "balance_cv", max_balance_cv=0.8).violated
        assert verdict(Registry(), "balance_cv", max_balance_cv=0.8).skipped

    def test_monitor_suite_composition(self):
        env = EnvelopeSpec.parse(
            {"tracked_fraction_tolerance": 0.3, "max_breakage": 0.1}
        )
        names = [r.name for r in check(Registry(), env)]
        assert names == [
            "tracked_fraction", "pcc_accounting", "ct_occupancy_bound",
            "horizon_fidelity", "breakage_bound",  # balance_cv: bound not set
        ]

    def test_margins_units(self):
        env = EnvelopeSpec.parse(
            {"tracked_fraction_tolerance": 0.3, "max_breakage": 0.1, "max_balance_cv": 1.5}
        )
        reg = Registry()
        reg.counter(M.FLOWS).inc(1000)
        reg.counter(M.TRACKED_FLOWS).inc(110)
        reg.gauge(M.EXPECTED_TRACKED_FRACTION).set(0.1)
        reg.counter(M.PCC_VIOLATIONS).inc(40)
        reg.gauge(M.BALANCE_CV_MAX).set(0.9)
        headroom = margins(env, check(reg, env))
        assert list(headroom) == ["tracked_fraction", "breakage_bound", "balance_cv"]
        # tracked error = |0.11 - 0.1| / 0.1 = 0.1 -> margin 0.3 - 0.1
        assert headroom["tracked_fraction"] == pytest.approx(0.2)
        # breakage margin is in the bound's own units: 0.1 - 0.04
        assert headroom["breakage_bound"] == pytest.approx(0.06)
        assert headroom["balance_cv"] == pytest.approx(0.6)
        # Without a tolerance the default 0.10 bounds the tracked fraction.
        assert margins(None, check(reg))["tracked_fraction"] == pytest.approx(0.0)

    def test_margins_none_when_skipped(self):
        env = EnvelopeSpec.parse({"max_breakage": 0.1, "max_balance_cv": 1.0})
        assert margins(env, check(Registry(), env)) == {
            "tracked_fraction": None, "breakage_bound": None, "balance_cv": None,
        }


class TestDeterminism:
    def test_run_twice_is_byte_identical(self):
        spec = tiny_spec()
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert fingerprint(a.result) == fingerprint(b.result)

    def test_workers_do_not_change_results(self):
        spec = tiny_spec()
        one = run_scenario(spec, workers=1)
        two = run_scenario(spec, workers=2)
        assert fingerprint(one.result) == fingerprint(two.result)
        assert [m.to_json() for m in one.monitors] == [
            m.to_json() for m in two.monitors
        ]
        assert one.margins == two.margins

    def test_fingerprint_ignores_wall_clock(self):
        result = run_scenario(tiny_spec()).result
        assert "wall_seconds" not in fingerprint(result)

    def test_config_out_replays_identically(self, tmp_path):
        # spec -> document -> load -> run must equal spec -> run: the
        # written document is the whole effective scenario, pinned
        # partition included (no --shards to remember at replay).
        spec = tiny_spec(ct_policy="ttl", ct_ttl=4.0, probation_base_s=2.0,
                         downtime={"kind": "constant", "value": 3.0})
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = load_file(str(path))
        assert loaded == spec
        direct = run_engine(compile_scenario(spec))
        replayed = run_engine(compile_scenario(loaded))
        assert fingerprint(direct) == fingerprint(replayed)

    def test_old_config_format_is_refused(self, tmp_path):
        # What --config-out wrote before it wrote the scenario document
        # (a SimulationConfig dump tagged "repro-simulation-config/1"):
        # refused in one line that says how to get the new file.
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "format": "repro-simulation-config/1", "n_servers": 12,
            "coalesce_packets": True, "fault_schedule": None,
        }))
        with pytest.raises(ScenarioError, match="--config-out") as err:
            load_file(str(path))
        assert str(path) in str(err.value) and "\n" not in str(err.value)

    def test_mode_override_changes_run_not_spec(self):
        spec = tiny_spec()
        report = run_scenario(spec, mode="full")
        assert report.mode == "full"
        assert spec.mode == "jet"


class TestReport:
    def test_report_surface(self):
        report = run_scenario(tiny_spec())
        assert report.ok
        assert report.scenario == "tiny"
        payload = report.to_json()
        assert payload["ok"] is True
        assert payload["result"]["flows_started"] == report.result.flows_started
        text = report.render()
        assert "tiny" in text and "OK" in text

    def test_violation_flips_ok(self):
        # An absurdly tight breakage bound under heavy churn must trip.
        spec = tiny_spec(
            envelope={"max_breakage": 0.0},
            update_rate_per_min=60,
        )
        report = run_scenario(spec)
        if report.result.pcc_violations > 0:
            assert not report.ok
            assert any(m.name == "breakage_bound" for m in report.violations)

    def test_json_report_is_serializable(self):
        report = run_scenario(tiny_spec())
        json.dumps(report.to_json())
