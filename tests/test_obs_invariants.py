"""Invariant checks and the telemetry integration they run over.

Covers each check's semantics on synthetic registries (ok / violation /
skip), the order ``check`` runs them in and how the envelope bounds
them, the collector layer's derived series, the ``evaluate_and_export``
final line, ``repro obs summarize --strict``, and the acceptance bar:
a live-registry simulation whose observed tracked fraction lands inside
the four-sigma binomial band around |H|/(|W|+|H|) with every check green.
"""

import math

import pytest

from repro import cli
from repro.analysis.model import BAND_SIGMAS
from repro.obs import (
    MIN_FLOWS,
    JsonlExporter,
    MonitorResult,
    Registry,
    check,
    evaluate_and_export,
    merge_into,
    metrics as M,
    observed_tracked_fraction,
    render,
)
from repro.obs.summarize import main as summarize_main, summarize
from repro.scenarios import EnvelopeSpec
from repro.sim import SimulationConfig, run_simulation


def _registry_with(flows=1000, tracked=100, expected=0.1):
    reg = Registry()
    reg.counter(M.FLOWS).inc(flows)
    reg.counter(M.TRACKED_FLOWS).inc(tracked)
    reg.counter(M.EXPECTED_TRACKED_FLOWS).inc(expected * flows)
    return reg


def _announced(reg, matched=0, wasted=0, missed=0):
    """Publish horizon announcement outcomes the way the engine does."""
    for outcome, count in (("matched", matched), ("wasted", wasted), ("missed", missed)):
        reg.counter(M.HORIZON_ANNOUNCEMENTS, outcome=outcome).inc(count)
    return reg


def _at_sigmas(z, flows=10_000, p=0.1):
    """A registry whose tracked count sits ``z`` binomial sigmas off ``p``."""
    tracked = (p + z * math.sqrt(p * (1 - p) / flows)) * flows
    return _registry_with(flows=flows, tracked=tracked, expected=p)


def verdict(registry, name, envelope=None):
    """The one result ``check`` reports under ``name``."""
    (result,) = [r for r in check(registry, envelope) if r.name == name]
    return result


class TestTrackedFractionMonitor:
    @pytest.mark.parametrize("z", [3.9, -3.9])
    def test_inside_four_sigma(self, z):
        result = verdict(_at_sigmas(z), "tracked_fraction")
        assert result.ok and not result.skipped
        assert result.margin == pytest.approx(BAND_SIGMAS - 3.9)
        assert f"{z:+.2f} sigma" in result.detail

    @pytest.mark.parametrize("z", [4.1, -4.1])
    def test_outside_four_sigma(self, z):
        result = verdict(_at_sigmas(z), "tracked_fraction")
        assert result.violated
        assert result.margin == pytest.approx(BAND_SIGMAS - 4.1)

    def test_band_narrows_with_flows(self):
        # The same 10% relative error is 1.05 sigma at 1 000 flows and
        # 10.5 sigma at 100 000: the band is the theorem's, not a ratio.
        few = verdict(_registry_with(flows=1_000, tracked=110), "tracked_fraction")
        many = verdict(_registry_with(flows=100_000, tracked=11_000), "tracked_fraction")
        assert few.ok and many.violated
        assert few.margin == pytest.approx(BAND_SIGMAS - 0.01 / math.sqrt(0.09 / 1_000))

    def test_expectation_is_the_counter_over_flows(self):
        reg = Registry()
        reg.counter(M.FLOWS).inc(4000)
        reg.counter(M.TRACKED_FLOWS).inc(300)
        reg.counter(M.EXPECTED_TRACKED_FLOWS).inc(320.0)
        # The instantaneous gauge is telemetry, not the expectation.
        reg.gauge(M.EXPECTED_TRACKED_FRACTION).set(0.5)
        result = verdict(reg, "tracked_fraction")
        assert result.expected == pytest.approx(0.08)
        assert result.observed == pytest.approx(0.075)

    def test_skips_without_expectation(self):
        reg = Registry()
        reg.counter(M.FLOWS).inc(1000)
        reg.gauge(M.EXPECTED_TRACKED_FRACTION).set(0.1)
        result = verdict(reg, "tracked_fraction")
        assert result.skipped and result.ok and result.margin is None

    def test_skips_below_min_flows(self):
        reg = _registry_with(flows=MIN_FLOWS - 1, tracked=5, expected=0.1)
        result = verdict(reg, "tracked_fraction")
        assert result.skipped and f"(< {MIN_FLOWS})" in result.detail
        assert not verdict(
            _registry_with(flows=MIN_FLOWS, tracked=20, expected=0.1), "tracked_fraction"
        ).skipped

    def test_merged_shards_sum_the_expectation(self):
        # Two closed-loop shards whose horizons moved differently: the
        # fleet's expectation is sum(expected) / sum(flows) = 0.075, not
        # the larger shard's 0.1.
        def shard(flows, tracked, expected):
            return _registry_with(flows, tracked, expected).dump_series()

        reg = Registry()
        merge_into(reg, [shard(1000, 100, 0.1), shard(3000, 200, 0.0666667)])
        result = verdict(reg, "tracked_fraction")
        assert result.expected == pytest.approx(300 / 4000, rel=1e-6)
        assert result.observed == pytest.approx(300 / 4000)
        assert result.ok


class TestPCCAccountingMonitor:
    def test_ok_within_exposure(self):
        reg = Registry()
        reg.counter(M.PCC_VIOLATIONS).inc(3)
        reg.counter(M.INEVITABLY_BROKEN).inc(4)
        reg.counter(M.CHURN_EXPOSED).inc(100)
        assert verdict(reg, "pcc_accounting").ok

    def test_violation_when_broken_exceeds_exposure(self):
        reg = Registry()
        reg.counter(M.PCC_VIOLATIONS).inc(10)
        reg.counter(M.CHURN_EXPOSED).inc(4)
        assert verdict(reg, "pcc_accounting").violated

    def test_skips_without_exposure_series(self):
        assert verdict(Registry(), "pcc_accounting").skipped


class TestOccupancyBoundMonitor:
    def test_capacity_bound_holds(self):
        reg = Registry()
        reg.gauge(M.CT_OCCUPANCY_PEAK).set(90)
        reg.gauge(M.CT_CAPACITY).set(100)
        result = verdict(reg, "ct_occupancy_bound")
        assert result.ok and "capacity" in result.detail

    def test_capacity_violation(self):
        reg = Registry()
        reg.gauge(M.CT_OCCUPANCY_PEAK).set(150)
        reg.gauge(M.CT_CAPACITY).set(100)
        assert verdict(reg, "ct_occupancy_bound").violated

    def test_falls_back_to_inserts_bound(self):
        reg = Registry()
        reg.gauge(M.CT_OCCUPANCY_PEAK).set(10)
        reg.counter(M.CT_INSERTS).set_total(12)
        result = verdict(reg, "ct_occupancy_bound")
        assert result.ok and "inserts" in result.detail

    def test_skips_stateless(self):
        assert verdict(Registry(), "ct_occupancy_bound").skipped


class TestSuiteAndSerialization:
    def test_default_suite_composition(self):
        names = [r.name for r in check(Registry())]
        assert names == [
            "tracked_fraction",
            "pcc_accounting",
            "ct_occupancy_bound",
            "horizon_fidelity",
        ]
        # A set envelope bound appends its check, after the four.
        full = EnvelopeSpec(max_breakage=0.1, max_balance_cv=1.0)
        assert [r.name for r in check(Registry(), full)] == [
            *names, "breakage_bound", "balance_cv",
        ]

    def test_no_envelope_is_the_default_envelope(self):
        reg = _registry_with(flows=1000, tracked=108, expected=0.1)
        _announced(reg, matched=1, wasted=1)
        assert check(reg) == check(reg, EnvelopeSpec())

    def test_horizon_floors_come_from_the_envelope(self):
        reg = _announced(Registry(), matched=9, wasted=1, missed=0)
        assert verdict(reg, "horizon_fidelity").ok
        floors = EnvelopeSpec(min_horizon_precision=0.99, min_horizon_recall=0.99)
        result = verdict(reg, "horizon_fidelity", floors)
        assert result.violated and result.detail == "precision 0.900 below floor 0.99"

    def test_horizon_fidelity_pools_merged_shards(self):
        # Recall 13/16 and 15/16 per shard; the fleet's is 28/32, not
        # the better shard's.
        shards = [_announced(Registry(), matched=13, missed=3),
                  _announced(Registry(), matched=15, missed=1)]
        reg = Registry()
        merge_into(reg, [shard.dump_series() for shard in shards])
        result = verdict(reg, "horizon_fidelity")
        assert result.ok and result.detail == "precision=1.0 recall=0.875"
        floor = verdict(reg, "horizon_fidelity", EnvelopeSpec(min_horizon_recall=0.9))
        assert floor.violated and floor.detail == "recall 0.875 below floor 0.9"

    def test_result_json_round_trip(self):
        result = MonitorResult(name="x", ok=False, observed=1.0, expected=2.0)
        assert MonitorResult.from_json(result.to_json()) == result
        assert result.violated

    def test_render_marks_status(self):
        rendered = render([
            MonitorResult(name="a", ok=True),
            MonitorResult(name="b", ok=False),
            MonitorResult(name="c", ok=True, skipped=True),
        ])
        assert "VIOLATION" in rendered and "SKIP" in rendered

    def test_observed_tracked_fraction_helper(self):
        assert observed_tracked_fraction(Registry()) is None
        reg = _registry_with(flows=200, tracked=30)
        assert observed_tracked_fraction(reg) == pytest.approx(0.15)


class TestEvaluateAndExport:
    def test_writes_final_line_with_invariants(self, tmp_path):
        path = tmp_path / "m.jsonl"
        reg = _registry_with()
        with JsonlExporter(path) as exporter:
            reg.attach_exporter(exporter)
            results = evaluate_and_export(reg, t=5.0)
        assert all(not r.violated for r in results)
        digest = summarize(path)
        assert digest["final_t"] == 5.0
        assert [r.name for r in digest["invariants"]] == [
            "tracked_fraction", "pcc_accounting", "ct_occupancy_bound",
            "horizon_fidelity",
        ]


class TestSummarizeCLI:
    def _artifact(self, tmp_path, tracked):
        path = tmp_path / "m.jsonl"
        reg = _registry_with(tracked=tracked)
        with JsonlExporter(path) as exporter:
            reg.attach_exporter(exporter)
            evaluate_and_export(reg)
        return str(path)

    def test_strict_green(self, tmp_path, capsys):
        assert summarize_main([self._artifact(tmp_path, tracked=100), "--strict"]) == 0
        assert "tracked_fraction" in capsys.readouterr().out

    def test_strict_red_on_violation(self, tmp_path, capsys):
        path = self._artifact(tmp_path, tracked=300)
        assert summarize_main([path]) == 0  # non-strict only reports
        assert summarize_main([path, "--strict"]) == 1
        assert "violation" in capsys.readouterr().out

    def test_strict_red_on_empty_artifact(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert summarize_main([str(path)]) == 0
        assert summarize_main([str(path), "--strict"]) == 1
        assert capsys.readouterr().out.endswith(
            "no final snapshot: the run ended before it judged its invariants\n"
        )

    def test_strict_red_on_cut_off_artifact(self, tmp_path, capsys):
        # A run that died before its closing line: every sample snapshot is
        # there, the final (verdict-bearing) one is not.
        path = tmp_path / "sim.jsonl"
        cli.main(["simulate", "--duration", "10", "--rate", "200",
                  "--metrics-out", str(path)])
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) > 1 and '"final": true' in lines[-1]
        path.write_text("".join(lines[:-1]))
        capsys.readouterr()
        assert summarize_main([str(path), "--strict"]) == 1
        assert "no final snapshot" in capsys.readouterr().out


class TestSimulationTelemetry:
    """The acceptance bar, at test-sized scale."""

    @pytest.fixture(scope="class")
    def instrumented(self):
        registry = Registry()
        config = SimulationConfig(
            duration_s=40.0,
            connection_rate=500.0,
            n_servers=100,
            horizon_size=10,
            update_rate_per_min=10.0,
            mode="jet",
            ch_family="anchor",
            seed=0,
            registry=registry,
        )
        return run_simulation(config), registry

    def test_all_monitors_green(self, instrumented):
        _, registry = instrumented
        results = check(registry)
        assert [r for r in results if r.violated] == []
        assert not all(r.skipped for r in results)

    def test_tracked_fraction_near_theorem(self, instrumented):
        _, registry = instrumented
        registry.collect()
        expected = registry.value(M.EXPECTED_TRACKED_FRACTION)
        # Scraped live, so |W| reflects servers down at run end -- near
        # (not exactly) the nominal 10/110.
        assert expected == pytest.approx(10 / 110, rel=0.10)
        tracked = verdict(registry, "tracked_fraction")
        assert tracked.observed == observed_tracked_fraction(registry)
        assert tracked.ok and not tracked.skipped

    # The default simulation at seeds whose tracked fraction sits two
    # sigma off the expectation: a 10% relative tolerance failed them.
    @pytest.mark.parametrize("seed", [18, 28, 29])
    def test_default_simulation_inside_band(self, seed, tmp_path, capsys):
        path = str(tmp_path / "m.jsonl")
        assert cli.main(["simulate", "--seed", str(seed), "--metrics-out", path]) == 0
        assert summarize_main([path, "--strict"]) == 0
        assert "[       ok] tracked_fraction" in capsys.readouterr().out

    def test_series_match_sim_result(self, instrumented):
        result, registry = instrumented
        registry.collect()
        assert registry.value(M.PCC_VIOLATIONS) == result.pcc_violations
        assert registry.value(M.CT_OCCUPANCY_PEAK) == result.ct_peak_size
        assert registry.value(M.CHURN_EXPOSED) == result.churn_exposed_flows
        assert result.ct_peak_size > 0
        assert result.churn_exposed_flows > 0
        removals = registry.value(M.BACKEND_EVENTS, kind="removal")
        assert removals == result.removals

    def test_ch_lookups_labelled_by_family(self, instrumented):
        _, registry = instrumented
        registry.collect()
        lookups = registry.value(M.CH_LOOKUPS, family="anchor")
        assert lookups is not None and lookups > 0


class TestCLIMetricsOut:
    def test_simulate_emits_artifacts_and_green_monitors(self, tmp_path, capsys):
        out = tmp_path / "sim.jsonl"
        code = cli.main([
            "simulate", "--duration", "20", "--rate", "300",
            "--metrics-out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "invariant monitors" in captured
        assert "VIOLATION" not in captured
        assert out.exists()
        assert out.with_suffix(".prom").exists()
        assert summarize_main([str(out), "--strict"]) == 0

    def test_scenario_run_writes_prometheus_sibling(self, tmp_path, capsys):
        out = tmp_path / "m.jsonl"
        code = cli.main([
            "scenario", "run", "flash-crowd", "--duration", "10",
            "--metrics-out", str(out),
        ])
        assert code == 0
        prom = tmp_path / "m.prom"
        assert f"metrics: {out} (prometheus: {prom})" in capsys.readouterr().out
        assert "# TYPE repro_flows_total counter" in prom.read_text()
        assert summarize_main([str(out), "--strict"]) == 0

    def test_metrics_tolerance_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["simulate", "--metrics-tolerance", "0.5"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --metrics-tolerance" in capsys.readouterr().err

    def test_obs_summarize_subcommand(self, tmp_path, capsys):
        out = tmp_path / "sim.jsonl"
        cli.main(["simulate", "--duration", "10", "--rate", "200",
                  "--metrics-out", str(out)])
        capsys.readouterr()
        assert cli.main(["obs", "summarize", str(out), "--strict"]) == 0
        assert "invariant monitors" in capsys.readouterr().out
