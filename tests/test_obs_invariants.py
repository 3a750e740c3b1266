"""Invariant checks and the telemetry integration they run over.

Covers each check's semantics on synthetic registries (ok / violation /
skip), the order ``check`` runs them in and how the envelope bounds
them, the collector layer's derived series, the ``evaluate_and_export``
final line, ``repro obs summarize --strict``, and the acceptance bar:
a live-registry simulation whose observed tracked fraction lands within
tolerance of |H|/(|W|+|H|) with every check green.
"""

import pytest

from repro import cli
from repro.obs import (
    MIN_FLOWS,
    JsonlExporter,
    MonitorResult,
    Registry,
    check,
    evaluate_and_export,
    metrics as M,
    observed_tracked_fraction,
    render,
)
from repro.obs.summarize import main as summarize_main, summarize
from repro.scenarios import EnvelopeSpec, ScenarioError
from repro.sim import SimulationConfig, run_simulation


def _registry_with(flows=1000, tracked=100, expected=0.1):
    reg = Registry()
    reg.counter(M.FLOWS).inc(flows)
    reg.counter(M.TRACKED_FLOWS).inc(tracked)
    reg.gauge(M.EXPECTED_TRACKED_FRACTION).set(expected)
    return reg


def verdict(registry, name, envelope=None):
    """The one result ``check`` reports under ``name``."""
    (result,) = [r for r in check(registry, envelope) if r.name == name]
    return result


class TestTrackedFractionMonitor:
    def test_within_tolerance(self):
        result = verdict(
            _registry_with(flows=1000, tracked=105, expected=0.1), "tracked_fraction"
        )
        assert result.ok and not result.skipped
        assert result.observed == pytest.approx(0.105)

    def test_violation_outside_tolerance(self):
        result = verdict(
            _registry_with(flows=1000, tracked=200, expected=0.1), "tracked_fraction"
        )
        assert result.violated
        # A wider envelope tolerates the same drift.
        wide = EnvelopeSpec(tracked_fraction_tolerance=1.5)
        assert verdict(
            _registry_with(flows=1000, tracked=200, expected=0.1), "tracked_fraction", wide
        ).ok

    def test_skips_without_expectation(self):
        reg = Registry()
        reg.counter(M.FLOWS).inc(1000)
        result = verdict(reg, "tracked_fraction")
        assert result.skipped and result.ok

    def test_skips_below_min_flows(self):
        reg = _registry_with(flows=MIN_FLOWS - 1, tracked=5, expected=0.1)
        result = verdict(reg, "tracked_fraction")
        assert result.skipped and f"(< {MIN_FLOWS})" in result.detail
        assert not verdict(
            _registry_with(flows=MIN_FLOWS, tracked=20, expected=0.1), "tracked_fraction"
        ).skipped

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ScenarioError, match="tracked_fraction_tolerance"):
            EnvelopeSpec.parse({"tracked_fraction_tolerance": 0})


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
        reg.gauge(M.HORIZON_PRECISION).set(0.5)
        assert check(reg) == check(reg, EnvelopeSpec())

    def test_horizon_floors_come_from_the_envelope(self):
        reg = Registry()
        reg.gauge(M.HORIZON_PRECISION).set(0.9)
        reg.gauge(M.HORIZON_RECALL).set(1.0)
        assert verdict(reg, "horizon_fidelity").ok
        floors = EnvelopeSpec(min_horizon_precision=0.99, min_horizon_recall=0.99)
        result = verdict(reg, "horizon_fidelity", floors)
        assert result.violated and result.detail == "precision 0.900 below floor 0.99"

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
        observed = observed_tracked_fraction(registry)
        assert observed == pytest.approx(expected, rel=0.10)

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
