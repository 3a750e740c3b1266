"""Experiment-harness tests: each paper artifact runs end-to-end at tiny
scale and produces sane, correctly shaped output."""

import pytest

from repro.analysis import tracked_fraction_band
from repro.experiments import scales
from repro.experiments.extensions import load_aware_comparison, simultaneous_changes
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6a, run_fig6b
from repro.experiments.fig7 import run_fig7
from repro.experiments.report import format_table
from repro.experiments.table12 import run_table
from repro.experiments.theory import (
    concentration,
    modn_unsafe_fraction,
    order_invariance,
    paired_dispatching,
    tracking_probability,
)
from repro.experiments.trace_eval import evaluate_trace
from repro.traces import zipf_trace

TINY = scales.base_config("smoke").with_(
    duration_s=10.0, connection_rate=150.0, n_servers=30, horizon_size=3
)


class TestScales:
    def test_presets_resolve(self):
        for name in ("smoke", "default", "paper"):
            cfg = scales.base_config(name)
            assert cfg.n_servers > 0

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            scales.scale_name("huge")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert scales.scale_name() == "smoke"

    def test_overrides_apply(self):
        cfg = scales.base_config("smoke", n_servers=7)
        assert cfg.n_servers == 7


class TestFigureHarnesses:
    def test_fig3_matrix_shape(self):
        result = run_fig3(
            base=TINY, update_rates=(6, 30), ct_fractions=(0.2, 1.0), seed=5
        )
        assert set(result.full_ct) == {6, 30}
        assert all(len(v) == 2 for v in result.full_ct.values())
        assert all(len(v) == 2 for v in result.jet.values())
        # JET never worse than full CT in total violations.
        assert sum(sum(v) for v in result.jet.values()) <= sum(
            sum(v) for v in result.full_ct.values()
        )

    def test_fig4_horizon_sweep(self):
        result = run_fig4(
            base=TINY, horizon_fractions=(0.03, 0.1), ct_fractions=(0.5,), seed=6
        )
        assert len(result.horizons) == 2
        assert len(result.full_ct) == 1

    def test_fig5_series(self):
        result = run_fig5(
            base=TINY, update_rates=(6,), rate_multipliers=(0.5, 1.0), seed=7
        )
        series = result.oversubscription[6]
        assert len(series) == 2
        assert all(v >= 1.0 for v in series)
        assert result.jet_equals_full  # Proposition 4.1

    def test_fig6_histograms(self):
        a = run_fig6a(scale="smoke")
        assert set(a) == {"UNI1", "NY18"}
        assert all(series for series in a.values())
        b = run_fig6b(scale="smoke", skews=(0.6, 1.4))
        low = sum(count for _, count in b[0.6])
        high = sum(count for _, count in b[1.4])
        assert high < low  # higher skew, fewer distinct flows

    def test_fig7_cells(self):
        results = run_fig7(
            scale="smoke",
            skews=(1.0,),
            backend_sizes=(20,),
            repetitions=2,
            configs=(("anchor", "full"), ("anchor", "jet")),
        )
        cells = results[(1.0, 20)]
        full = next(c for c in cells if c.mode == "full")
        jet = next(c for c in cells if c.mode == "jet")
        assert jet.tracked.mean < 0.3 * full.tracked.mean
        assert jet.oversubscription.mean == pytest.approx(
            full.oversubscription.mean, rel=1e-9
        )


class TestTraceEval:
    def test_tracked_ratio_and_balance_equality(self):
        trace = zipf_trace(0.9, n_packets=30_000, population=10_000, seed=3)
        cells = evaluate_trace(trace, 20, repetitions=2)
        by = {(c.family, c.mode): c for c in cells}
        assert by[("table", "full")].tracked.mean == trace.n_flows
        assert by[("maglev", "full")].tracked.mean == trace.n_flows
        for family in ("table", "anchor"):
            jet = by[(family, "jet")]
            observed = jet.tracked.mean / trace.n_flows
            assert abs(observed - 2 / 22) <= tracked_fraction_band(trace.n_flows, 2 / 22)
            assert jet.oversubscription.mean == pytest.approx(
                by[(family, "full")].oversubscription.mean, rel=1e-9
            )

    def test_maglev_jet_rejected(self):
        trace = zipf_trace(0.9, n_packets=1000, population=500, seed=4)
        with pytest.raises(ValueError):
            evaluate_trace(trace, 10, repetitions=1, configs=(("maglev", "jet"),))

    def test_table12_runner(self):
        results, trace = run_table(
            "uni1", scale="smoke", backend_sizes=(20,), repetitions=2
        )
        assert 20 in results
        assert len(results[20]) == 5  # the five paper configurations


class TestTheoryHarness:
    def test_tracking_probability_rows(self):
        rows = tracking_probability(
            families=("hrw",), alphas=(0.1,), n_working=20, n_keys=4000
        )
        family, alpha, measured, predicted = rows[0]
        assert measured == pytest.approx(predicted, rel=0.3)

    def test_concentration_bound_respected(self):
        result = concentration(trials=40, keys_per_trial=1000)
        for _, empirical, hoeffding in result.exceed_by_t:
            assert empirical <= max(hoeffding * 3, 0.15)

    def test_order_invariance_all_families(self):
        outcome = order_invariance(n_keys=600)
        assert all(p1 and prefix for p1, prefix in outcome.values())

    def test_paired_dispatching_agrees(self):
        compared, disagreements = paired_dispatching(n_keys=800, n_events=8)
        assert compared > 0
        assert disagreements == 0

    def test_modn_strawman(self):
        measured, predicted = modn_unsafe_fraction(n_servers=30, n_keys=4000)
        assert measured == pytest.approx(predicted, abs=0.05)


class TestExtensionsHarness:
    def test_simultaneous_changes_pcc_clean(self):
        outcome = simultaneous_changes(n_packets=40_000)
        assert outcome["pcc_violations"] == 0
        assert outcome["inevitably_broken"] > 0

    def test_load_aware_rows_ordered(self):
        rows = load_aware_comparison(n_packets=40_000)
        by = {r.mode: r for r in rows}
        assert by["jet"].tracked_fraction < by["jet-p2c"].tracked_fraction < 1.0
        assert by["full"].tracked_fraction == pytest.approx(1.0)
        assert by["jet-p2c"].max_oversubscription <= by["jet"].max_oversubscription


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("bb")
        assert "2.500" in lines[2]
