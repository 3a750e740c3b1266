"""Unit tests for the repro.obs metrics registry, exporters, and timers."""

import json
import math

import pytest

from repro.obs import (
    NULL,
    JsonlExporter,
    NullRegistry,
    Registry,
    Stopwatch,
    coalesce,
    last_snapshot,
    load_jsonl,
    prometheus_sibling,
    render_prometheus,
    write_prometheus,
)
from repro.obs.registry import DEFAULT_TIME_BUCKETS, series_name


class TestInstruments:
    def test_counter_inc_and_reuse(self):
        reg = Registry()
        reg.counter("repro_test_total").inc()
        reg.counter("repro_test_total").inc(4)
        assert reg.value("repro_test_total") == 5

    def test_counter_rejects_negative_inc(self):
        with pytest.raises(ValueError):
            Registry().counter("repro_test_total").inc(-1)

    def test_counter_set_total_monotonic(self):
        counter = Registry().counter("repro_test_total")
        counter.set_total(10)
        counter.set_total(10)  # equal is fine
        counter.set_total(12)
        with pytest.raises(ValueError):
            counter.set_total(5)

    def test_gauge_moves_both_ways(self):
        reg = Registry()
        gauge = reg.gauge("repro_test")
        gauge.set(3.5)
        gauge.inc()
        gauge.dec(2.0)
        assert reg.value("repro_test") == pytest.approx(2.5)

    def test_labelled_series_are_independent(self):
        reg = Registry()
        reg.counter("repro_ch_lookups_total", family="hrw").inc(7)
        reg.counter("repro_ch_lookups_total", family="ring").inc(2)
        assert reg.value("repro_ch_lookups_total", family="hrw") == 7
        assert reg.value("repro_ch_lookups_total", family="ring") == 2
        assert reg.value("repro_ch_lookups_total") is None

    def test_kind_conflict_rejected(self):
        reg = Registry()
        reg.counter("repro_test_total")
        with pytest.raises(ValueError):
            reg.gauge("repro_test_total")

    def test_invalid_names_rejected(self):
        reg = Registry()
        with pytest.raises(ValueError):
            reg.counter("not a metric")
        with pytest.raises(ValueError):
            reg.counter("repro_ok_total", **{"bad-label": "x"})

    def test_histogram_buckets(self):
        reg = Registry()
        hist = reg.histogram("repro_lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.total == pytest.approx(56.05)
        assert hist.cumulative_buckets() == [
            ("0.1", 1), ("1", 3), ("10", 4), ("+Inf", 5),
        ]

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Registry().histogram("repro_lat", buckets=(1.0, 0.1))

    def test_timer_observes_elapsed(self):
        reg = Registry()
        with reg.timer("repro_span") as span:
            pass
        assert span.elapsed >= 0.0
        hist = reg.histogram("repro_span")
        assert hist.count == 1

    def test_default_time_buckets_sorted(self):
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)


class TestRegistry:
    def test_collectors_run_on_snapshot(self):
        reg = Registry()
        seen = []
        reg.add_collector(lambda r: seen.append(r.gauge("repro_g").set(1.0)))
        reg.snapshot()
        reg.snapshot()
        assert len(seen) == 2

    def test_snapshot_flattens_series(self):
        reg = Registry()
        reg.counter("repro_c_total").inc(3)
        reg.histogram("repro_h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["repro_c_total"] == 3
        assert snap["repro_h"]["count"] == 1
        assert snap["repro_h"]["buckets"] == {"1": 1, "+Inf": 1}

    def test_series_name_rendering(self):
        assert series_name("m", ()) == "m"
        assert series_name("m", (("a", "1"), ("b", "x"))) == 'm{a="1",b="x"}'


class TestPrometheus:
    def test_render_counter_gauge(self):
        reg = Registry()
        reg.counter("repro_c_total", "a counter", family="hrw").inc(2)
        reg.gauge("repro_g", "a gauge").set(0.25)
        text = render_prometheus(reg)
        assert "# HELP repro_c_total a counter" in text
        assert "# TYPE repro_c_total counter" in text
        assert 'repro_c_total{family="hrw"} 2' in text
        assert "# TYPE repro_g gauge" in text
        assert "repro_g 0.25" in text

    def test_render_histogram_expansion(self):
        reg = Registry()
        reg.histogram("repro_h", "hist", buckets=(1.0, 5.0)).observe(0.4)
        text = render_prometheus(reg)
        assert 'repro_h_bucket{le="1"} 1' in text
        assert 'repro_h_bucket{le="5"} 1' in text
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_sum 0.4" in text
        assert "repro_h_count 1" in text

    def test_write_prometheus_and_sibling(self, tmp_path):
        reg = Registry()
        reg.counter("repro_c_total").inc()
        out = write_prometheus(reg, tmp_path / "m.prom")
        assert out.read_text().endswith("repro_c_total 1\n")
        assert prometheus_sibling("run/m.jsonl").name == "m.prom"
        assert prometheus_sibling("m").name == "m.prom"

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(Registry()) == ""


class TestJsonl:
    def test_round_trip_and_final(self, tmp_path):
        path = tmp_path / "m.jsonl"
        reg = Registry()
        with JsonlExporter(path) as exporter:
            reg.attach_exporter(exporter)
            reg.counter("repro_c_total").inc()
            reg.export_snapshot(t=1.0)
            reg.counter("repro_c_total").inc()
            reg.export_snapshot(t=2.0, final=True, invariants=[])
        records = load_jsonl(path)
        assert [r["t"] for r in records] == [1.0, 2.0]
        assert records[0]["metrics"]["repro_c_total"] == 1
        final = last_snapshot(records)
        assert final["final"] is True
        assert final["metrics"]["repro_c_total"] == 2

    def test_last_snapshot_without_final_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"t": 0.5, "metrics": {}}) + "\n")
        assert last_snapshot(load_jsonl(path))["t"] == 0.5
        assert last_snapshot([]) is None


class TestNullRegistry:
    def test_shared_inert_instruments(self):
        null = NullRegistry()
        counter = null.counter("repro_c_total", family="hrw")
        assert counter is null.gauge("repro_g") is null.histogram("repro_h")
        counter.inc(5)
        counter.set_total(10)
        null.gauge("repro_g").set(3)
        null.histogram("repro_h").observe(1.0)
        assert null.value("repro_c_total", family="hrw") is None
        assert null.series() == {}
        assert null.snapshot() == {}
        assert not null.enabled

    def test_timer_context_is_noop(self):
        with NULL.timer("repro_span") as span:
            pass
        assert span.elapsed == 0.0

    def test_collectors_and_exporters_ignored(self):
        NULL.add_collector(lambda r: (_ for _ in ()).throw(AssertionError))
        NULL.attach_exporter(object())
        NULL.collect()
        NULL.export_snapshot(t=0.0)

    def test_coalesce(self):
        assert coalesce(None) is NULL
        live = Registry()
        assert coalesce(live) is live


class TestTimers:
    def test_stopwatch_measures_positive_time(self):
        watch = Stopwatch()
        total = sum(range(1000))
        elapsed = watch.stop()
        assert elapsed > 0.0
        assert math.isfinite(elapsed)
        assert total == 499500

    def test_stopwatch_context_manager(self):
        with Stopwatch() as watch:
            pass
        assert watch.stop() >= 0.0
