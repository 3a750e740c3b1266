"""Unit tests for the repro.obs metrics registry, merge, exporters, and timers."""

import json
import math

import pytest

from repro.obs import (
    GAUGE_SUM,
    JsonlExporter,
    Registry,
    Stopwatch,
    last_snapshot,
    load_jsonl,
    load_series,
    merge_series,
    metrics as M,
    prometheus_sibling,
    render_prometheus,
    write_prometheus,
)
from repro.obs.registry import series_name


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
        assert reg.value("repro_test") == 3.5
        gauge.set(1.25)
        assert reg.value("repro_test") == 1.25

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
        reg.gauge("repro_g", phase="replay").set(0.5)
        snap = reg.snapshot()
        assert snap == {"repro_c_total": 3, 'repro_g{phase="replay"}': 0.5}

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


class TestMerge:
    def test_each_merge_rule(self):
        def shard(flows, occupancy, expected, wall):
            reg = Registry()
            reg.counter(M.FLOWS, "Flows dispatched").inc(flows)
            reg.counter(M.CH_LOOKUPS, family="hrw").inc(flows // 2)
            reg.gauge(M.CT_OCCUPANCY).set(occupancy)
            reg.gauge(M.EXPECTED_TRACKED_FRACTION).set(expected)
            reg.gauge(M.WALL_SECONDS, phase="replay").set(wall)
            return reg.dump_series()

        assert M.CT_OCCUPANCY in GAUGE_SUM
        assert M.WALL_SECONDS not in GAUGE_SUM
        merged = merge_series([shard(10, 3, 0.1, 2.0), shard(30, 4, 0.1, 5.0)])
        values = {(e["name"], tuple(e["labels"].items())): e["value"] for e in merged}
        assert values == {
            (M.FLOWS, ()): 40,                              # counters sum
            (M.CH_LOOKUPS, (("family", "hrw"),)): 20,
            (M.CT_OCCUPANCY, ()): 7,                        # GAUGE_SUM gauges sum
            (M.EXPECTED_TRACKED_FRACTION, ()): 0.1,         # other gauges: max
            (M.WALL_SECONDS, (("phase", "replay"),)): 5.0,
        }

        clash = Registry()
        clash.gauge(M.FLOWS).set(1)
        with pytest.raises(ValueError, match="merged as both"):
            merge_series([shard(1, 1, 0.1, 1.0), clash.dump_series()])

        # Loading into a fresh registry reproduces the merged dump...
        fresh = Registry()
        load_series(fresh, merged)
        assert fresh.dump_series() == merged
        assert fresh.help_of(M.FLOWS) == "Flows dispatched"
        # ...and loading into one that already has series adds to it.
        load_series(fresh, merged)
        assert fresh.value(M.FLOWS) == 80
        assert fresh.value(M.CT_OCCUPANCY) == 7  # a gauge is set, not added


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
