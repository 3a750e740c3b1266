"""Analysis helpers: aggregation, histograms, balance math."""

import math

import pytest

from repro.analysis import (
    MeanStd,
    aggregate,
    loglog_histogram,
    max_oversubscription,
)


# Reference balance figures the library does not compute: Jain's index and
# the Raab-Steger balls-into-bins maximum (the paper's footnote 7 sanity
# check: ``m/n + sqrt(2 (m/n) ln n)`` for ``m >> n log n``).
def jains_fairness(loads):
    values = list(loads.values())
    squares = sum(v * v for v in values)
    return sum(values) ** 2 / (len(values) * squares) if squares else 1.0


def expected_balls_in_bins_max(balls, bins):
    mean = balls / bins
    return mean + math.sqrt(2 * mean * math.log(bins))


def expected_oversubscription(balls, bins):
    return expected_balls_in_bins_max(balls, bins) / (balls / bins)


def geometric_mean(values):
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric_mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


class TestAggregate:
    def test_mean_and_std(self):
        agg = aggregate([1.0, 2.0, 3.0])
        assert agg.mean == pytest.approx(2.0)
        assert agg.std == pytest.approx(math.sqrt(2 / 3))
        assert agg.n == 3

    def test_single_value(self):
        agg = aggregate([5.0])
        assert agg.mean == 5.0
        assert agg.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_formatting(self):
        agg = MeanStd(1.23456, 0.0345, 10)
        assert f"{agg:.2f}" == "1.23 ±0.03"
        assert "±" in str(agg)


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])


class TestLogLogHistogram:
    def test_size_one_gets_own_bin(self):
        series = loglog_histogram({1: 100, 2: 10})
        assert series[0] == (1.0, 100)

    def test_binning_aggregates_decades(self):
        series = loglog_histogram({100: 5, 101: 7}, bins_per_decade=1)
        centers = [c for c, _ in series]
        counts = [n for _, n in series]
        assert len(series) == 1
        assert counts[0] == 12
        assert 100 <= centers[0] <= 1000

    def test_empty(self):
        assert loglog_histogram({}) == []

    def test_total_flows_preserved(self):
        histogram = {1: 10, 3: 4, 50: 2, 5000: 1}
        series = loglog_histogram(histogram)
        assert sum(n for _, n in series) == 17


class TestBalanceMath:
    def test_max_oversubscription(self):
        assert max_oversubscription({"a": 4, "b": 2}) == pytest.approx(4 / 3)

    def test_with_explicit_server_count(self):
        # Two flows on one server, but four servers active: mean is 0.5.
        assert max_oversubscription({"a": 2}, active_servers=4) == pytest.approx(4.0)

    def test_empty(self):
        assert max_oversubscription({}) == 0.0

    def test_jains_fairness_perfect(self):
        assert jains_fairness({"a": 5, "b": 5, "c": 5}) == pytest.approx(1.0)

    def test_jains_fairness_worst(self):
        assert jains_fairness({"a": 9, "b": 0, "c": 0}) == pytest.approx(1 / 3)

    def test_balls_in_bins_envelope(self):
        # 25K balls in 468 bins (the paper's footnote-7 reference point):
        # theoretical max oversubscription should land in Fig. 5's band.
        ratio = expected_oversubscription(25_000, 468)
        assert 1.2 < ratio < 1.7

    def test_expected_max_monotone_in_balls(self):
        assert expected_balls_in_bins_max(10_000, 100) < expected_balls_in_bins_max(
            20_000, 100
        )
