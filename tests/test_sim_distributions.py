"""Distribution tests: analytic means vs empirical, bounds, validation."""

import random

import pytest

from repro.sim.distributions import (
    BoundedPareto,
    Constant,
    Exponential,
    LogNormal,
    Mixture,
    dist_from_dict,
    hadoop_flow_duration,
    hadoop_flow_size,
    server_downtime,
)


def empirical_mean(dist, n=30_000, seed=5):
    rng = random.Random(seed)
    return sum(dist.sample(rng) for _ in range(n)) / n


class TestBasicDistributions:
    def test_constant(self):
        d = Constant(4.2)
        assert d.sample(random.Random(0)) == 4.2
        assert d.mean() == 4.2

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            Constant(0)

    def test_exponential_mean(self):
        d = Exponential(10.0)
        assert empirical_mean(d) == pytest.approx(10.0, rel=0.05)

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            Exponential(-1)

    def test_lognormal_mean(self):
        d = LogNormal(median=10.0, sigma=0.5)
        assert empirical_mean(d) == pytest.approx(d.mean(), rel=0.05)

    def test_lognormal_validation(self):
        with pytest.raises(ValueError):
            LogNormal(0, 1)

    def test_bounded_pareto_range(self):
        d = BoundedPareto(1.2, 2.0, 50.0)
        rng = random.Random(1)
        samples = [d.sample(rng) for _ in range(5000)]
        assert all(2.0 <= s <= 50.0 for s in samples)

    def test_bounded_pareto_mean(self):
        d = BoundedPareto(1.5, 1.0, 1000.0)
        assert empirical_mean(d, n=100_000) == pytest.approx(d.mean(), rel=0.05)

    def test_bounded_pareto_alpha_one_mean(self):
        d = BoundedPareto(1.0, 1.0, 100.0)
        assert empirical_mean(d, n=100_000) == pytest.approx(d.mean(), rel=0.05)

    def test_bounded_pareto_validation(self):
        with pytest.raises(ValueError):
            BoundedPareto(1.0, 5.0, 2.0)


class TestMixture:
    def test_mean_is_weighted(self):
        m = Mixture([(1, Constant(10)), (3, Constant(2))])
        assert m.mean() == pytest.approx(0.25 * 10 + 0.75 * 2)

    def test_sampling_respects_weights(self):
        m = Mixture([(9, Constant(1)), (1, Constant(100))])
        rng = random.Random(2)
        big = sum(m.sample(rng) == 100 for _ in range(10_000))
        assert big == pytest.approx(1000, rel=0.2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Mixture([])


NAN, INF = float("nan"), float("inf")


class TestHostileParameters:
    """A NaN passes every ``<=`` check, so each parameter is checked for
    being a finite number; weights for being non-negative, not all zero."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Constant(NAN),
            lambda: Constant(INF),
            lambda: Exponential(NAN),
            lambda: Exponential(INF),
            lambda: LogNormal(NAN, 1.0),
            lambda: LogNormal(1.0, INF),
            lambda: BoundedPareto(NAN, 1, 10),
            lambda: BoundedPareto(1.5, 1, INF),
            lambda: BoundedPareto(400.0, 1e10, 1e11),  # minimum ** alpha overflows
            lambda: Exponential(True),
            lambda: Mixture([(0, Constant(1)), (0.0, Constant(2))]),
            lambda: Mixture([(-1, Constant(1)), (2, Constant(2))]),
            lambda: Mixture([(NAN, Constant(1))]),
            lambda: Mixture([(1, "constant")]),
            lambda: dist_from_dict({"kind": "mixture", "components": [{"kind": "constant", "value": 1}]}),
            lambda: dist_from_dict({"kind": "mixture", "components": [[1, 5]]}),
            lambda: dist_from_dict({"kind": "mixture", "components": 3}),
            lambda: dist_from_dict(["constant", 1]),
        ],
    )
    def test_rejected_with_a_value_or_type_error(self, build):
        with pytest.raises((ValueError, TypeError)):
            build()

    def test_a_zero_weight_component_is_allowed(self):
        m = Mixture([(0, Constant(1)), (2, Constant(5))])
        assert m.mean() == 5 and m.sample(random.Random(0)) == 5


class TestPaperFactories:
    def test_flow_size_shape(self):
        d = hadoop_flow_size()
        rng = random.Random(3)
        samples = sorted(d.sample(rng) for _ in range(20_000))
        # Mice-dominated: median small, mean much larger (heavy tail).
        median = samples[len(samples) // 2]
        mean = sum(samples) / len(samples)
        assert median < 10
        assert mean > 3 * median

    def test_flow_duration_mean_about_20s(self):
        d = hadoop_flow_duration()
        assert d.mean() == pytest.approx(20.0, rel=0.25)

    def test_downtime_scale(self):
        d = server_downtime()
        rng = random.Random(4)
        samples = [d.sample(rng) for _ in range(5000)]
        median = sorted(samples)[2500]
        assert 40 < median < 90  # around a minute
