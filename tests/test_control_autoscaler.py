"""Autoscaler planning: forecasting, watermark hysteresis, seeded
forecast degradation, and the horizon scorecard (repro.control.autoscaler)."""

import pytest

from repro.control.autoscaler import MAX_STEP, Autoscaler, HorizonScorecard


def feed(scaler, samples):
    for t, flows, working in samples:
        scaler.observe(t, flows, working)


class TestForecast:
    def test_extrapolates_linear_growth(self):
        scaler = Autoscaler(target_load=8.0, lead_time_s=5.0)
        # load/server rises 1.0 per second: 0..3 at t=0..3.
        feed(scaler, [(float(t), t * 10, 10) for t in range(4)])
        # At t=3 the 5s-ahead forecast is load(8) = 8.0.
        assert scaler.forecast(3.0) == pytest.approx(8.0)

    def test_flat_signal_forecasts_itself(self):
        scaler = Autoscaler(target_load=8.0)
        feed(scaler, [(float(t), 40, 10) for t in range(4)])
        assert scaler.forecast(3.0) == pytest.approx(4.0)

    def test_single_sample_and_empty(self):
        scaler = Autoscaler()
        assert scaler.forecast(0.0) is None
        scaler.observe(0.0, 30, 10)
        assert scaler.forecast(0.0) == pytest.approx(3.0)

    def test_freeze_discards_samples_until_deadline(self):
        scaler = Autoscaler()
        scaler.observe(0.0, 10, 10)
        scaler.freeze(until=5.0)
        scaler.observe(1.0, 1000, 10)  # dropped: signal is stale
        assert scaler.forecast(1.0) == pytest.approx(1.0)
        scaler.observe(6.0, 50, 10)  # past the deadline: accepted again
        assert len(scaler._samples) == 2


class TestWatermarks:
    def grown_scaler(self, **kwargs):
        kwargs.setdefault("target_load", 8.0)
        kwargs.setdefault("cooldown_s", 10.0)
        scaler = Autoscaler(**kwargs)
        # Steeply rising load: forecast will clear the high watermark.
        feed(scaler, [(float(t), 40 + 30 * t, 10) for t in range(4)])
        return scaler

    def test_launch_above_high_watermark(self):
        scaler = self.grown_scaler()
        decision = scaler.plan(3.0, working=10)
        assert decision is not None and decision.kind == "launch"
        assert 1 <= decision.count <= MAX_STEP
        assert scaler.scale_outs == 1

    def test_hysteresis_band_does_nothing(self):
        scaler = Autoscaler(target_load=8.0)
        # Steady 8.0 load/server: between 4.0 and 10.0, inside the band.
        feed(scaler, [(float(t), 80, 10) for t in range(4)])
        assert scaler.plan(3.0, working=10) is None
        assert scaler.scale_outs == scaler.scale_ins == 0

    def test_cooldown_suppresses_back_to_back_actions(self):
        scaler = self.grown_scaler()
        assert scaler.plan(3.0, working=10) is not None
        feed(scaler, [(4.0, 400, 10)])
        assert scaler.plan(4.0, working=10) is None  # inside cooldown
        feed(scaler, [(14.0, 500, 10)])
        assert scaler.plan(14.0, working=10) is not None

    def test_retire_below_low_watermark_keeps_one_server(self):
        scaler = Autoscaler(target_load=8.0, cooldown_s=0.0)
        feed(scaler, [(float(t), 10, 10) for t in range(4)])
        decision = scaler.plan(3.0, working=10)
        assert decision.kind == "retire"
        assert decision.count == MAX_STEP == 2
        assert decision.announced == 0
        # With one server left, never retire to zero.
        assert scaler.plan(10.0, working=1) is None


class TestForecastDegradation:
    def launch_many(self, scaler, rounds=40):
        decisions = []
        t = 0.0
        feed(scaler, [(t, 400, 10), (t + 1, 430, 10)])
        for _ in range(rounds):
            t += 1.0
            feed(scaler, [(t, 400 + 30 * t, 10)])
            decision = scaler.plan(t, working=10)
            if decision is not None:
                decisions.append(decision)
        return decisions

    def test_perfect_forecast_announces_everything(self):
        scaler = Autoscaler(target_load=8.0, cooldown_s=0.0)
        for decision in self.launch_many(scaler):
            assert decision.announced == decision.count
            assert decision.phantoms == 0

    def test_recall_draws_are_per_launch(self):
        # With one draw per decision, announced would always be 0 or
        # count; per-launch draws produce intermediate values.
        scaler = Autoscaler(
            target_load=8.0, cooldown_s=0.0, forecast_recall=0.5, seed=11,
        )
        announced = [d.announced for d in self.launch_many(scaler, 80)]
        counts = [d.count for d in self.launch_many(
            Autoscaler(target_load=8.0, cooldown_s=0.0,
                       forecast_recall=0.5, seed=11), 80)]
        assert any(0 < a < c for a, c in zip(announced, counts) if c > 1)
        total_launched = sum(counts)
        total_announced = sum(announced)
        assert 0 < total_announced < total_launched

    def test_zero_recall_never_announces(self):
        scaler = Autoscaler(
            target_load=8.0, cooldown_s=0.0, forecast_recall=0.0
        )
        for decision in self.launch_many(scaler):
            assert decision.announced == 0
            assert decision.phantoms == 0  # phantoms ride on announcements

    def test_phantom_rate_matches_precision_odds(self):
        # precision 0.5 => odds (1-p)/p = 1 phantom per announcement.
        scaler = Autoscaler(
            target_load=8.0, cooldown_s=0.0, forecast_precision=0.5, seed=5,
        )
        decisions = self.launch_many(scaler, 120)
        announced = sum(d.announced for d in decisions)
        phantoms = sum(d.phantoms for d in decisions)
        assert announced > 0
        assert phantoms == announced  # odds=1.0 is deterministic

    def test_fractional_odds_are_stochastic_but_seeded(self):
        def total_phantoms(seed):
            scaler = Autoscaler(
                target_load=8.0, cooldown_s=0.0, forecast_precision=0.75, seed=seed,
            )
            return sum(d.phantoms for d in self.launch_many(scaler, 120))

        # odds = 1/3: some but not all announcements drag a phantom.
        count = total_phantoms(9)
        assert count > 0
        assert count == total_phantoms(9)

    def test_validation(self):
        with pytest.raises(ValueError):
            Autoscaler(target_load=0.0)
        with pytest.raises(ValueError):
            Autoscaler(forecast_precision=1.5)
        with pytest.raises(ValueError):
            Autoscaler(forecast_recall=-0.1)


class TestScorecard:
    def test_precision_recall_arithmetic(self):
        card = HorizonScorecard(matched=8, phantom=2, missed=2)
        assert card.precision == pytest.approx(0.8)
        assert card.recall == pytest.approx(0.8)

    def test_empty_scorecard_is_undefined_not_zero(self):
        card = HorizonScorecard()
        assert card.precision is None
        assert card.recall is None
