"""HealthProber: evidence-based eviction, lossy probes, probation-ordered
readmission, and determinism (repro.control.prober)."""

import pytest

from repro.control.prober import HealthProber
from repro.faults.health import HealthMonitor


def make_prober(up, **kwargs):
    """Prober whose ground truth is the mutable set ``up``."""
    kwargs.setdefault("fail_threshold", 3)
    kwargs.setdefault("recover_threshold", 2)
    return HealthProber(is_up=lambda name: name in up, **kwargs)


class TestThresholds:
    def test_eviction_needs_consecutive_failures(self):
        up = {"a", "b"}
        prober = make_prober(up)
        prober.watch("a")
        prober.watch("b")
        up.discard("a")
        # Two failed probes: below fail_threshold=3, nothing evicted.
        assert prober.probe_all(0.0) == ([], [])
        assert prober.probe_all(1.0) == ([], [])
        # Third consecutive failure crosses the threshold.
        evict, readmit = prober.probe_all(2.0)
        assert evict == ["a"]
        assert readmit == []
        assert prober.is_evicted("a")
        assert not prober.is_evicted("b")
        assert prober.stats.evictions == 1
        assert prober.stats.false_evictions == 0

    def test_success_resets_failure_streak(self):
        up = {"a"}
        prober = make_prober(up)
        prober.watch("a")
        up.discard("a")
        prober.probe_all(0.0)
        prober.probe_all(1.0)
        up.add("a")  # blip heals before the third probe
        prober.probe_all(2.0)
        up.discard("a")
        # The streak restarted: two more failures still aren't enough.
        assert prober.probe_all(3.0)[0] == []
        assert prober.probe_all(4.0)[0] == []
        assert prober.probe_all(5.0)[0] == ["a"]

    def test_readmission_needs_recover_threshold(self):
        up = set()
        prober = make_prober(up, monitor=HealthMonitor(base_s=0.0))
        prober.watch("a")
        for t in range(3):
            prober.probe_all(float(t))
        assert prober.is_evicted("a")
        up.add("a")
        # First-offender probation is zero delay, but recover_threshold=2
        # still demands two consecutive successes.
        assert prober.probe_all(3.0)[1] == []
        assert prober.probe_all(4.0)[1] == ["a"]
        assert not prober.is_evicted("a")
        assert prober.stats.readmissions == 1

    def test_repeat_offender_waits_out_probation(self):
        up = set()
        monitor = HealthMonitor(base_s=10.0)
        prober = make_prober(up, monitor=monitor)
        prober.watch("a")

        def crash_and_recover(start):
            for i in range(3):
                prober.probe_all(start + i)
            up.add("a")
            out = []
            t = start + 3
            while not out:
                _, out = prober.probe_all(t)
                t += 1.0
            return t - 1.0 - (start + 3)

        # First eviction: delay_for(1) == 0, readmitted as soon as the
        # recover streak completes (one extra probe past detection).
        first_wait = crash_and_recover(0.0)
        up.discard("a")
        # Second eviction, 10 s after the first and so inside the 30 s
        # decay: delay_for(2) == base_s => ~10 extra seconds.
        second_wait = crash_and_recover(10.0)
        assert first_wait == 1.0
        assert second_wait >= 10.0


class TestLossyProbes:
    def test_losses_can_falsely_evict_a_live_server(self):
        up = {"a"}
        prober = make_prober(up, loss_probability=0.95, seed=7)
        prober.watch("a")
        for t in range(50):
            prober.probe_all(float(t))
            if prober.is_evicted("a"):
                break
        assert prober.is_evicted("a")
        assert prober.stats.false_evictions >= 1
        assert prober.stats.lost >= 3

    def test_failure_threshold_damps_moderate_loss(self):
        def evictions(fail_threshold):
            up = {"a"}
            prober = make_prober(
                up,
                loss_probability=0.2,
                seed=3,
                fail_threshold=fail_threshold,
                # Zero probation so eviction frequency is limited only
                # by the threshold, not by readmission backoff.
                monitor=HealthMonitor(base_s=0.0),
            )
            prober.watch("a")
            for t in range(200):
                prober.probe_all(float(t))
            return prober.stats.evictions

        # With threshold 1 every lost probe evicts; threshold 3 needs
        # p^3 runs and cuts false evictions by an order of magnitude.
        assert evictions(1) >= 10 * evictions(3)
        assert evictions(3) <= 4

    def test_degrade_window_composes_and_expires(self):
        up = {"a"}
        prober = make_prober(up, loss_probability=0.5, seed=1)
        prober.degrade(0.5, until=10.0)
        # Inside the window the two sources compose: 1 - 0.5*0.5 = 0.75.
        assert prober._loss_now(5.0) == pytest.approx(0.75)
        # At/after the deadline only the baseline remains.
        assert prober._loss_now(10.0) == pytest.approx(0.5)
        assert prober._loss_now(11.0) == pytest.approx(0.5)


class TestOrderingAndDeterminism:
    def test_mixed_int_and_str_names_probe_fine(self):
        up = {3, "auto1"}
        prober = make_prober(up)
        prober.watch(3)
        prober.watch("auto1")
        up.clear()
        for t in range(3):
            evict, _ = prober.probe_all(float(t))
        assert set(evict) == {3, "auto1"}
        assert prober.evicted == sorted([3, "auto1"], key=str)

    def test_same_tick_readmission_is_ordered(self):
        up = set()
        prober = make_prober(up, monitor=HealthMonitor(base_s=0.0))
        for name in ("b", "a", 10):
            prober.watch(name)
        for t in range(3):
            prober.probe_all(float(t))
        up.update({"b", "a", 10})
        prober.probe_all(3.0)
        _, readmit = prober.probe_all(4.0)
        # All three recover in the same tick with equal eligible_at:
        # the (eligible_time, str(name)) order ties-breaks by name.
        assert readmit == [10, "a", "b"]

    def test_identical_seeds_identical_trajectories(self):
        def trajectory(seed):
            up = {"a", "b", "c"}
            prober = make_prober(up, loss_probability=0.4, seed=seed)
            for name in up:
                prober.watch(name)
            events = []
            for t in range(60):
                evict, readmit = prober.probe_all(float(t))
                if t == 20:
                    up.discard("b")
                if t == 30:
                    up.add("b")
                events.append((tuple(evict), tuple(readmit)))
            return events, prober.stats

        events_a, stats_a = trajectory(42)
        events_b, stats_b = trajectory(42)
        events_c, stats_c = trajectory(43)
        assert events_a == events_b
        assert stats_a == stats_b
        assert (events_a, stats_a) != (events_c, stats_c)

    def test_forget_stops_probing(self):
        up = set()
        prober = make_prober(up)
        prober.watch("a")
        prober.forget("a")
        prober.probe_all(0.0)
        assert prober.stats.sent == 0
        assert prober.evicted == []
