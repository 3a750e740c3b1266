"""TTL (idle-timeout) CT table tests."""

import pytest

from repro.ct import TTLCT, Clock, make_ct


@pytest.fixture
def clocked():
    clock = Clock(0.0)
    return TTLCT(ttl=10.0, clock=clock), clock


class TestExpiry:
    def test_fresh_entry_hit(self, clocked):
        ct, clock = clocked
        ct.put(1, "a")
        clock.now = 9.9
        assert ct.get(1) == "a"

    def test_idle_entry_expires(self, clocked):
        ct, clock = clocked
        ct.put(1, "a")
        clock.now = 10.1
        assert ct.get(1) is None
        assert ct.expired == 1

    def test_touch_refreshes_ttl(self, clocked):
        ct, clock = clocked
        ct.put(1, "a")
        clock.now = 8.0
        assert ct.get(1) == "a"  # touch
        clock.now = 17.0         # 9s after the touch, 17s after insert
        assert ct.get(1) == "a"

    def test_len_excludes_expired(self, clocked):
        ct, clock = clocked
        ct.put(1, "a")
        ct.put(2, "b")
        clock.now = 5.0
        ct.get(2)  # refresh 2 only
        clock.now = 12.0
        assert len(ct) == 1
        assert set(ct) == {2}

    def test_peek_respects_ttl_without_mutation(self, clocked):
        ct, clock = clocked
        ct.put(1, "a")
        clock.now = 11.0
        assert ct.peek(1) is None
        clock.now = 5.0
        # peek never refreshed, so the original stamp still governs.
        assert ct.peek(1) == "a"

    def test_put_reaps_stale_entries(self, clocked):
        ct, clock = clocked
        for i in range(5):
            ct.put(i, "x")
        clock.now = 20.0
        ct.put(99, "y")
        assert len(ct) == 1
        assert ct.expired == 5


class TestBoundedTTL:
    def test_capacity_eviction_of_stalest(self):
        clock = Clock(0.0)
        ct = TTLCT(ttl=100.0, capacity=2, clock=clock)
        ct.put(1, "a")
        clock.now = 1.0
        ct.put(2, "b")
        clock.now = 2.0
        ct.put(3, "c")  # evicts 1 (stalest)
        assert ct.peek(1) is None
        assert ct.peek(2) == "b"
        assert ct.stats.evictions == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TTLCT(ttl=0)
        with pytest.raises(ValueError):
            TTLCT(ttl=1, capacity=0)


class TestIntegration:
    def test_make_ct_ttl(self):
        ct = make_ct(policy="ttl", ttl=5.0, clock=Clock(0.0))
        assert isinstance(ct, TTLCT)
        assert ct.ttl == 5.0

    def test_simulator_tracks_active_only(self):
        from repro.sim import LogNormal, SimulationConfig, run_simulation

        base = SimulationConfig(
            duration_s=30.0,
            connection_rate=300.0,
            n_servers=30,
            horizon_size=3,
            update_rate_per_min=6.0,
            downtime_dist=LogNormal(median=5.0, sigma=0.6),
            seed=5,
        )
        unbounded = run_simulation(base.with_(mode="full"))
        ttl = run_simulation(base.with_(mode="full", ct_policy="ttl", ct_ttl=10.0))
        # TTL reclaims dead flows: strictly smaller peak than grow-forever.
        assert ttl.peak_tracked < unbounded.peak_tracked
        assert ttl.pcc_violations == 0

    def test_wall_clock_default(self):
        ct = TTLCT(ttl=1000.0)
        ct.put(1, "a")
        assert ct.get(1) == "a"
