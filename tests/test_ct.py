"""Connection-tracking table tests: all four policies plus stats."""

import pytest

from repro.ct import FIFOCT, LRUCT, RandomEvictCT, UnboundedCT, make_ct

ALL_BOUNDED = [
    lambda cap: LRUCT(cap),
    lambda cap: FIFOCT(cap),
    lambda cap: RandomEvictCT(cap, seed=1),
]
ALL_TABLES = [lambda cap: UnboundedCT()] + ALL_BOUNDED


@pytest.fixture(params=ALL_TABLES, ids=["unbounded", "lru", "fifo", "random"])
def any_ct(request):
    return request.param(8)


@pytest.fixture(params=ALL_BOUNDED, ids=["lru", "fifo", "random"])
def bounded_ct(request):
    return request.param(8)


class TestCommonBehaviour:
    def test_get_missing_returns_none(self, any_ct):
        assert any_ct.get(1) is None

    def test_put_then_get(self, any_ct):
        any_ct.put(1, "a")
        assert any_ct.get(1) == "a"

    def test_overwrite(self, any_ct):
        any_ct.put(1, "a")
        any_ct.put(1, "b")
        assert any_ct.get(1) == "b"
        assert len(any_ct) == 1

    def test_delete(self, any_ct):
        any_ct.put(1, "a")
        assert any_ct.delete(1) is True
        assert any_ct.delete(1) is False
        assert any_ct.get(1) is None

    def test_len_and_iter(self, any_ct):
        for i in range(5):
            any_ct.put(i, f"s{i}")
        assert len(any_ct) == 5
        assert set(any_ct) == set(range(5))

    def test_peek_does_not_touch_stats(self, any_ct):
        any_ct.put(1, "a")
        lookups = any_ct.stats.lookups
        assert any_ct.peek(1) == "a"
        assert any_ct.peek(2) is None
        assert any_ct.stats.lookups == lookups

    def test_invalidate_destination(self, any_ct):
        for i in range(6):
            any_ct.put(i, "dead" if i % 2 else "alive")
        dropped = any_ct.invalidate_destination("dead")
        assert dropped == 3
        assert all(any_ct.peek(i) != "dead" for i in range(6))
        assert any_ct.stats.invalidations == 3

    def test_stats_counters(self, any_ct):
        any_ct.put(1, "a")
        any_ct.get(1)
        any_ct.get(2)
        stats = any_ct.stats
        assert stats.lookups == 2
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.inserts == 1
        assert stats.peak_size == 1


class TestBoundedBehaviour:
    def test_capacity_enforced(self, bounded_ct):
        for i in range(50):
            bounded_ct.put(i, "s")
        assert len(bounded_ct) == 8
        assert bounded_ct.stats.evictions == 42

    def test_capacity_validation(self):
        for factory in ALL_BOUNDED:
            with pytest.raises(ValueError):
                factory(0)

    def test_overwrite_does_not_evict(self, bounded_ct):
        for i in range(8):
            bounded_ct.put(i, "s")
        bounded_ct.put(3, "t")
        assert len(bounded_ct) == 8
        assert bounded_ct.stats.evictions == 0


class TestLRUSemantics:
    def test_evicts_least_recently_used(self):
        ct = LRUCT(3)
        ct.put(1, "a")
        ct.put(2, "b")
        ct.put(3, "c")
        ct.get(1)          # refresh 1
        ct.put(4, "d")     # evicts 2
        assert ct.peek(2) is None
        assert ct.peek(1) == "a"

    def test_put_refreshes_recency(self):
        ct = LRUCT(2)
        ct.put(1, "a")
        ct.put(2, "b")
        ct.put(1, "a2")    # 1 becomes most recent
        ct.put(3, "c")     # evicts 2
        assert ct.peek(2) is None
        assert ct.peek(1) == "a2"


class TestFIFOSemantics:
    def test_evicts_oldest_insert_even_if_hot(self):
        ct = FIFOCT(3)
        ct.put(1, "a")
        ct.put(2, "b")
        ct.put(3, "c")
        ct.get(1)          # hits do NOT refresh FIFO order
        ct.put(4, "d")     # evicts 1 regardless
        assert ct.peek(1) is None


class TestRandomEvictSemantics:
    def test_seeded_determinism(self):
        def fill(seed):
            ct = RandomEvictCT(4, seed=seed)
            for i in range(20):
                ct.put(i, "s")
            return set(ct)

        assert fill(7) == fill(7)
        assert fill(7) != fill(8)  # overwhelmingly likely

    def test_survivors_are_valid(self):
        ct = RandomEvictCT(4, seed=3)
        for i in range(100):
            ct.put(i, f"d{i}")
        assert len(ct) == 4
        for key in ct:
            assert ct.peek(key) == f"d{key}"

    def test_delete_keeps_structures_consistent(self):
        ct = RandomEvictCT(8, seed=5)
        for i in range(8):
            ct.put(i, "x")
        assert ct.delete(3)
        ct.put(99, "y")
        assert set(ct) == {0, 1, 2, 4, 5, 6, 7, 99}


class TestFactory:
    def test_unbounded_when_no_capacity(self):
        assert isinstance(make_ct(None), UnboundedCT)

    def test_policy_selection(self):
        assert isinstance(make_ct(10, "lru"), LRUCT)
        assert isinstance(make_ct(10, "fifo"), FIFOCT)
        assert isinstance(make_ct(10, "random"), RandomEvictCT)

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            make_ct(10, "mru")
        # Was: the name was only looked at once a capacity was given.
        with pytest.raises(ValueError, match="bogus"):
            make_ct(None, "bogus")
