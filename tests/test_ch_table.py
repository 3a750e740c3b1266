"""Table-based HRW tests: Algorithm 4 semantics, vector-vs-scalar
equivalence, and the single-boolean-per-row memory claim."""

import random
import tracemalloc

import numpy as np
import pytest

from repro.ch.base import BackendError
from repro.ch.table_hrw import TableHRWHash, rows_for
from tests.table_hrw_reference import ScalarTableHRW

W = [f"w{i}" for i in range(10)]
H = [f"h{i}" for i in range(2)]


class TestRowsFor:
    def test_paper_sizing(self):
        assert rows_for(50) == 15_000
        assert rows_for(500) == 150_000
        assert rows_for(10, copies=100) == 1_000

    def test_minimum_one_row(self):
        assert rows_for(0) == 1


class TestRowSemantics:
    def test_same_row_same_destination(self):
        ch = TableHRWHash(W, H, rows=127)
        k1, k2 = 127 * 3 + 5, 127 * 10 + 5  # same row
        assert ch.lookup(k1) == ch.lookup(k2)
        assert ch.lookup_with_safety(k1) == ch.lookup_with_safety(k2)

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError):
            TableHRWHash(W, rows=0)

    def test_tracked_row_fraction_near_theory(self):
        ch = TableHRWHash(W, H, rows=8209)
        expected = len(H) / (len(W) + len(H))
        assert ch.tracked_row_fraction() == pytest.approx(expected, rel=0.3)

    def test_empty_working_lookup_raises(self):
        ch = TableHRWHash([], ["h0"], rows=17)
        with pytest.raises(BackendError):
            ch.lookup(5)


class TestAlgorithm4Updates:
    def test_add_working_claims_only_tracked_rows(self):
        ch = TableHRWHash(W, H, rows=509)
        tr_before = ch._tr.copy()
        winners_before = ch._ch.copy()
        ch.add_working(H[0])
        changed = winners_before != ch._ch
        # Every row that changed winner was a tracked row beforehand.
        assert bool((changed & ~tr_before).any()) is False

    def test_remove_working_marks_owned_rows_unsafe(self):
        ch = TableHRWHash(W, H, rows=509)
        victim_id = ch._ids[W[0]]
        owned = ch._ch == victim_id
        ch.remove_working(W[0])
        assert bool(ch._tr[owned].all()) is True

    def test_add_horizon_only_raises_flags(self):
        ch = TableHRWHash(W, H, rows=509)
        tr_before = ch._tr.copy()
        winners_before = ch._ch.copy()
        ch.add_horizon("late")
        assert (ch._ch == winners_before).all()  # winners untouched
        assert bool((tr_before & ~ch._tr).any()) is False  # flags never drop

    def test_remove_horizon_only_lowers_flags(self):
        ch = TableHRWHash(W, H, rows=509)
        tr_before = ch._tr.copy()
        ch.remove_horizon(H[0])
        assert bool((~tr_before & ch._tr).any()) is False

    def test_empty_horizon_means_no_tracking(self):
        ch = TableHRWHash(W, H, rows=509)
        for h in list(ch.horizon):
            ch.remove_horizon(h)
        assert ch.tracked_row_fraction() == 0.0


class TestEmptyWorkingPromotion:
    """Draining W to empty and promoting from H must hand every row to
    the promoted server (there is no incumbent to beat)."""

    @pytest.mark.parametrize("cls", [TableHRWHash, ScalarTableHRW])
    def test_promoted_server_takes_every_row(self, cls):
        ch = cls(["a"], ["b", "c"], rows=101)
        ch.remove_working("a")
        ch.add_working("b")
        assert ch.working == {"b"}
        fresh = cls(["b"], ["a", "c"], rows=101)
        for row in range(101):
            assert ch.lookup_with_safety(row) == fresh.lookup_with_safety(row)
            assert ch.lookup_with_safety(row)[0] == "b"

    def test_batch_kernel_never_hands_out_no_server(self):
        ch = TableHRWHash(["a"], ["b", "c"], rows=101)
        ch.remove_working("a")
        keys = np.arange(101, dtype=np.uint64)
        with pytest.raises(BackendError):
            ch.lookup_with_safety_batch_idx(keys)
        ch.add_working("b")
        idx, unsafe = ch.lookup_with_safety_batch_idx(keys)
        assert idx.dtype == np.int32 and (idx >= 0).all()
        assert set(ch.backend_table()[idx]) == {"b"}
        assert unsafe.tolist() == [ch.lookup_with_safety(r)[1] for r in range(101)]


# Tile budget the rebuild oracle runs under: with |W| = 10 the construction
# block is 64 rows, and it moves as the sets grow and shrink.
_SMALL_TILE = 640


def _assert_matches_rebuild(vec, ref, rows):
    """Every row of the mutated table equals a freshly built one and the
    scalar reference, through both lookups and the batch kernel."""
    fresh = TableHRWHash(sorted(vec.working), sorted(vec.horizon), rows=rows)
    assert vec.working == ref.working and vec.horizon == ref.horizon
    all_rows = np.arange(rows, dtype=np.uint64)
    if not vec.working:
        for ch in (vec, fresh, ref):
            with pytest.raises(BackendError):
                ch.lookup_with_safety(0)
        with pytest.raises(BackendError):
            vec.lookup_with_safety_batch_idx(all_rows)
    else:
        idx, unsafe = vec.lookup_with_safety_batch_idx(all_rows)
        assert (idx >= 0).all()
        batch = list(zip(vec.backend_table()[idx].tolist(), unsafe.tolist()))
        expected = [ref.lookup_with_safety(row) for row in range(rows)]
        assert batch == expected
        assert [vec.lookup_with_safety(row) for row in range(rows)] == expected
        assert [fresh.lookup_with_safety(row) for row in range(rows)] == expected
    if vec.working or vec.horizon:
        expected = [ref.lookup_union(row) for row in range(rows)]
        assert [vec.lookup_union(row) for row in range(rows)] == expected
        assert [fresh.lookup_union(row) for row in range(rows)] == expected


def _run_rebuild_oracle(seed, rows):
    vec = TableHRWHash(W, H, rows=rows)
    ref = ScalarTableHRW(W, H, rows=rows)
    rng = random.Random(seed)
    fresh_names = (f"x{seed}-{i}" for i in range(1000))

    def apply(op, name):
        getattr(vec, op)(name)
        getattr(ref, op)(name)
        _assert_matches_rebuild(vec, ref, rows)

    def random_ops(steps):
        for _ in range(steps):
            working = sorted(vec.working)
            horizon = sorted(vec.horizon)
            op = rng.random()
            if op < 0.3 and horizon:
                apply("add_working", rng.choice(horizon))
            elif op < 0.55 and working:
                apply("remove_working", rng.choice(working))
            elif op < 0.7:
                apply("add_horizon", next(fresh_names))
            elif op < 0.8:
                apply("force_add_working", next(fresh_names))
            elif horizon:
                apply("remove_horizon", rng.choice(horizon))

    _assert_matches_rebuild(vec, ref, rows)
    random_ops(25)
    for name in sorted(vec.working):            # drain W to zero ...
        apply("remove_working", name)
    apply("add_horizon", next(fresh_names))     # ... mutate H while it is
    apply("remove_horizon", sorted(vec.horizon)[0])
    for name in sorted(vec.horizon)[::2]:       # ... and refill it
        apply("add_working", name)
    for name in sorted(vec.horizon):            # empty the horizon
        apply("remove_horizon", name)
    apply("force_add_working", next(fresh_names))
    random_ops(15)


class TestVectorVsScalarReference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_operation_sequences_agree(self, seed, monkeypatch):
        """Rebuild oracle: after every op the mutated table equals a fresh
        build over the same sets and the scalar reference, on every row
        (193 rows: three construction blocks and a one-row tail)."""
        monkeypatch.setattr("repro.hashing.vector._TILE_CELLS", _SMALL_TILE)
        _run_rebuild_oracle(seed, rows=193)

    @pytest.mark.parametrize("rows", [40, 64, 128])
    def test_rebuild_oracle_at_block_boundaries(self, rows, monkeypatch):
        """Rows below, equal to, and an exact multiple of the block."""
        monkeypatch.setattr("repro.hashing.vector._TILE_CELLS", _SMALL_TILE)
        _run_rebuild_oracle(seed=4, rows=rows)

    @pytest.mark.parametrize("rows", [40, 64, 193])
    def test_blocked_construction_equals_one_at_a_time(self, rows, monkeypatch):
        monkeypatch.setattr("repro.hashing.vector._TILE_CELLS", _SMALL_TILE)
        built = TableHRWHash(W, H, rows=rows)
        grown = TableHRWHash(rows=rows)
        for name in W:
            grown.add_horizon(name)
            grown.add_working(name)
        for name in H:
            grown.add_horizon(name)
        for field in ("_ch", "_ch_w", "_h_id", "_h_w", "_tr"):
            assert np.array_equal(getattr(built, field), getattr(grown, field)), field

    def test_fresh_tables_agree_row_by_row(self):
        rows = 311
        vec = TableHRWHash(W, H, rows=rows)
        ref = ScalarTableHRW(W, H, rows=rows)
        for row in range(rows):
            assert vec.lookup_with_safety(row) == ref.lookup_with_safety(row)


class TestMemoryFootprint:
    """A count gate: table state is five row arrays and one seed per
    server, so no (server x row) weight matrix may come back."""

    MIB = 1 << 20

    @staticmethod
    def _traced(build):
        """(retained, peak) traced bytes of ``build()``, its result alive."""
        tracemalloc.start()
        try:
            ch = build()  # noqa: F841 -- held so "retained" counts it
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def test_bench_fleet_retains_under_2_mib(self):
        def build():
            ch = TableHRWHash(
                [f"s{i}" for i in range(100)],
                [f"h{i}" for i in range(10)],
                rows=rows_for(100),
            )
            ch.remove_working("s7")
            ch.add_working("s7")
            return ch

        current, peak = self._traced(build)
        assert current < 2 * self.MIB
        assert peak < 4 * self.MIB

    def test_paper_table1_size_builds_under_24_mib(self):
        _, peak = self._traced(
            lambda: TableHRWHash(
                [f"s{i}" for i in range(500)],
                [f"h{i}" for i in range(50)],
                rows=rows_for(500),
            )
        )
        assert peak < 24 * self.MIB
