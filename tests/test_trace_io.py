"""Trace persistence: atomic saves, memmap loads, streaming writes.

The cache contract under test: every writer publishes complete files
atomically (a torn write never leaves a half-trace under a cache key),
dotted cache tags survive suffix handling, unusable cache entries are
regenerated rather than fatal, and the uncompressed layout -- whether
written in one shot or streamed chunk by chunk -- is memmap-loadable
with contents identical to the in-memory load.
"""

import gc
import os
import subprocess
import sys
import weakref
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.traces import (
    TraceWriter,
    cached_trace,
    load_trace,
    save_trace,
    zipf_trace,
    zipf_trace_stream,
)
from repro.traces.io import _with_npz_suffix


def small_trace(seed=3):
    return zipf_trace(skew=1.0, n_packets=4_000, population=900, seed=seed)


def assert_traces_equal(a, b):
    assert a.name == b.name
    assert np.array_equal(a.flow_keys, b.flow_keys)
    assert np.array_equal(a.packets, b.packets)


class TestRoundtrip:
    def test_compressed_roundtrip(self, tmp_path):
        trace = small_trace()
        save_trace(trace, tmp_path / "t")
        assert_traces_equal(load_trace(tmp_path / "t"), trace)

    def test_uncompressed_roundtrip_and_mmap(self, tmp_path):
        trace = small_trace()
        save_trace(trace, tmp_path / "t", compressed=False)
        assert_traces_equal(load_trace(tmp_path / "t"), trace)
        mapped = load_trace(tmp_path / "t", mmap=True)
        assert isinstance(mapped.flow_keys, np.memmap)
        assert isinstance(mapped.packets, np.memmap)
        assert_traces_equal(mapped, trace)

    def test_mmap_of_compressed_archive_is_rejected(self, tmp_path):
        save_trace(small_trace(), tmp_path / "t", compressed=True)
        with pytest.raises(ValueError, match="compressed"):
            load_trace(tmp_path / "t", mmap=True)

    def test_mmap_trace_replays_like_memory_load(self, tmp_path):
        # The memmap view must be a drop-in Trace: same derived stats.
        trace = small_trace()
        save_trace(trace, tmp_path / "t", compressed=False)
        mapped = load_trace(tmp_path / "t", mmap=True)
        assert mapped.size_histogram() == trace.size_histogram()
        assert mapped.mean_flow_size() == trace.mean_flow_size()


class TestLifecycle:
    def test_close_releases_memmap_handles(self, tmp_path):
        # A trace that owned its mapping outright releases it on close.
        save_trace(small_trace(), tmp_path / "t", compressed=False)
        mapped = load_trace(tmp_path / "t", mmap=True)
        column = weakref.ref(mapped.flow_keys)
        mapped.close()
        gc.collect()
        assert column() is None
        # Columns are detached, not left pointing at the mapping.
        assert mapped.flow_keys.size == 0 and mapped.packets.size == 0

    def test_a_view_outlives_close(self, tmp_path):
        # Was: close() unmapped the file under the view, and reading the
        # view killed the interpreter (SIGSEGV).  In a subprocess so a
        # regression fails this test instead of the whole run.
        save_trace(small_trace(), tmp_path / "t", compressed=False)
        expected = int(small_trace().packets[100:200].sum())
        script = (
            "from repro.traces import load_trace\n"
            f"trace = load_trace({str(tmp_path / 't')!r}, mmap=True)\n"
            "view = trace.packets[100:200]\n"
            "trace.close()\n"
            "print(int(view.sum()))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env
        )
        assert done.returncode == 0, (done.returncode, done.stderr)
        assert int(done.stdout) == expected

    def test_close_is_idempotent(self, tmp_path):
        save_trace(small_trace(), tmp_path / "t", compressed=False)
        mapped = load_trace(tmp_path / "t", mmap=True)
        mapped.close()
        mapped.close()

    def test_close_on_in_memory_trace_is_noop(self):
        trace = small_trace()
        before = trace.n_flows
        trace.close()
        assert trace.n_flows == before  # columns untouched

    def test_context_manager_closes(self, tmp_path):
        trace = small_trace()
        save_trace(trace, tmp_path / "t", compressed=False)
        with load_trace(tmp_path / "t", mmap=True) as mapped:
            assert_traces_equal(mapped, trace)
            column = weakref.ref(mapped.packets)
        gc.collect()
        assert column() is None

    def test_load_error_leaves_no_open_handle(self, tmp_path):
        # The non-mmap loader owns its file handle, so a parse failure
        # (truncated archive) must not leak it -- checked by promoting
        # ResourceWarning to an error for the collection window.
        import warnings

        save_trace(small_trace(), tmp_path / "t", compressed=False)
        path = tmp_path / "t.npz"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(
                (ValueError, OSError, EOFError, zipfile.BadZipFile, KeyError)
            ):
                load_trace(path)
            gc.collect()


class TestSuffixHandling:
    def test_dotted_tag_not_mangled(self):
        # with_suffix would turn "zipf.1.2" into "zipf.1.npz".
        assert _with_npz_suffix("cache/zipf.1.2").name == "zipf.1.2.npz"
        assert _with_npz_suffix("cache/zipf.1.2.npz").name == "zipf.1.2.npz"

    def test_dotted_tag_roundtrip(self, tmp_path):
        trace = small_trace()
        save_trace(trace, tmp_path / "zipf.1.2")
        assert (tmp_path / "zipf.1.2.npz").exists()
        assert_traces_equal(load_trace(tmp_path / "zipf.1.2"), trace)

    def test_cached_trace_dotted_tag_hits_cache(self, tmp_path):
        calls = []

        def factory():
            calls.append(1)
            return small_trace()

        a = cached_trace(factory, tmp_path, "zipf.1.2")
        b = cached_trace(factory, tmp_path, "zipf.1.2")
        assert len(calls) == 1
        assert_traces_equal(a, b)


class TestAtomicity:
    def test_save_leaves_no_temp_files(self, tmp_path):
        save_trace(small_trace(), tmp_path / "t")
        save_trace(small_trace(), tmp_path / "u", compressed=False)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.npz", "u.npz"]

    def test_overwrite_is_atomic_last_writer_wins(self, tmp_path):
        first, second = small_trace(seed=1), small_trace(seed=2)
        save_trace(first, tmp_path / "t")
        save_trace(second, tmp_path / "t")
        assert_traces_equal(load_trace(tmp_path / "t"), second)
        assert [p.name for p in tmp_path.iterdir()] == ["t.npz"]

    def test_writer_abort_leaves_nothing(self, tmp_path):
        writer = TraceWriter(tmp_path / "t", "partial", n_flows=10, n_packets=10)
        writer.write_flow_keys(np.arange(1, 11, dtype=np.uint64))
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_writer_context_aborts_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with TraceWriter(tmp_path / "t", "partial", n_flows=4, n_packets=4):
                raise RuntimeError("generator died mid-write")
        assert list(tmp_path.iterdir()) == []


class TestCorruptionHandling:
    def test_truncated_file_rejected(self, tmp_path):
        save_trace(small_trace(), tmp_path / "t", compressed=False)
        path = tmp_path / "t.npz"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises((ValueError, OSError, EOFError, zipfile.BadZipFile, KeyError)):
            load_trace(path)
        with pytest.raises((ValueError, OSError, EOFError, zipfile.BadZipFile, KeyError)):
            load_trace(path, mmap=True)

    def test_garbage_file_rejected(self, tmp_path):
        (tmp_path / "t.npz").write_bytes(b"this is not a zip archive")
        with pytest.raises((ValueError, OSError, zipfile.BadZipFile)):
            load_trace(tmp_path / "t")

    def test_cached_trace_regenerates_over_corrupt_entry(self, tmp_path):
        calls = []

        def factory():
            calls.append(1)
            return small_trace()

        cached_trace(factory, tmp_path, "tag")
        (tmp_path / "tag.npz").write_bytes(b"torn write debris")
        regenerated = cached_trace(factory, tmp_path, "tag")
        assert len(calls) == 2
        assert_traces_equal(regenerated, small_trace())
        # The regeneration also repaired the cache entry.
        assert_traces_equal(load_trace(tmp_path / "tag"), small_trace())

    def test_cached_trace_mmap_mode(self, tmp_path):
        mapped = cached_trace(lambda: small_trace(), tmp_path, "tag", mmap=True)
        assert isinstance(mapped.packets, np.memmap)
        again = cached_trace(lambda: small_trace(), tmp_path, "tag", mmap=True)
        assert isinstance(again.packets, np.memmap)
        assert_traces_equal(mapped, again)

    def test_concurrent_writers_race_benignly(self, tmp_path):
        # Two "processes" caching under the same tag: interleave their
        # saves; whichever replace lands last, the entry stays complete.
        a, b = small_trace(seed=1), small_trace(seed=2)
        save_trace(a, tmp_path / "tag")
        save_trace(b, tmp_path / "tag")
        got = cached_trace(lambda: pytest.fail("cache should hit"), tmp_path, "tag")
        assert_traces_equal(got, b)


class TestTraceWriter:
    def test_streamed_trace_equals_one_shot(self, tmp_path):
        trace = small_trace()
        save_trace(trace, tmp_path / "oneshot", compressed=False)
        with TraceWriter(
            tmp_path / "streamed", trace.name, trace.n_flows, trace.n_packets
        ) as writer:
            for start in range(0, trace.n_flows, 257):
                writer.write_flow_keys(trace.flow_keys[start : start + 257])
            for start in range(0, trace.n_packets, 1013):
                writer.write_packets(trace.packets[start : start + 1013])
        # Same member layout (ZIP_STORED npy members), so both load paths
        # must see identical content -- including the memmap fast path.
        assert_traces_equal(load_trace(tmp_path / "streamed"), trace)
        streamed = load_trace(tmp_path / "streamed", mmap=True)
        assert isinstance(streamed.packets, np.memmap)
        assert_traces_equal(streamed, load_trace(tmp_path / "oneshot", mmap=True))

    def test_rejects_packets_before_keys_complete(self, tmp_path):
        with TraceWriter(tmp_path / "t", "t", n_flows=10, n_packets=5) as writer:
            writer.write_flow_keys(np.arange(1, 6, dtype=np.uint64))
            with pytest.raises(ValueError, match="fewer flow keys"):
                writer.write_packets(np.zeros(5, dtype=np.int64))
            writer.abort()

    def test_rejects_keys_after_packets(self, tmp_path):
        with TraceWriter(tmp_path / "t", "t", n_flows=2, n_packets=2) as writer:
            writer.write_flow_keys(np.array([1, 2], dtype=np.uint64))
            writer.write_packets(np.array([0, 1], dtype=np.int64))
            with pytest.raises(ValueError, match="before packets"):
                writer.write_flow_keys(np.array([3], dtype=np.uint64))
            writer.abort()

    def test_rejects_overflow_of_declared_lengths(self, tmp_path):
        with TraceWriter(tmp_path / "t", "t", n_flows=2, n_packets=2) as writer:
            with pytest.raises(ValueError, match="more flow keys"):
                writer.write_flow_keys(np.array([1, 2, 3], dtype=np.uint64))
            writer.write_flow_keys(np.array([1, 2], dtype=np.uint64))
            with pytest.raises(ValueError, match="more packets"):
                writer.write_packets(np.zeros(3, dtype=np.int64))
            writer.abort()

    def test_rejects_out_of_range_packet_indices(self, tmp_path):
        with TraceWriter(tmp_path / "t", "t", n_flows=4, n_packets=4) as writer:
            writer.write_flow_keys(np.arange(1, 5, dtype=np.uint64))
            with pytest.raises(ValueError, match="out of range"):
                writer.write_packets(np.array([0, 4], dtype=np.int64))
            with pytest.raises(ValueError, match="out of range"):
                writer.write_packets(np.array([-1], dtype=np.int64))
            writer.abort()

    def test_close_rejects_underfilled_trace(self, tmp_path):
        writer = TraceWriter(tmp_path / "t", "t", n_flows=4, n_packets=4)
        writer.write_flow_keys(np.arange(1, 5, dtype=np.uint64))
        writer.write_packets(np.array([0, 1], dtype=np.int64))
        with pytest.raises(ValueError, match="fewer packets"):
            writer.close()
        assert list(tmp_path.iterdir()) == []

    def test_zero_packet_trace(self, tmp_path):
        with TraceWriter(tmp_path / "t", "empty", n_flows=3, n_packets=0) as writer:
            writer.write_flow_keys(np.array([1, 2, 3], dtype=np.uint64))
        loaded = load_trace(tmp_path / "t", mmap=True)
        assert loaded.n_flows == 3 and loaded.n_packets == 0


class TestZipfStream:
    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            zipf_trace_stream(
                tmp_path / sub / "t", skew=1.1, n_packets=30_000,
                population=5_000, seed=9, chunk=7_001,
            )
        assert (tmp_path / "a" / "t.npz").read_bytes() == (
            tmp_path / "b" / "t.npz"
        ).read_bytes()

    def test_keeps_full_population_and_valid_indices(self, tmp_path):
        path = zipf_trace_stream(
            tmp_path / "t", skew=1.0, n_packets=10_000, population=2_000, seed=4,
            chunk=3_000,
        )
        trace = load_trace(path, mmap=True)
        assert trace.n_flows == 2_000
        assert trace.n_packets == 10_000
        assert trace.packets.min() >= 0 and trace.packets.max() < 2_000
        # Keys are the same splitmix64 window regardless of chunking.
        full = load_trace(
            zipf_trace_stream(
                tmp_path / "u", skew=1.0, n_packets=1, population=2_000, seed=4,
                chunk=1 << 20,
            )
        )
        assert np.array_equal(np.asarray(trace.flow_keys), full.flow_keys)


class TestAlignedMembers:
    """Stored members start on 64-byte file offsets, so mapped columns are
    aligned; the padding is a standard zip extra field."""

    @staticmethod
    def assert_aligned(trace):
        for column in (trace.flow_keys, trace.packets):
            assert column.ctypes.data % 64 == 0
            assert column.flags.aligned

    def test_save_trace_columns_map_aligned(self, tmp_path):
        for seed in range(4):
            trace = small_trace(seed)
            save_trace(trace, tmp_path / f"t{seed}", compressed=False)
            with load_trace(tmp_path / f"t{seed}", mmap=True) as mapped:
                self.assert_aligned(mapped)
                assert_traces_equal(mapped, trace)

    def test_stream_columns_map_aligned(self, tmp_path):
        path = zipf_trace_stream(
            tmp_path / "t", skew=1.0, n_packets=5_000, population=777, seed=2,
            chunk=1_001,
        )
        with load_trace(path, mmap=True) as mapped:
            self.assert_aligned(mapped)

    def test_np_load_reads_padded_file(self, tmp_path):
        trace = small_trace()
        save_trace(trace, tmp_path / "t", compressed=False)
        with np.load(tmp_path / "t.npz") as data:
            assert str(data["name"]) == trace.name
            assert np.array_equal(data["flow_keys"], trace.flow_keys)
            assert np.array_equal(data["packets"], trace.packets)
        with zipfile.ZipFile(tmp_path / "t.npz") as archive:
            assert archive.testzip() is None

    def test_plain_savez_file_still_maps(self, tmp_path):
        trace = small_trace()
        np.savez(
            tmp_path / "t.npz", name=np.asarray(trace.name),
            flow_keys=trace.flow_keys, packets=trace.packets,
        )
        with load_trace(tmp_path / "t", mmap=True) as mapped:
            assert_traces_equal(mapped, trace)
