"""Trace persistence: save/load traces as ``.npz`` archives.

Generating a paper-scale trace takes longer than replaying it, so the
benchmark harness caches traces on disk.  One file layout, two modes:

- ``save_trace(..., compressed=True)`` (the default) writes a standard
  ``np.savez_compressed`` archive -- smallest on disk, must be fully
  decompressed on load;
- ``compressed=False`` stores the members uncompressed (``ZIP_STORED``),
  which makes them **memmap-able**: ``load_trace(path, mmap=True)`` maps
  each array in place, so a trace larger than RAM opens in milliseconds
  and the replay loop faults pages in as it streams through the packets.

:class:`TraceWriter` produces the exact uncompressed layout chunk by
chunk, for traces too large to ever hold in memory.

Both writers store each ``.npy`` member behind a padding extra field in
its local zip header (zipalign's record, id ``0xD935``), chosen so the
member starts on a 64-byte file offset.  npy headers pad the array data
to 64 bytes past the member start, so every mapped column is cache-line
aligned.  Archives written without the padding (plain ``np.savez``)
still load and map, just unaligned.

All writers are crash-safe: they write a temp file next to the
destination and ``os.replace`` it into place, so a torn write never
leaves a half-trace under the cache key.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zipfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.traces.base import Trace

#: Errors that mean "the cached file is unusable, regenerate it".
_CACHE_ERRORS = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)

#: Stored members start at a multiple of this file offset (a cache line;
#: npy headers pad the array data to 64 bytes past the member start).
_ALIGN = 64
#: Zip extra-field id of zipalign's padding record.
_PAD_EXTRA_ID = 0xD935


def _with_npz_suffix(path: Union[str, Path]) -> Path:
    """Append ``.npz`` when missing.

    Append -- never substitute: ``Path.with_suffix`` would treat the last
    dotted segment of a tag as an extension and corrupt it
    (``zipf.1.2`` -> ``zipf.1.npz``).
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    return path


def _open_aligned(archive: zipfile.ZipFile, member: str):
    """Open stored ``member`` for writing with its data on a 64-byte boundary.

    The local header is 30 bytes, the name, a padding record (zipalign's
    extra field: id, length, the 2-byte alignment, zeros) and the 20-byte
    zip64 record; the padding makes the member start at a multiple of
    ``_ALIGN`` in the file.  ``ZipInfo(member)`` is what
    ``ZipFile.open(member, "w")`` would build, so the timestamp is fixed.
    """
    info = zipfile.ZipInfo(member)
    header = archive.fp.tell() + 30 + len(member.encode()) + 6 + 20
    pad = -header % _ALIGN
    info.extra = struct.pack("<HHH", _PAD_EXTRA_ID, 2 + pad, _ALIGN) + bytes(pad)
    return archive.open(info, "w", force_zip64=True)


def save_trace(
    trace: Trace, path: Union[str, Path], compressed: bool = True
) -> None:
    """Write ``trace`` to ``path`` (.npz), atomically.

    ``compressed=False`` stores raw array bytes so the file can later be
    opened with ``load_trace(path, mmap=True)``.
    """
    path = _with_npz_suffix(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "name": np.asarray(trace.name),
        "flow_keys": trace.flow_keys,
        "packets": trace.packets,
    }
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        # Write through the open handle: numpy appends ".npz" to bare
        # *filenames*, which would detach the output from our temp path.
        with os.fdopen(fd, "wb") as handle:
            if compressed:
                np.savez_compressed(handle, **payload)
            else:
                with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED) as archive:
                    for member, array in payload.items():
                        with _open_aligned(archive, member + ".npy") as out:
                            np.lib.format.write_array(out, array, allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _member_memmap(path: Path, archive: zipfile.ZipFile, member: str) -> np.ndarray:
    """Memory-map one stored ``.npy`` member of an npz archive in place.

    The npz container is a zip file; a ``ZIP_STORED`` member's payload is
    a verbatim ``.npy`` file at a fixed offset, so after parsing the local
    zip header (the central directory's ``header_offset`` points at it;
    its name/extra fields may differ in length from the central copy) and
    the npy header behind it, the array data can be mapped directly.
    """
    info = archive.getinfo(member)
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(
            f"member {member!r} is compressed; memmap loading needs a trace "
            "written with save_trace(..., compressed=False) or TraceWriter"
        )
    with open(path, "rb") as raw:
        raw.seek(info.header_offset)
        local = raw.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            raise ValueError(f"corrupt local header for member {member!r}")
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        raw.seek(info.header_offset + 30 + name_len + extra_len)
        version = np.lib.format.read_magic(raw)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(raw)
        else:
            raise ValueError(f"unsupported npy version {version} in {member!r}")
        offset = raw.tell()
    return np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=offset,
        shape=shape,
        order="F" if fortran else "C",
    )


def load_trace(path: Union[str, Path], mmap: bool = False) -> Trace:
    """Read a trace previously written by :func:`save_trace`.

    With ``mmap=True`` the arrays are memory-mapped read-only instead of
    loaded -- constant memory regardless of trace size.  Requires an
    uncompressed archive; validation is skipped (the writers validated).
    The mapping holds the file open: call :meth:`Trace.close` (or use the
    trace as a context manager) to release it deterministically.
    """
    path = _with_npz_suffix(path)
    if not mmap:
        # Own the handle: np.load(path) opens one internally and leaks it
        # when header parsing raises before the NpzFile exists (the
        # truncated-file path) -- ours closes on any exit.
        with open(path, "rb") as handle:
            with np.load(handle) as data:
                return Trace(
                    name=str(data["name"]),
                    flow_keys=data["flow_keys"],
                    packets=data["packets"],
                )
    with zipfile.ZipFile(path) as archive:
        with archive.open("name.npy") as handle:
            name = str(np.lib.format.read_array(handle))
        flow_keys = _member_memmap(path, archive, "flow_keys.npy")
        packets = _member_memmap(path, archive, "packets.npy")
    return Trace(name=name, flow_keys=flow_keys, packets=packets, validate=False)


class TraceWriter:
    """Stream a trace to an uncompressed npz, chunk by chunk.

    For traces that never fit in memory: declare the array lengths up
    front (npy headers precede their data), then feed ``flow_keys`` and
    ``packets`` in chunks -- zip members are written sequentially, so all
    flow keys must be written before the first packet chunk.  The output
    is the same member layout as ``save_trace(..., compressed=False)``
    (members carry zip64 headers so a single array may exceed 4 GiB) and
    therefore ``load_trace(mmap=True)``-able.  Packet chunks are range-
    checked on the way in, which is what lets the mmap loader skip the
    full-trace scan.  The file appears atomically on :meth:`close`.
    """

    def __init__(
        self, path: Union[str, Path], name: str, n_flows: int, n_packets: int
    ) -> None:
        if n_flows < 1:
            raise ValueError("trace must contain at least one flow")
        if n_packets < 0:
            raise ValueError("n_packets must be non-negative")
        self._final = _with_npz_suffix(path)
        self._final.parent.mkdir(parents=True, exist_ok=True)
        self.n_flows = n_flows
        self.n_packets = n_packets
        self._keys_written = 0
        self._packets_written = 0
        self._member: Optional[object] = None  # currently open zip member
        self._member_name = ""
        fd, self._tmp = tempfile.mkstemp(
            dir=self._final.parent, prefix=self._final.name + ".", suffix=".tmp"
        )
        self._file = os.fdopen(fd, "wb")
        self._zip = zipfile.ZipFile(self._file, "w", zipfile.ZIP_STORED)
        with _open_aligned(self._zip, "name.npy") as handle:
            np.lib.format.write_array(handle, np.asarray(name))

    def _open_member(self, member: str, dtype: np.dtype, length: int) -> None:
        handle = _open_aligned(self._zip, member)
        np.lib.format.write_array_header_1_0(
            handle,
            {
                "descr": np.lib.format.dtype_to_descr(dtype),
                "fortran_order": False,
                "shape": (length,),
            },
        )
        self._member = handle
        self._member_name = member

    def _close_member(self) -> None:
        if self._member is not None:
            self._member.close()
            self._member = None

    def write_flow_keys(self, chunk: np.ndarray) -> None:
        """Append a chunk of uint64 flow keys (call until ``n_flows``)."""
        chunk = np.ascontiguousarray(chunk, dtype=np.uint64)
        if self._member_name not in ("", "flow_keys.npy"):
            raise ValueError("flow keys must be written before packets")
        if self._keys_written + len(chunk) > self.n_flows:
            raise ValueError("more flow keys than declared")
        if self._member is None:
            self._open_member("flow_keys.npy", np.dtype(np.uint64), self.n_flows)
        self._member.write(chunk.tobytes())
        self._keys_written += len(chunk)

    def write_packets(self, chunk: np.ndarray) -> None:
        """Append a chunk of int64 flow indices (after all flow keys)."""
        chunk = np.ascontiguousarray(chunk, dtype=np.int64)
        if len(chunk) and (chunk.min() < 0 or chunk.max() >= self.n_flows):
            raise ValueError("packet flow indices out of range")
        if self._member_name == "flow_keys.npy":
            if self._keys_written != self.n_flows:
                raise ValueError("fewer flow keys than declared")
            self._close_member()
            self._member_name = "packets.npy"
        if self._member_name != "packets.npy":
            raise ValueError("write flow keys before packets")
        if self._packets_written + len(chunk) > self.n_packets:
            raise ValueError("more packets than declared")
        if self._member is None:
            self._open_member("packets.npy", np.dtype(np.int64), self.n_packets)
        self._member.write(chunk.tobytes())
        self._packets_written += len(chunk)

    def close(self) -> None:
        """Finish the archive and move it into place atomically."""
        if self._tmp is None:
            return
        try:
            if self._keys_written != self.n_flows:
                raise ValueError("fewer flow keys than declared")
            if self._packets_written != self.n_packets:
                raise ValueError("fewer packets than declared")
            if self._member_name == "flow_keys.npy" and self.n_packets == 0:
                self._close_member()
                self._open_member("packets.npy", np.dtype(np.int64), 0)
            self._close_member()
            self._zip.close()
            self._file.close()
            os.replace(self._tmp, self._final)
            self._tmp = None
        except BaseException:
            self.abort()
            raise

    def abort(self) -> None:
        """Discard the partial file (no effect after :meth:`close`)."""
        if self._tmp is None:
            return
        self._close_member()
        try:
            self._zip.close()
        except BaseException:
            pass
        try:
            self._file.close()
        except BaseException:
            pass
        try:
            os.unlink(self._tmp)
        except OSError:
            pass
        self._tmp = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def cached_trace(
    factory,
    cache_dir: Union[str, Path],
    tag: str,
    mmap: bool = False,
) -> Trace:
    """Return a cached trace, generating and caching it on first use.

    An unreadable cache entry (truncated write from a killed process,
    foreign file under our key) is regenerated, not fatal.  Saves are
    atomic, so concurrent writers race benignly: every ``os.replace``
    publishes a complete file and the last one wins.
    """
    cache_dir = Path(cache_dir)
    path = _with_npz_suffix(cache_dir / tag)
    if path.exists():
        try:
            return load_trace(path, mmap=mmap)
        except _CACHE_ERRORS:
            pass  # fall through and regenerate
    trace = factory()
    try:
        save_trace(trace, path, compressed=not mmap)
    except OSError:
        pass  # caching is best-effort (read-only filesystems)
    else:
        if mmap:
            return load_trace(path, mmap=True)
    return trace
