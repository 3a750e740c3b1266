"""Trace representation.

A trace is a packet stream over a fixed flow population.  We store it
columnar for memory efficiency at multi-million-packet scale:

- ``flow_keys``: uint64 array, the 64-bit connection key of each flow;
- ``packets``: int64 array of flow *indices*, one entry per packet, in
  arrival order.

This mirrors what the paper's C++ harness feeds its LBs: a pre-hashed
key per packet.  Helper accessors provide the flow-size histogram data
behind Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np


@dataclass
class Trace:
    """A replayable packet trace."""

    name: str
    flow_keys: np.ndarray  # shape (n_flows,), dtype uint64
    packets: np.ndarray    # shape (n_packets,), dtype int64 (flow indices)
    #: Skip the full range scan of ``packets`` on construction.  Set False
    #: only for sources that validated at write time (the streaming trace
    #: writer) -- a memmap-backed load would otherwise fault in the whole
    #: file just to re-check what the writer already enforced.
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        # asanyarray with the matching dtype is a no-copy view that keeps
        # the np.memmap subclass, so nothing is faulted in here.
        self.flow_keys = np.asanyarray(self.flow_keys, dtype=np.uint64)
        self.packets = np.asanyarray(self.packets, dtype=np.int64)
        if len(self.flow_keys) == 0:
            raise ValueError("trace must contain at least one flow")
        if self.validate and (
            self.packets.min(initial=0) < 0
            or (len(self.packets) and self.packets.max() >= len(self.flow_keys))
        ):
            raise ValueError("packet flow indices out of range")

    # --------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Drop the trace's own references to memmap-backed columns.

        A ``load_trace(path, mmap=True)`` trace maps the file for as long
        as its arrays live.  ``close`` (or leaving the trace's ``with``
        block) swaps the columns for empty arrays, so the mapping and its
        file handle die with their last view: at once for a trace that
        owned them outright, later if views handed out earlier (a shard's
        sub-trace, a replay loop's ``keys``, a traceback frame) still
        read them -- never under such a view.  Idempotent; in-memory
        traces are unaffected.
        """
        for attr in ("flow_keys", "packets"):
            array = getattr(self, attr)
            if isinstance(array, np.memmap):
                setattr(self, attr, np.empty(0, dtype=array.dtype))

    def __enter__(self) -> "Trace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------ sizes
    @property
    def n_flows(self) -> int:
        return len(self.flow_keys)

    @property
    def n_packets(self) -> int:
        return len(self.packets)

    def flow_sizes(self) -> np.ndarray:
        """Packets per flow (flows with zero packets included)."""
        return np.bincount(self.packets, minlength=self.n_flows)

    def size_histogram(self) -> Dict[int, int]:
        """Map flow size -> number of flows of that size (Fig. 6 data)."""
        sizes = self.flow_sizes()
        sizes = sizes[sizes > 0]
        values, counts = np.unique(sizes, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))

    def mean_flow_size(self) -> float:
        return self.n_packets / self.n_flows

    def describe(self) -> str:
        sizes = self.flow_sizes()
        sizes = sizes[sizes > 0]
        return (
            f"{self.name}: {self.n_packets:,} packets, {self.n_flows:,} flows, "
            f"mean size {self.mean_flow_size():.1f}, "
            f"max size {int(sizes.max()):,}"
        )
