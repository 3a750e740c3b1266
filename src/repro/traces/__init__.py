"""Packet traces: synthetic generators, persistence, and replay."""

from repro.traces.base import Trace
from repro.traces.zipf import PAPER_SKEWS, zipf_trace, zipf_trace_stream
from repro.traces.synthetic_dc import (
    NY18_FLOWS,
    NY18_PACKETS,
    UNI1_FLOWS,
    UNI1_PACKETS,
    dc_trace,
    ny18_like,
    uni1_like,
)
from repro.traces.replay import (
    ReplayResult,
    TraceEvent,
    merge_replay_results,
    replay,
    replay_batch,
)
from repro.traces.io import TraceFormatError, TraceWriter, load_trace, save_trace
from repro.traces.from_pcap import trace_from_pcap

__all__ = [
    "Trace",
    "zipf_trace",
    "zipf_trace_stream",
    "PAPER_SKEWS",
    "dc_trace",
    "uni1_like",
    "ny18_like",
    "UNI1_FLOWS",
    "UNI1_PACKETS",
    "NY18_FLOWS",
    "NY18_PACKETS",
    "replay",
    "replay_batch",
    "merge_replay_results",
    "ReplayResult",
    "TraceEvent",
    "save_trace",
    "load_trace",
    "TraceFormatError",
    "TraceWriter",
    "trace_from_pcap",
]
