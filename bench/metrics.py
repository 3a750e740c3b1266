"""Metric names, units and directions, and how passes become metrics.

``BENCHMARK.json`` lists exactly these names (``bench/tests`` holds the
two together).  Every run prints every name of its kind: a per-layer
metric whose layer does no work on the workload reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from bench.machine import TIME_UNITS
from bench.tracing import Tracer
from bench.workloads import STACKS, Pass

#: (name, unit, better)
Metric = Tuple[str, str, str]

END_TO_END: Tuple[Metric, ...] = (
    ("setup_s", "s", "lower"),
    ("jet_pps", "packets/s", "higher"),
    ("full_pps", "packets/s", "higher"),
    ("concury_pps", "packets/s", "higher"),
    ("jet_tracked_fraction", "ratio", "lower"),
    ("concury_intact_fraction", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: Per-stack layer terms: (suffix, unit, better, needs a CT).
_STACK_TERMS = (
    ("traces.replay_ns_per_packet", "ns", "lower", False),
    ("core.dispatch_ns_per_packet", "ns", "lower", False),
    ("core.chunk_p50_us", "us", "lower", False),
    ("core.chunk_p99_us", "us", "lower", False),
    ("ct.probe_ns_per_packet", "ns", "lower", True),
    ("ct.hit_ratio", "ratio", "higher", True),
    ("ct.insert_ns_per_packet", "ns", "lower", True),
    ("ct.insert_ns_per_key", "ns", "lower", True),
    ("ct.inserts", "count", "lower", True),
    ("ct.invalidate_ms_per_event", "ms", "lower", True),
    ("ch.kernel_ns_per_key", "ns", "lower", False),
    ("ch.keys", "count", "lower", False),
    ("ch.update_ms_per_event", "ms", "lower", False),
    ("core.event_apply_p50_ms", "ms", "lower", False),
    ("core.event_apply_max_ms", "ms", "lower", False),
    ("core.membership_ms_per_event", "ms", "lower", False),
    ("other_ns_per_packet", "ns", "lower", False),
    ("trace_overhead_share", "ratio", "lower", False),
    ("shard.shard_sum_s", "s", "lower", False),
    ("shard.kernel_sum_s", "s", "lower", False),
    ("shard.merge_ms", "ms", "lower", False),
    ("shard.outcome_pickle_bytes", "bytes", "lower", False),
    ("shard.fork_overhead_s", "s", "lower", False),
    ("shard.parallel_efficiency", "ratio", "higher", False),
    ("scenarios.parse_compile_ms", "ms", "lower", False),
    ("sim.engine_us_per_packet", "us", "lower", False),
    ("core.scalar_dispatch_us_per_packet", "us", "lower", False),
    ("obs.evaluate_ms", "ms", "lower", False),
)

SHEET_FAMILIES = ("table", "anchor", "ring", "hrw", "maglev", "jump", "concury")
SHEET_CT_SIZES = (("50k", 50_000), ("500k", 500_000))


def per_layer() -> Tuple[Metric, ...]:
    names: List[Metric] = []
    for stack in STACKS:
        for suffix, unit, better, needs_ct in _STACK_TERMS:
            if needs_ct and stack == "concury":
                continue
            names.append((f"{stack}.{suffix}", unit, better))
    names.append(("shard.load_mmap_ms", "ms", "lower"))
    names.append(("shard.partition_s", "s", "lower"))
    for family in SHEET_FAMILIES:
        names.append((f"ch.{family}.idx_ns_per_key", "ns", "lower"))
        names.append((f"ch.{family}.scalar_us_per_key", "us", "lower"))
    for label, _ in SHEET_CT_SIZES:
        for op in ("probe_hit", "probe_miss", "insert"):
            names.append((f"ct.unbounded.{label}.{op}_ns_per_key", "ns", "lower"))
    return tuple(names)


def end_to_end(
    setup_s: Sequence[float],
    rounds: Dict[str, List[Pass]],
    peak_rss_mb: float,
) -> Dict[str, float]:
    """End-to-end metrics from the untraced rounds of one run.

    Each pass (and each set-up) is taken at reference machine speed by
    its own calibration samples, then the median is taken.
    """
    values = {"setup_s": statistics.median(setup_s)}
    for stack in STACKS:
        passes = rounds[stack]
        values[f"{stack}_pps"] = passes[0].packets / statistics.median(
            p.wall_s * p.speed for p in passes
        )
    jet = rounds["jet"][0].counts
    concury = rounds["concury"][0].counts
    values["jet_tracked_fraction"] = jet["tracked"] / jet["flows"]
    broken = concury["violations"] + concury.get("inevitable", 0)
    values["concury_intact_fraction"] = 1.0 - broken / concury["flows"]
    values["peak_rss_mb"] = peak_rss_mb
    return values


def at_reference_speed(
    values: Dict[str, float], units: Dict[str, str], speed: float
) -> Dict[str, float]:
    """Times and rates as the reference machine would have measured them
    (the per-layer metrics, by the machine speed of the whole run)."""
    scaled = dict(values)
    for name, unit in units.items():
        if unit in TIME_UNITS:
            scaled[name] = values[name] * speed
        elif unit == "packets/s":
            scaled[name] = values[name] / speed
    return scaled


def budget_ns(tracer: Tracer) -> Dict[str, int]:
    """Self time per budget term; event wrappers fold into membership."""
    terms = dict(tracer.self_ns)
    terms["membership"] = terms.get("membership", 0) + terms.pop("event", 0)
    return terms


def stack_layers(tracer: Tracer, traced: Pass) -> Dict[str, float]:
    """One traced pass as the per-stack layer terms (unprefixed)."""
    ns = budget_ns(tracer)
    calls, keys = tracer.calls, tracer.keys
    packets = traced.packets

    def per(term: str, denominator: float, scale: float = 1.0) -> float:
        return ns.get(term, 0) / denominator / scale if denominator else 0.0

    chunks = sorted(tracer.durations_ns(role="dispatch"))
    events = tracer.durations_ns(role="event")
    extras = traced.extras
    values = {
        "traces.replay_ns_per_packet": per("replay", packets),
        "core.dispatch_ns_per_packet": per("dispatch", packets) if chunks else 0.0,
        "core.chunk_p50_us": _percentile(chunks, 0.50) / 1e3,
        "core.chunk_p99_us": _percentile(chunks, 0.99) / 1e3,
        "ct.probe_ns_per_packet": per("probe", packets),
        "ct.hit_ratio": (
            extras["ct_hits"] / extras["ct_lookups"] if extras.get("ct_lookups") else 0.0
        ),
        "ct.insert_ns_per_packet": per("insert", packets),
        "ct.insert_ns_per_key": per("insert", keys.get("insert", 0)),
        "ct.inserts": extras.get("ct_inserts", 0),
        "ct.invalidate_ms_per_event": per("invalidate", calls.get("invalidate", 0), 1e6),
        "ch.kernel_ns_per_key": per("kernel", keys.get("kernel", 0)),
        "ch.keys": keys.get("kernel", 0),
        "ch.update_ms_per_event": per("update", calls.get("update", 0), 1e6),
        "core.event_apply_p50_ms": _percentile(sorted(events), 0.50) / 1e6,
        "core.event_apply_max_ms": max(events, default=0) / 1e6,
        "core.membership_ms_per_event": per(
            "membership", calls.get("event", 0) or calls.get("membership", 0), 1e6
        ),
        "other_ns_per_packet": per("other", packets),
        "scenarios.parse_compile_ms": extras.get("parse_compile_ms", 0.0),
        "sim.engine_us_per_packet": per("engine", packets, 1e3),
        "core.scalar_dispatch_us_per_packet": 0.0 if chunks else sum(
            ns.get(term, 0) for term in ("dispatch", "probe", "insert", "kernel")
        ) / packets / 1e3,
        "obs.evaluate_ms": ns.get("obs", 0) / 1e6,
    }
    for term in ("shard_sum_s", "kernel_sum_s", "merge_ms", "outcome_pickle_bytes",
                 "fork_overhead_s"):
        values[f"shard.{term}"] = extras.get(term, 0.0)
    return values


def _percentile(ordered: Sequence[int], q: float) -> float:
    if not ordered:
        return 0.0
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])
