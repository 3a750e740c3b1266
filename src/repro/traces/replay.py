"""Trace replay harness -- the Section 5.2/5.3 measurement loop.

Feeds every packet of a trace through a load balancer and reports the
three metrics of Tables 1-2 and Fig. 7:

- **maximum oversubscription**: connections at the most loaded server
  divided by the average per active server;
- **tracked connections**: CT table occupancy after the replay (the run
  configuration matches the paper: CT unbounded, "no flows are evicted");
- **rate**: dispatched packets per second of wall time.

Rate caveat (documented in EXPERIMENTS.md): the paper measures a C++
implementation where the effect at play is L1/L2 cache residency of CT
tables vs. CH computations.  The scalar loop here measures interpreter
dict/loop costs instead (~1-2 M packets/s, full CT ahead of JET); the
columnar loop runs at 20-61 M packets/s on the bench's 2-vCPU reference
box (``replay-steady``, seed 1, medians that drift ~15 % from one
day to another: Concury 48-56 M, JET 45-61 M, full CT 21-29 M), with JET
ahead of full CT by ~2x there (2.0-2.1x with transparent huge pages on
or off) and level with it on hit-heavy traces: the ratio is set by how
many packets need a CT search or an insert more than by cache
residency -- until a backend change, a packet JET calls safe asks
nothing of its CT, and a key the CT misses is searched once, by the
probe, whose slot the insert then writes.  What does hinge on residency
is the loop's own per-flow state: the first-destination column is gathered
once per packet, so it is kept at the id space's width (int8 up to 128
backends) and stays in L2 beside the CT.  Concury's CT-less kernel walks
each chunk in L2-sized tiles, so its rate is its hashing and two Othello
gathers rather than cache bandwidth.  Nothing asserts a rate.

Backend-change events can be injected mid-trace to exercise PCC under
churn (used by integration tests and the extensions bench).

Two drivers, same metrics: :func:`replay` is the scalar per-packet loop
(the executable spec); :func:`replay_batch` is the columnar loop for
balancers whose ``columnar_effective`` probe answers True, and hands every
other balancer to :func:`replay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.balance import max_oversubscription
from repro.core.interfaces import LoadBalancer, Name
from repro.obs import metrics as obs_metrics
from repro.obs.timers import Stopwatch
from repro.traces.base import Trace

#: An injected event: (packet_index, callable applied to the balancer).
TraceEvent = Tuple[int, Callable[[LoadBalancer], None]]


@dataclass
class ReplayResult:
    """Metrics from one trace replay."""

    trace_name: str
    n_flows: int
    n_packets: int
    tracked_connections: int
    wall_seconds: float
    pcc_violations: int
    inevitably_broken: int
    server_loads: Dict[Name, int] = field(default_factory=dict)
    #: CT occupancy high-water mark over the replay (0 for stateless).
    ct_peak_size: int = 0
    #: Active (working) servers at finalization; the denominator of the
    #: oversubscription average.
    active_servers: int = 0

    @property
    def max_oversubscription(self) -> float:
        return max_oversubscription(self.server_loads, self.active_servers)

    @property
    def rate_pps(self) -> float:
        return self.n_packets / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def row(self) -> str:
        return (
            f"{self.trace_name}: oversub={self.max_oversubscription:.3f} "
            f"tracked={self.tracked_connections:,} "
            f"rate={self.rate_pps / 1e6:.3f} Mpps "
            f"violations={self.pcc_violations}"
        )


def replay(
    trace: Trace,
    balancer: LoadBalancer,
    events: Sequence[TraceEvent] = (),
    metrics=None,
) -> ReplayResult:
    """Replay ``trace`` through ``balancer`` and measure the paper's metrics.

    ``events`` is an optional schedule of backend changes keyed by packet
    index (applied just before that packet is dispatched).

    ``metrics`` is an optional :class:`repro.obs.registry.Registry`.  All
    instrumentation happens *after* the dispatch loop (counters published
    from the loop's own tallies), so the loop is identical with metrics
    off (``None``) or live -- the differential suite holds both to the
    same decisions and counts the calls into ``repro.obs``'s registry
    (none when off; live, none that grow with the trace).
    """
    keys: List[int] = [int(k) for k in trace.flow_keys]
    packet_flows: List[int] = trace.packets.tolist()
    first_destination: List[Optional[Name]] = [None] * trace.n_flows
    broken = bytearray(trace.n_flows)
    violations = 0
    inevitable = 0

    event_queue = sorted(events, key=lambda ev: ev[0])
    next_event = 0

    get_destination = balancer.get_destination
    # Load-aware balancers (Section 6.3) receive flow-start notifications
    # and a new-connection (TCP SYN) signal on each flow's first packet.
    note_flow_start = getattr(balancer, "note_flow_start", None)
    syn_aware = getattr(balancer, "dispatches_new_connections", False)
    watch = Stopwatch()
    # One loop, events or not: this is the executable spec, not a fast path.
    for packet_index, flow_index in enumerate(packet_flows):
        while next_event < len(event_queue) and event_queue[next_event][0] <= packet_index:
            event_queue[next_event][1](balancer)
            next_event += 1
        previous = first_destination[flow_index]
        if syn_aware:
            destination = get_destination(keys[flow_index], previous is None)
        else:
            destination = get_destination(keys[flow_index])
        if previous is None:
            first_destination[flow_index] = destination
            if note_flow_start is not None:
                note_flow_start(destination)
        elif destination != previous and not broken[flow_index]:
            broken[flow_index] = 1
            if previous in balancer.working:
                violations += 1
            else:
                inevitable += 1
    wall = watch.stop()

    result = _build_result(trace, balancer, first_destination, violations, inevitable, wall)
    _publish_metrics(metrics, balancer, result, path="scalar", n_events=len(event_queue))
    return result


def _build_result(
    trace: Trace,
    balancer: LoadBalancer,
    first_destination: List[Optional[Name]],
    violations: int,
    inevitable: int,
    wall: float,
) -> ReplayResult:
    """Fold per-flow destinations into the ReplayResult metrics."""
    loads: Dict[Name, int] = {}
    for destination in first_destination:
        if destination is not None:
            loads[destination] = loads.get(destination, 0) + 1
    return _finalize(trace, balancer, loads, violations, inevitable, wall)


def _finalize(
    trace: Trace,
    balancer: LoadBalancer,
    loads: Dict[Name, int],
    violations: int,
    inevitable: int,
    wall: float,
) -> ReplayResult:
    """Assemble the ReplayResult from a per-server load dict."""
    active_servers = len(balancer.working)
    ct = getattr(balancer, "ct", None)
    return ReplayResult(
        trace_name=trace.name,
        n_flows=trace.n_flows,
        n_packets=trace.n_packets,
        tracked_connections=balancer.tracked_connections,
        wall_seconds=wall,
        pcc_violations=violations,
        inevitably_broken=inevitable,
        server_loads=loads,
        ct_peak_size=ct.stats.peak_size if ct is not None else 0,
        active_servers=active_servers,
    )


def merge_replay_results(results: Sequence[ReplayResult]) -> ReplayResult:
    """Fold per-shard replay results into one, as if replayed unsharded.

    Associative and commutative over results from disjoint keyspace
    partitions of one trace: flow- and packet-level tallies (violations,
    inevitable breaks, tracked connections, per-server loads, packets)
    sum; ``n_flows`` is the shared flow population (max); oversubscription
    is read off the merged loads over the shared working set.

    Timing is only a placeholder: ``wall_seconds`` is the slowest input's
    wall, so ``rate_pps`` is the total packets over it.  A driver that
    times itself puts its own wall there (``replay_sharded`` does).

    ``ct_peak_size`` sums, which is exact for churn-free replays into
    unbounded CTs (occupancy is monotone, so per-shard peaks coexist) and
    an upper bound under churn (shards may peak at different times).
    """
    if not results:
        raise ValueError("nothing to merge")
    loads: Dict[Name, int] = {}
    for result in results:
        for name, count in result.server_loads.items():
            loads[name] = loads.get(name, 0) + count
    return ReplayResult(
        trace_name=results[0].trace_name,
        n_flows=max(result.n_flows for result in results),
        n_packets=sum(result.n_packets for result in results),
        tracked_connections=sum(r.tracked_connections for r in results),
        wall_seconds=max(result.wall_seconds for result in results),
        pcc_violations=sum(r.pcc_violations for r in results),
        inevitably_broken=sum(r.inevitably_broken for r in results),
        server_loads=loads,
        ct_peak_size=sum(r.ct_peak_size for r in results),
        active_servers=max(result.active_servers for result in results),
    )


def _publish_metrics(
    registry, balancer: LoadBalancer, result: ReplayResult, path: str, n_events: int
) -> None:
    """Publish one replay's tallies to a registry (no-op when ``None``).

    The tracked-flow counter and its expectation are only published for
    churn-free replays: with injected backend events, CT inserts include
    re-tracks after invalidation and no longer count distinct unsafe
    flows, so the Theorem 4.2 comparison would be against the wrong
    denominator.  Without events H and W hold still, so every flow saw
    the same |H|/(|W|+|H|).
    """
    if registry is None:
        return
    obs_metrics.instrument_balancer(registry, balancer)
    dispatched = sum(result.server_loads.values())
    registry.counter(obs_metrics.FLOWS, "Flows dispatched").inc(dispatched)
    registry.counter(obs_metrics.PCC_VIOLATIONS, "PCC violations").inc(
        result.pcc_violations
    )
    registry.counter(obs_metrics.INEVITABLY_BROKEN, "Inevitably broken flows").inc(
        result.inevitably_broken
    )
    # Loose exposure bound: each injected event can touch at most every
    # dispatched flow.  Zero events means zero exposure, which is what
    # makes the PCC-accounting monitor a real check on quiet replays.
    registry.counter(
        obs_metrics.CHURN_EXPOSED, "Flows exposed to backend churn (upper bound)"
    ).inc(n_events * dispatched)
    registry.counter(
        obs_metrics.DISPATCH_PACKETS, "Packets by dispatch path", path=path
    ).inc(result.n_packets)
    registry.gauge(
        obs_metrics.WALL_SECONDS, "Wall time by phase", phase="replay"
    ).set(result.wall_seconds)
    ct = getattr(balancer, "ct", None)
    if n_events == 0 and ct is not None and dispatched:
        registry.counter(
            obs_metrics.TRACKED_FLOWS, "Flows tracked at first dispatch"
        ).inc(ct.stats.inserts)
        share = obs_metrics.expected_tracked_fraction(balancer)
        if share is not None:
            registry.counter(
                obs_metrics.EXPECTED_TRACKED_FLOWS,
                "Sum of |H|/(|W|+|H|) over first dispatches",
            ).inc(share * dispatched)


# Packets per ``get_destinations_batch_idx`` call.  A chunk pays a fixed
# bill of array calls (CT probe rounds, the insert) before its first
# packet, and loses L2 residency once its temporaries grow too large.
# From the 16k ... 512k sweep tabulated in docs/ALGORITHMS.md: the size
# with the smallest worst loss over three stacks and two traces when it
# was set.  262 144, which the latest sweep puts ahead, was tried with
# bench runs: JET read x1.08-1.12 in-process on ``replay-steady``, but
# the memory probe of ``replay-sharded`` read a peak RSS of 87.0 against
# 81.0 MiB in 3 of 3 runs, past the benchmark's 5 % bound.
DEFAULT_CHUNK = 131072


def replay_batch(
    trace: Trace,
    balancer: LoadBalancer,
    events: Sequence[TraceEvent] = (),
    chunk_size: int = DEFAULT_CHUNK,
    metrics=None,
) -> ReplayResult:
    """Replay ``trace`` through the LB's columnar dispatch path.

    Packets are drained in chunks of ``chunk_size`` through
    :meth:`~repro.core.interfaces.LoadBalancer.get_destinations_batch_idx`;
    chunks are split at every injected event's packet index so each
    backend change still lands *between* batches, exactly where the
    scalar loop applies it.  Metrics (violations, loads, tracked count)
    are identical to :func:`replay` -- within a chunk no backend changes,
    so a flow's destination cannot move mid-chunk and per-packet PCC
    accounting commutes with batching.  Only the wall-clock rate differs.

    A balancer whose ``columnar_effective`` probe says no is delegated to
    the scalar loop unchanged (a CT with recency or eviction state, or
    lazy cleanup: a batch would regroup their per-key gets and puts).
    Every other balancer takes the columnar loop: destinations flow as
    int32 backend ids, all PCC accounting runs on preallocated numpy
    arrays, and names are resolved once at the result edge -- zero Python
    objects per packet.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if not getattr(balancer, "columnar_effective", False):
        return replay(trace, balancer, events, metrics=metrics)
    return _replay_columnar(trace, balancer, events, chunk_size, metrics)


#: The types ``first`` (:func:`_replay_columnar`) widens through, narrowest
#: first; each holds the ids ``0 .. max`` and the "unseen" sentinel -1.
_FIRST_WIDTHS = (np.int8, np.int16, np.int32)


def _id_limit(dtype) -> int:
    """How many backend ids a signed integer type holds beside -1."""
    return int(np.iinfo(dtype).max) + 1


def _widened(first: np.ndarray, n_ids: int) -> np.ndarray:
    """``first`` at the narrowest of :data:`_FIRST_WIDTHS` holding
    ``n_ids`` ids, -1 staying -1."""
    for dtype in _FIRST_WIDTHS:
        if n_ids <= _id_limit(dtype):
            return first.astype(dtype)
    raise ValueError(f"{n_ids} backend ids overflow the int32 id space")


def _replay_columnar(
    trace: Trace,
    balancer: LoadBalancer,
    events: Sequence[TraceEvent],
    chunk_size: int,
    metrics,
) -> ReplayResult:
    """The integer-index replay loop: no Python object per packet.

    First-destination, broken-flow, and violation accounting all run on
    preallocated numpy arrays keyed by backend id; each chunk is one
    ``get_destinations_batch_idx`` call, one gather from ``first``, one
    compare, and the rest on the packets whose id differs from it.
    ``first`` -- one id per flow, -1 until its first packet -- is gathered
    once per packet, so it is kept at the narrowest signed type that holds
    the balancer's id space (:data:`_FIRST_WIDTHS`): int8 for up to 128
    backends, so a 285k-flow trace's column stays in L2 beside the CT.
    Ids are registered lazily inside the dispatch call, so the id space
    is read after each call, and ``first`` widens (never narrows) before
    the chunk's ids are stored.

    Metric equivalence with the scalar loop rests on the same argument
    as :func:`replay_batch` gives (no backend change lands mid-chunk)
    plus two index-path facts: ids are stable across backend changes,
    and all occurrences of a newly seen flow within one chunk resolve to
    the same id (CT gets precede puts), so fancy assignment into
    ``first`` is order-independent.  Names are materialized exactly once,
    at the result edge, after the stopwatch stops.
    """
    keys = np.ascontiguousarray(trace.flow_keys, dtype=np.uint64)
    packets = trace.packets
    n_packets = len(packets)
    first = np.full(trace.n_flows, -1, dtype=_FIRST_WIDTHS[0])
    id_limit = _id_limit(first.dtype)
    broken = np.zeros(trace.n_flows, dtype=bool)
    violations = 0
    inevitable = 0

    event_queue = sorted(events, key=lambda ev: ev[0])
    next_event = 0
    n_events = len(event_queue)
    get_batch_idx = balancer.get_destinations_batch_idx
    dispatch_names = balancer.dispatch_names
    # id -> currently-working, cached between events (ids are stable, the
    # working set only changes when an event fires).
    working_mask: Optional[np.ndarray] = None

    watch = Stopwatch()
    position = 0
    while position < n_packets:
        while next_event < n_events and event_queue[next_event][0] <= position:
            event_queue[next_event][1](balancer)
            next_event += 1
            working_mask = None
        end = min(position + chunk_size, n_packets)
        if next_event < n_events:
            end = min(end, event_queue[next_event][0])
        flow_indices = packets[position:end]
        # ``take`` in its default mode raises on an out-of-range index, as
        # a fancy index would, and skips the fancy-index machinery.
        ids = get_batch_idx(keys.take(flow_indices))
        n_ids = len(dispatch_names())
        if n_ids > id_limit:
            first = _widened(first, n_ids)
            id_limit = _id_limit(first.dtype)
        previous = first.take(flow_indices)
        # A flow's first packet and a moved packet both differ from what
        # ``first`` holds: only that subset is looked at again.
        changed = np.flatnonzero(ids != previous)
        if changed.size:
            flows = flow_indices[changed]
            was = previous[changed]
            if was.max() < 0:
                # First appearances only (every steady chunk): one scatter.
                first[flows] = ids[changed]
            else:
                unseen = np.flatnonzero(was < 0)
                first[flows[unseen]] = ids[changed[unseen]]
                moved_flows = flows[np.flatnonzero(was >= 0)]
                newly = np.unique(moved_flows[~broken[moved_flows]])
                broken[newly] = True
                if working_mask is None:
                    working_mask = balancer.dispatch_working_mask()
                hits = int(working_mask[first[newly]].sum())
                violations += hits
                inevitable += len(newly) - hits
        position = end
    wall = watch.stop()

    # Edge-only name resolution: one bincount over ids, one gather.
    names = dispatch_names()
    loads: Dict[Name, int] = {}
    dispatched = first[first >= 0]
    if len(dispatched):
        counts = np.bincount(dispatched, minlength=len(names))
        for ident, count in enumerate(counts.tolist()):
            if count:
                loads[names[ident]] = count

    result = _finalize(trace, balancer, loads, violations, inevitable, wall)
    _publish_metrics(metrics, balancer, result, path="columnar", n_events=n_events)
    return result
