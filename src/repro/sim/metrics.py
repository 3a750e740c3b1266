"""Metrics collection for the event-driven simulation.

Tracks exactly what Section 5.1 reports:

- **PCC violations**: unsafe connections that broke (each counted once;
  inevitably-broken connections are excluded per the paper);
- **maximum oversubscription**: max over sampling instants of
  ``most-loaded server's active connections / (active connections /
  active servers)``;
- **tracked connections**: CT table occupancy over time;
- bookkeeping: flows started/completed, surprise additions, CT stats;
- **resilience counters** (chaos runs, :mod:`repro.faults`): fault events
  by kind, violations attributed to faults, probation re-admissions, and
  the paper's §2.3 predicted breakage for unannounced additions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.interfaces import Name


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    pcc_violations: int = 0
    inevitably_broken: int = 0
    flows_started: int = 0
    flows_completed: int = 0
    packets_processed: int = 0
    removals: int = 0
    additions: int = 0
    surprise_additions: int = 0
    max_oversubscription: float = 0.0
    oversubscription_series: List[float] = field(default_factory=list)
    #: Post-warmup max coefficient of variation of per-server active
    #: connections (capacity-normalized on weighted fleets); the balance
    #: figure scenario envelopes bound.
    max_balance_cv: float = 0.0
    balance_cv_series: List[float] = field(default_factory=list)
    tracked_series: List[int] = field(default_factory=list)
    sample_times: List[float] = field(default_factory=list)
    peak_tracked: int = 0
    final_tracked: int = 0
    ct_evictions: int = 0
    ct_hit_rate: float = 0.0
    #: CT occupancy high-water mark straight from ``CTStats.peak_size``
    #: (``peak_tracked`` folds in the sampled series; this is the exact
    #: per-insert mark, surfaced for the resilience report and obs layer).
    ct_peak_size: int = 0
    #: Upper bound on flows that churn could have broken: the sum of
    #: active flows at each backend-change instant.  The PCC-accounting
    #: invariant monitor checks violations + inevitable against it.
    churn_exposed_flows: int = 0
    wall_seconds: float = 0.0
    # Resilience counters (zero unless a ChaosInjector drove the run).
    fault_events: int = 0
    crashes: int = 0
    flaps: int = 0
    correlated_failures: int = 0
    unannounced_additions: int = 0
    predicted_unannounced_breakage: float = 0.0
    violations_under_fault: int = 0
    probation_readmissions: int = 0
    # Closed-loop counters (zero unless a ControlLoop drove the run).
    #: Flows dispatched at a server that had silently died but was not
    #: yet evicted by the prober (the detection-lag blackhole window).
    blackholed_flows: int = 0
    #: Silent outages that recovered before the prober ever evicted them.
    undetected_blips: int = 0
    scale_outs: int = 0
    scale_ins: int = 0
    control_ticks: int = 0
    probes_sent: int = 0
    probe_evictions: int = 0
    probe_false_evictions: int = 0
    probe_readmissions: int = 0
    phantom_announcements: int = 0
    #: Horizon announcement fidelity vs realized membership changes
    #: (None when no additions/announcements were judged).
    horizon_precision: Optional[float] = None
    horizon_recall: Optional[float] = None
    #: Flow-weighted mean of |H|/(|W|+|H|) over first dispatches -- the
    #: Theorem 4.2 expectation when H and W vary mid-run.
    mean_expected_tracked_fraction: Optional[float] = None
    #: Fraction of flows CT-tracked at first dispatch (None only when no
    #: flow was dispatched; ~1 under full CT, 0 under stateless).
    observed_tracked_fraction: Optional[float] = None

    def summary(self) -> str:
        text = (
            f"flows={self.flows_started} packets={self.packets_processed} "
            f"removals={self.removals} additions={self.additions} "
            f"(surprise={self.surprise_additions}) "
            f"PCC violations={self.pcc_violations} "
            f"inevitable={self.inevitably_broken} "
            f"max oversub={self.max_oversubscription:.3f} "
            f"peak tracked={self.peak_tracked}"
        )
        if self.fault_events:
            text += (
                f" | faults={self.fault_events} "
                f"(crash={self.crashes} flap={self.flaps} "
                f"group={self.correlated_failures} "
                f"unannounced={self.unannounced_additions}) "
                f"violations-under-fault={self.violations_under_fault} "
                f"probation readmissions={self.probation_readmissions}"
            )
        if self.control_ticks:
            precision = (
                f"{self.horizon_precision:.2f}"
                if self.horizon_precision is not None
                else "n/a"
            )
            recall = (
                f"{self.horizon_recall:.2f}"
                if self.horizon_recall is not None
                else "n/a"
            )
            text += (
                f" | control ticks={self.control_ticks} "
                f"scale-out={self.scale_outs} scale-in={self.scale_ins} "
                f"evictions={self.probe_evictions} "
                f"(false={self.probe_false_evictions}) "
                f"blackholed={self.blackholed_flows} "
                f"horizon P/R={precision}/{recall}"
            )
        return text


#: Flow- and event-level tallies that sum across keyspace shards.
_SUM_FIELDS = (
    "pcc_violations",
    "inevitably_broken",
    "flows_started",
    "flows_completed",
    "packets_processed",
    "surprise_additions",
    "peak_tracked",
    "final_tracked",
    "ct_evictions",
    "ct_peak_size",
    "churn_exposed_flows",
    "fault_events",
    "crashes",
    "flaps",
    "correlated_failures",
    "unannounced_additions",
    "predicted_unannounced_breakage",
    "violations_under_fault",
    "probation_readmissions",
    "blackholed_flows",
    "undetected_blips",
    "scale_outs",
    "scale_ins",
    "control_ticks",
    "probes_sent",
    "probe_evictions",
    "probe_false_evictions",
    "probe_readmissions",
    "phantom_announcements",
)

#: Fields where shards replicate one shared schedule (membership churn
#: fans out identically to every shard) or that compose as a worst case.
_MAX_FIELDS = (
    "removals",
    "additions",
    "max_oversubscription",
    "max_balance_cv",
    "wall_seconds",
)


def _weighted_mean(
    pairs: Sequence[Tuple[Optional[float], float]]
) -> Optional[float]:
    """Weight-averaged value over non-None entries (None if all None)."""
    known = [(value, weight) for value, weight in pairs if value is not None]
    if not known:
        return None
    total_weight = sum(weight for _, weight in known)
    if total_weight <= 0:
        return sum(value for value, _ in known) / len(known)
    return sum(value * weight for value, weight in known) / total_weight


def merge_sim_results(results: Sequence[SimResult]) -> SimResult:
    """Fold per-shard simulation results into one fleet-level result.

    Shards partition the *flows* of one simulated deployment while each
    replicates the full membership state machine, so flow-level tallies
    sum, membership-event counts take the per-shard maximum (the same
    schedule fans out to every shard -- summing would multiply-count it),
    and oversubscription reports the worst shard (each shard's sampler
    sees only its own 1/N of the load; the fleet-level figure over the
    union of flows is not recoverable from per-shard maxima, so the merge
    keeps the conservative bound).  Ratio metrics are weighted means:
    CT hit rate by packets, tracked fractions by flows started.

    Associative and commutative in every field, so partial merges compose.
    """
    if not results:
        raise ValueError("nothing to merge")
    merged = SimResult()
    for name in _SUM_FIELDS:
        setattr(merged, name, sum(getattr(result, name) for result in results))
    for name in _MAX_FIELDS:
        setattr(merged, name, max(getattr(result, name) for result in results))
    merged.ct_hit_rate = (
        _weighted_mean(
            [(r.ct_hit_rate, float(r.packets_processed)) for r in results]
        )
        or 0.0
    )
    merged.horizon_precision = _weighted_mean(
        [(r.horizon_precision, float(max(r.additions, 1))) for r in results]
    )
    merged.horizon_recall = _weighted_mean(
        [(r.horizon_recall, float(max(r.additions, 1))) for r in results]
    )
    merged.mean_expected_tracked_fraction = _weighted_mean(
        [(r.mean_expected_tracked_fraction, float(r.flows_started)) for r in results]
    )
    merged.observed_tracked_fraction = _weighted_mean(
        [(r.observed_tracked_fraction, float(r.flows_started)) for r in results]
    )
    # Sampled series: shards sample on one shared clock, so tracked
    # occupancy sums element-wise and oversubscription takes the
    # element-wise worst shard; lengths may differ by a tail sample.
    longest = max(results, key=lambda result: len(result.sample_times))
    merged.sample_times = list(longest.sample_times)
    length = len(merged.sample_times)
    merged.tracked_series = [
        sum(r.tracked_series[i] for r in results if i < len(r.tracked_series))
        for i in range(length)
    ]
    merged.oversubscription_series = [
        max(
            (
                r.oversubscription_series[i]
                for r in results
                if i < len(r.oversubscription_series)
            ),
            default=0.0,
        )
        for i in range(length)
    ]
    merged.balance_cv_series = [
        max(
            (
                r.balance_cv_series[i]
                for r in results
                if i < len(r.balance_cv_series)
            ),
            default=0.0,
        )
        for i in range(length)
    ]
    return merged


class LoadTracker:
    """Active-connection counts per server, for oversubscription sampling
    (``flows`` at once count exactly as that many single calls)."""

    def __init__(self):
        self._load: Dict[Name, int] = {}
        self.active_flows = 0

    def flow_started(self, server: Name, flows: int = 1) -> None:
        self._load[server] = self._load.get(server, 0) + flows
        self.active_flows += flows

    def flow_ended(self, server: Name, flows: int = 1) -> None:
        ended = min(flows, self._load.get(server, 0))
        if ended > 0:
            self._load[server] -= ended
            self.active_flows -= ended

    def server_load(self, server: Name) -> int:
        return self._load.get(server, 0)

    def oversubscription(self, active_servers: int) -> Optional[float]:
        """Max load divided by the per-server average (None when idle)."""
        if self.active_flows == 0 or active_servers == 0:
            return None
        average = self.active_flows / active_servers
        heaviest = max(self._load.values(), default=0)
        return heaviest / average if average > 0 else None

    def per_server(self) -> Dict[Name, int]:
        """The live per-server count map (read-only; do not mutate)."""
        return self._load

    def cv_over(self, servers, weight_fn=None) -> Optional[float]:
        """Coefficient of variation (std/mean) of per-server load over
        the given population; servers with no recorded flows count as 0.
        ``weight_fn`` normalizes each load by capacity, so on a weighted
        fleet a perfectly proportional split scores CV 0."""
        if self.active_flows == 0 or not servers:
            return None
        values = []
        for server in servers:
            load = self._load.get(server, 0)
            if weight_fn is not None:
                load = load / weight_fn(server)
            values.append(load)
        mean = sum(values) / len(values)
        if mean <= 0:
            return None
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        return variance**0.5 / mean
