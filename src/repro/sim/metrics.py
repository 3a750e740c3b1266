"""Metrics collection for the event-driven simulation.

Tracks exactly what Section 5.1 reports:

- **PCC violations**: unsafe connections that broke (each counted once;
  inevitably-broken connections are excluded per the paper);
- **maximum oversubscription**: max over sampling instants of
  ``most-loaded server's active connections / (active connections /
  active servers)``;
- **tracked connections**: CT table occupancy over time;
- bookkeeping: flows started/completed, surprise additions, CT stats;
- the run's ratios (CT hit rate, tracked fractions, horizon precision
  and recall), each a property over the counts it divides, so a shard
  merge sums the counts and never folds a ratio;
- **resilience counters** (chaos runs, :mod:`repro.faults`): fault events
  by kind, violations attributed to faults, probation re-admissions, and
  the paper's §2.3 predicted breakage for unannounced additions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence

from repro.control.autoscaler import HorizonScorecard
from repro.core.interfaces import Name


def _ratio(part: float, whole: int) -> Optional[float]:
    return part / whole if whole else None


#: The ratios a :class:`SimResult` derives from its counts when read.
RATIOS = (
    "ct_hit_rate",
    "observed_tracked_fraction",
    "mean_expected_tracked_fraction",
    "horizon_precision",
    "horizon_recall",
)


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
    ct_lookups: int = 0
    ct_hits: int = 0
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
    #: Horizon announcements that were followed by the server joining W,
    #: and those wasted on one that never did; with ``surprise_additions``
    #: (joins nobody announced) they are the run's ``HorizonScorecard``.
    horizon_matched: int = 0
    horizon_wasted: int = 0
    #: Flows dispatched, and of those the ones CT-tracked at that first
    #: dispatch (all of them under full CT, none under stateless).
    first_dispatches: int = 0
    first_tracked: int = 0
    #: Theorem 4.2's |H|/(|W|+|H|) at each first dispatch of a JET stack,
    #: summed, and the number of dispatches it was summed over.
    expected_tracked_sum: float = 0.0
    expected_dispatches: int = 0

    @property
    def ct_hit_rate(self) -> float:
        return self.ct_hits / self.ct_lookups if self.ct_lookups else 0.0

    @property
    def observed_tracked_fraction(self) -> Optional[float]:
        return _ratio(self.first_tracked, self.first_dispatches)

    @property
    def mean_expected_tracked_fraction(self) -> Optional[float]:
        """The Theorem 4.2 expectation when H and W vary mid-run."""
        return _ratio(self.expected_tracked_sum, self.expected_dispatches)

    def _scorecard(self) -> HorizonScorecard:
        return HorizonScorecard(
            self.horizon_matched, self.horizon_wasted, self.surprise_additions
        )

    @property
    def horizon_precision(self) -> Optional[float]:
        return self._scorecard().precision

    @property
    def horizon_recall(self) -> Optional[float]:
        return self._scorecard().recall

    def to_json(self) -> dict:
        """Every field, plus the ratios derived from them."""
        return {**asdict(self), **{name: getattr(self, name) for name in RATIOS}}

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
            precision, recall = (
                "n/a" if value is None else f"{value:.3f}"
                for value in (self.horizon_precision, self.horizon_recall)
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


#: Fields where shards replicate one shared schedule (membership churn
#: fans out identically to every shard) or that compose as a worst case.
_MAX_FIELDS = (
    "removals",
    "additions",
    "max_oversubscription",
    "max_balance_cv",
    "wall_seconds",
)


def merge_sim_results(results: Sequence[SimResult]) -> SimResult:
    """Fold per-shard simulation results into one fleet-level result.

    Shards partition the *flows* of one simulated deployment while each
    replicates the full membership state machine, so every count sums
    except those in ``_MAX_FIELDS``: membership-event counts take the
    per-shard maximum (the same schedule fans out to every shard --
    summing would multiply-count it), and oversubscription reports the
    worst shard (each shard's sampler sees only its own 1/N of the load;
    the fleet-level figure over the union of flows is not recoverable
    from per-shard maxima, so the merge keeps the conservative bound).
    No ratio is folded: each one is a property over counts that sum, so
    the merged ratio is the fleet's.

    Associative and commutative in every field, so partial merges compose.
    """
    if not results:
        raise ValueError("nothing to merge")
    merged = SimResult()
    for name in (spec.name for spec in fields(SimResult)):
        values = [getattr(result, name) for result in results]
        if name in _MAX_FIELDS:
            setattr(merged, name, max(values))
        elif not isinstance(values[0], list):  # the series fold below
            setattr(merged, name, sum(values))
    # Sampled series: shards sample on one shared clock, so tracked
    # occupancy sums element-wise and oversubscription takes the
    # element-wise worst shard; lengths may differ by a tail sample.
    longest = max(results, key=lambda result: len(result.sample_times))
    merged.sample_times = list(longest.sample_times)
    length = len(merged.sample_times)

    def columns(name: str) -> List[list]:
        """Sample ``i`` of every shard's series ``name`` that reached it."""
        rows = [getattr(result, name) for result in results]
        return [[row[i] for row in rows if i < len(row)] for i in range(length)]

    merged.tracked_series = [sum(column) for column in columns("tracked_series")]
    for name in ("oversubscription_series", "balance_cv_series"):
        setattr(merged, name, [max(column, default=0.0) for column in columns(name)])
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
