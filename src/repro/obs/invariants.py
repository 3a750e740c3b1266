"""Live invariant monitors: check the paper's theory against telemetry.

Each monitor reads only registry series (never the dataplane directly),
so the same checks run identically over a live run, a replayed JSONL
artifact, or a synthetic registry in tests.  A monitor returns a
:class:`MonitorResult` that is ``ok``, a *violation*, or *skipped*
(required series absent -- e.g. the tracked-fraction check on a
stateless balancer that publishes no expectation gauge).

The default monitors and the claims they guard:

- :class:`TrackedFractionMonitor` -- Theorems 4.2/4.3: the observed
  fraction of connections JET tracks must lie within a configurable
  relative tolerance of ``|H|/(|W|+|H|)``.
- :class:`PCCAccountingMonitor` -- accounting consistency: PCC
  violations plus inevitably-broken connections cannot exceed the flows
  that were exposed to churn (each backend event can break at most the
  connections active when it fired).
- :class:`OccupancyBoundMonitor` -- the CT never exceeds its capacity
  bound, and its high-water mark never exceeds total inserts.
- :class:`HorizonFidelityMonitor` -- horizon precision/recall (closed-loop
  runs) are within [0, 1], and above configurable floors when the run is
  supposed to have a perfect forecast.
- :class:`GossipConvergenceMonitor` -- the sync-staleness bound: gossip
  CT replication must have converged (staleness zero) by the final
  snapshot; losses must be accounted, not silent.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

from repro.obs import collectors as M
from repro.obs.collectors import observed_tracked_fraction
from repro.obs.export import prometheus_sibling, write_prometheus

#: Default relative tolerance for the tracked-fraction check (the
#: acceptance bar: observed within 10% of |H|/(|W|+|H|)).
DEFAULT_TOLERANCE = 0.10

#: Below this many flows the binomial noise on the tracked fraction
#: swamps any tolerance worth enforcing; the monitor skips instead.
MIN_FLOWS = 200


@dataclass
class MonitorResult:
    """Outcome of one invariant check."""

    name: str
    ok: bool
    skipped: bool = False
    observed: Optional[float] = None
    expected: Optional[float] = None
    detail: str = ""

    @property
    def violated(self) -> bool:
        return not self.ok and not self.skipped

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(payload: dict) -> "MonitorResult":
        return MonitorResult(**payload)


def _skip(name: str, why: str) -> MonitorResult:
    return MonitorResult(name=name, ok=True, skipped=True, detail=why)


class InvariantMonitor:
    """Base: a named check over registry series."""

    name = "invariant"

    def evaluate(self, registry) -> MonitorResult:
        raise NotImplementedError


class TrackedFractionMonitor(InvariantMonitor):
    """Observed tracked fraction within ``tolerance`` of |H|/(|W|+|H|)."""

    name = "tracked_fraction"

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE, min_flows: int = MIN_FLOWS):
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.tolerance = tolerance
        self.min_flows = min_flows

    def evaluate(self, registry) -> MonitorResult:
        # Prefer the flow-weighted mean expectation: when H and W vary
        # mid-run (closed-loop autoscaling), the instantaneous gauge
        # reflects only the final sample, not what flows actually saw.
        expected = registry.value(M.EXPECTED_TRACKED_FRACTION_MEAN)
        if expected is None:
            expected = registry.value(M.EXPECTED_TRACKED_FRACTION)
        if expected is None or expected <= 0:
            return _skip(self.name, "no expectation published (not a JET run)")
        flows = registry.value(M.FLOWS) or 0
        if flows < self.min_flows:
            return _skip(self.name, f"only {flows:.0f} flows (< {self.min_flows})")
        observed = observed_tracked_fraction(registry)
        if observed is None:
            return _skip(self.name, "tracked-flow series absent")
        error = abs(observed - expected) / expected
        return MonitorResult(
            name=self.name,
            ok=error <= self.tolerance,
            observed=observed,
            expected=expected,
            detail=(
                f"|{observed:.4f} - {expected:.4f}| / {expected:.4f} "
                f"= {error:.3f} (tolerance {self.tolerance})"
            ),
        )


class PCCAccountingMonitor(InvariantMonitor):
    """violations + inevitably-broken <= flows exposed to churn."""

    name = "pcc_accounting"

    def evaluate(self, registry) -> MonitorResult:
        exposed = registry.value(M.CHURN_EXPOSED)
        if exposed is None:
            return _skip(self.name, "churn-exposure series absent")
        violations = registry.value(M.PCC_VIOLATIONS) or 0
        inevitable = registry.value(M.INEVITABLY_BROKEN) or 0
        broken = violations + inevitable
        return MonitorResult(
            name=self.name,
            ok=broken <= exposed,
            observed=broken,
            expected=exposed,
            detail=(
                f"violations {violations:.0f} + inevitable {inevitable:.0f} "
                f"vs churn-exposed {exposed:.0f}"
            ),
        )


class OccupancyBoundMonitor(InvariantMonitor):
    """CT occupancy high-water mark respects its bounds."""

    name = "ct_occupancy_bound"

    def evaluate(self, registry) -> MonitorResult:
        peak = registry.value(M.CT_OCCUPANCY_PEAK)
        if peak is None:
            return _skip(self.name, "no CT occupancy series (stateless run)")
        capacity = registry.value(M.CT_CAPACITY)
        inserts = registry.value(M.CT_INSERTS)
        # Bounded tables must honour capacity; any table's peak can never
        # exceed the number of entries ever inserted.
        bound = capacity if capacity is not None else inserts
        if bound is None:
            return _skip(self.name, "no capacity or insert series to bound by")
        label = "capacity" if capacity is not None else "total inserts"
        return MonitorResult(
            name=self.name,
            ok=peak <= bound,
            observed=peak,
            expected=bound,
            detail=f"peak occupancy {peak:.0f} vs {label} {bound:.0f}",
        )


class HorizonFidelityMonitor(InvariantMonitor):
    """Horizon precision/recall are sane (and above optional floors).

    Without floors this is a consistency check: both scores must lie in
    [0, 1].  Experiments and CI gates pass ``min_precision`` /
    ``min_recall`` for runs where forecast quality is *supposed* to be
    perfect (e.g. the perfect-forecast control smoke run)."""

    name = "horizon_fidelity"

    def __init__(
        self,
        min_precision: Optional[float] = None,
        min_recall: Optional[float] = None,
    ):
        self.min_precision = min_precision
        self.min_recall = min_recall

    def evaluate(self, registry) -> MonitorResult:
        precision = registry.value(M.HORIZON_PRECISION)
        recall = registry.value(M.HORIZON_RECALL)
        if precision is None and recall is None:
            return _skip(self.name, "no horizon fidelity series (exogenous H)")
        problems = []
        for label, value, floor in (
            ("precision", precision, self.min_precision),
            ("recall", recall, self.min_recall),
        ):
            if value is None:
                continue
            if not 0.0 <= value <= 1.0:
                problems.append(f"{label} {value:.3f} outside [0, 1]")
            elif floor is not None and value < floor:
                problems.append(f"{label} {value:.3f} below floor {floor}")
        shown = precision if precision is not None else recall
        return MonitorResult(
            name=self.name,
            ok=not problems,
            observed=shown,
            detail=(
                "; ".join(problems)
                if problems
                else (
                    f"precision={precision if precision is not None else 'n/a'} "
                    f"recall={recall if recall is not None else 'n/a'}"
                )
            ),
        )


class GossipConvergenceMonitor(InvariantMonitor):
    """Gossip CT sync converged: staleness is zero at the final snapshot.

    The sync-staleness bound: after the run settles (drain / quiet
    rounds), no live member may still be missing deltas -- anything truly
    lost must be accounted in ``repro_sync_lost_total`` instead."""

    name = "gossip_convergence"

    def __init__(self, max_staleness: float = 0.0):
        self.max_staleness = max_staleness

    def evaluate(self, registry) -> MonitorResult:
        staleness = registry.value(M.GOSSIP_STALENESS)
        if staleness is None:
            return _skip(self.name, "no gossip series (no gossip-synced LB pool)")
        lost = registry.value(M.SYNC_LOST) or 0
        lag = registry.value(M.GOSSIP_MEAN_LAG_ROUNDS)
        return MonitorResult(
            name=self.name,
            ok=staleness <= self.max_staleness,
            observed=staleness,
            expected=self.max_staleness,
            detail=(
                f"staleness {staleness:.0f} (bound {self.max_staleness:.0f}), "
                f"accounted lost {lost:.0f}"
                + (f", mean lag {lag:.2f} rounds" if lag is not None else "")
            ),
        )


class MonitorSuite:
    """A bundle of monitors evaluated together after (or during) a run."""

    def __init__(self, monitors: Optional[Sequence[InvariantMonitor]] = None):
        self.monitors: List[InvariantMonitor] = (
            list(monitors) if monitors is not None else default_monitors()
        )

    def evaluate(self, registry) -> List[MonitorResult]:
        return [monitor.evaluate(registry) for monitor in self.monitors]

    @staticmethod
    def violations(results: Sequence[MonitorResult]) -> List[MonitorResult]:
        return [r for r in results if r.violated]

    @staticmethod
    def render(results: Sequence[MonitorResult]) -> str:
        lines = []
        for r in results:
            status = "SKIP" if r.skipped else ("ok" if r.ok else "VIOLATION")
            lines.append(f"  [{status:>9}] {r.name}: {r.detail}")
        return "\n".join(lines)

    @staticmethod
    def to_json(results: Sequence[MonitorResult]) -> List[dict]:
        return [r.to_json() for r in results]


def default_monitors(tolerance: float = DEFAULT_TOLERANCE) -> List[InvariantMonitor]:
    return [
        TrackedFractionMonitor(tolerance=tolerance),
        PCCAccountingMonitor(),
        OccupancyBoundMonitor(),
        HorizonFidelityMonitor(),
        GossipConvergenceMonitor(),
    ]


def evaluate_and_export(
    registry,
    t: float = 0.0,
    tolerance: float = DEFAULT_TOLERANCE,
    monitors: Optional[Sequence[InvariantMonitor]] = None,
    exporter=None,
) -> List[MonitorResult]:
    """Evaluate the suite and emit the final snapshot to all exporters.

    The closing JSONL line carries ``final: true`` plus the serialized
    monitor results, which is what ``repro obs summarize --strict`` (and
    the CI invariant gate) reads back.  ``exporter`` is the JSONL exporter
    of a ``--metrics-out`` run: it is closed, its Prometheus sibling
    written, and both paths printed.
    """
    registry.collect()
    suite = MonitorSuite(monitors or default_monitors(tolerance=tolerance))
    results = suite.evaluate(registry)
    registry.export_snapshot(
        t=t, final=True, invariants=MonitorSuite.to_json(results)
    )
    if exporter is not None:
        exporter.close()
        prom_path = write_prometheus(registry, prometheus_sibling(exporter.path))
        print(f"metrics: {exporter.path} (prometheus: {prom_path})")
    return results
