"""Invariant checks: the paper's theory judged against telemetry.

:func:`check` reads only registry series (never the dataplane directly),
so the same checks run identically over a live run, a sharded merge, a
replayed JSONL artifact, or a synthetic registry in tests.  Each check
returns a :class:`MonitorResult` that is ``ok``, a *violation*, or
*skipped* (required series absent -- e.g. the tracked-fraction check on a
stateless balancer that publishes no expectation gauge).

The bounds come from one object, the *envelope*: the scenario document's
envelope block (:class:`repro.scenarios.spec.EnvelopeSpec`, whose five
fields are read here by name), or ``None`` for the defaults.  The checks,
in order, and the claims they guard:

- ``tracked_fraction`` -- Theorems 4.2/4.3: the observed fraction of
  connections JET tracks lies within ``tracked_fraction_tolerance``
  (default :data:`DEFAULT_TOLERANCE`) relative error of ``|H|/(|W|+|H|)``.
- ``pcc_accounting`` -- PCC violations plus inevitably-broken
  connections cannot exceed the flows that were exposed to churn (each
  backend event can break at most the connections active when it fired).
- ``ct_occupancy_bound`` -- the CT never exceeds its capacity bound, and
  its high-water mark never exceeds total inserts.
- ``horizon_fidelity`` -- horizon precision/recall (closed-loop runs) lie
  in [0, 1], and above ``min_horizon_precision`` / ``min_horizon_recall``
  when those floors are set.
- ``breakage_bound`` -- only when ``max_breakage`` is set: PCC violations
  as a fraction of flows (inevitable breakage excluded, per Section 2.1).
- ``balance_cv`` -- only when ``max_balance_cv`` is set: the post-warmup
  max coefficient of variation of per-server load (capacity-normalized).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs import collectors as M
from repro.obs.collectors import observed_tracked_fraction
from repro.obs.export import prometheus_sibling, write_prometheus

#: Default relative tolerance for the tracked-fraction check (the
#: acceptance bar: observed within 10% of |H|/(|W|+|H|)).
DEFAULT_TOLERANCE = 0.10

#: Below this many flows the binomial noise on the tracked fraction
#: swamps any tolerance worth enforcing; the check skips instead.
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


def _bound(envelope, name: str) -> Optional[float]:
    return None if envelope is None else getattr(envelope, name)


def _tolerance(envelope) -> float:
    return _bound(envelope, "tracked_fraction_tolerance") or DEFAULT_TOLERANCE


def _relative_error(observed: float, expected: float) -> float:
    return abs(observed - expected) / expected


def _tracked_fraction(registry, tolerance: float) -> MonitorResult:
    name = "tracked_fraction"
    # Prefer the flow-weighted mean expectation: when H and W vary
    # mid-run (closed-loop autoscaling), the instantaneous gauge
    # reflects only the final sample, not what flows actually saw.
    expected = registry.value(M.EXPECTED_TRACKED_FRACTION_MEAN)
    if expected is None:
        expected = registry.value(M.EXPECTED_TRACKED_FRACTION)
    if expected is None or expected <= 0:
        return _skip(name, "no expectation published (not a JET run)")
    flows = registry.value(M.FLOWS) or 0
    if flows < MIN_FLOWS:
        return _skip(name, f"only {flows:.0f} flows (< {MIN_FLOWS})")
    observed = observed_tracked_fraction(registry)
    if observed is None:
        return _skip(name, "tracked-flow series absent")
    error = _relative_error(observed, expected)
    return MonitorResult(
        name=name,
        ok=error <= tolerance,
        observed=observed,
        expected=expected,
        detail=(
            f"|{observed:.4f} - {expected:.4f}| / {expected:.4f} "
            f"= {error:.3f} (tolerance {tolerance})"
        ),
    )


def _pcc_accounting(registry) -> MonitorResult:
    name = "pcc_accounting"
    exposed = registry.value(M.CHURN_EXPOSED)
    if exposed is None:
        return _skip(name, "churn-exposure series absent")
    violations = registry.value(M.PCC_VIOLATIONS) or 0
    inevitable = registry.value(M.INEVITABLY_BROKEN) or 0
    broken = violations + inevitable
    return MonitorResult(
        name=name,
        ok=broken <= exposed,
        observed=broken,
        expected=exposed,
        detail=(
            f"violations {violations:.0f} + inevitable {inevitable:.0f} "
            f"vs churn-exposed {exposed:.0f}"
        ),
    )


def _ct_occupancy_bound(registry) -> MonitorResult:
    name = "ct_occupancy_bound"
    peak = registry.value(M.CT_OCCUPANCY_PEAK)
    if peak is None:
        return _skip(name, "no CT occupancy series (stateless run)")
    capacity = registry.value(M.CT_CAPACITY)
    inserts = registry.value(M.CT_INSERTS)
    # Bounded tables must honour capacity; any table's peak can never
    # exceed the number of entries ever inserted.
    bound = capacity if capacity is not None else inserts
    if bound is None:
        return _skip(name, "no capacity or insert series to bound by")
    label = "capacity" if capacity is not None else "total inserts"
    return MonitorResult(
        name=name,
        ok=peak <= bound,
        observed=peak,
        expected=bound,
        detail=f"peak occupancy {peak:.0f} vs {label} {bound:.0f}",
    )


def _horizon_fidelity(
    registry, min_precision: Optional[float], min_recall: Optional[float]
) -> MonitorResult:
    name = "horizon_fidelity"
    precision = registry.value(M.HORIZON_PRECISION)
    recall = registry.value(M.HORIZON_RECALL)
    if precision is None and recall is None:
        return _skip(name, "no horizon fidelity series (exogenous H)")
    problems = []
    for label, value, floor in (
        ("precision", precision, min_precision),
        ("recall", recall, min_recall),
    ):
        if value is None:
            continue
        if not 0.0 <= value <= 1.0:
            problems.append(f"{label} {value:.3f} outside [0, 1]")
        elif floor is not None and value < floor:
            problems.append(f"{label} {value:.3f} below floor {floor}")
    shown = precision if precision is not None else recall
    return MonitorResult(
        name=name,
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


def _breakage_bound(registry, max_breakage: float) -> MonitorResult:
    name = "breakage_bound"
    flows = registry.value(M.FLOWS)
    if not flows:
        return _skip(name, "no flow series")
    violations = registry.value(M.PCC_VIOLATIONS) or 0
    fraction = violations / flows
    return MonitorResult(
        name=name,
        ok=fraction <= max_breakage,
        observed=fraction,
        expected=max_breakage,
        detail=(
            f"{violations:.0f} violations / {flows:.0f} flows "
            f"= {fraction:.5f} (bound {max_breakage})"
        ),
    )


def _balance_cv(registry, max_balance_cv: float) -> MonitorResult:
    name = "balance_cv"
    observed = registry.value(M.BALANCE_CV_MAX)
    if observed is None:
        return _skip(name, "no balance-CV series")
    return MonitorResult(
        name=name,
        ok=observed <= max_balance_cv,
        observed=observed,
        expected=max_balance_cv,
        detail=f"max load CV {observed:.3f} (bound {max_balance_cv})",
    )


def check(registry, envelope=None) -> List[MonitorResult]:
    """Every invariant over ``registry``, bounded by ``envelope``."""
    results = [
        _tracked_fraction(registry, _tolerance(envelope)),
        _pcc_accounting(registry),
        _ct_occupancy_bound(registry),
        _horizon_fidelity(
            registry,
            _bound(envelope, "min_horizon_precision"),
            _bound(envelope, "min_horizon_recall"),
        ),
    ]
    max_breakage = _bound(envelope, "max_breakage")
    if max_breakage is not None:
        results.append(_breakage_bound(registry, max_breakage))
    max_balance_cv = _bound(envelope, "max_balance_cv")
    if max_balance_cv is not None:
        results.append(_balance_cv(registry, max_balance_cv))
    return results


def margins(envelope, results: Sequence[MonitorResult]) -> Dict[str, Optional[float]]:
    """Headroom left inside each bound (negative = violated).

    Keys are the ``tracked_fraction``, ``breakage_bound`` and
    ``balance_cv`` results present; a ``None`` margin means the check
    skipped (its series was absent at this scale).  Tracked-fraction
    margin is in relative-error units (tolerance minus observed error);
    the others are in the bound's own units.
    """
    headroom: Dict[str, Optional[float]] = {}
    for r in results:
        if r.name not in ("tracked_fraction", "breakage_bound", "balance_cv"):
            continue
        if r.skipped or r.observed is None or r.expected is None:
            headroom[r.name] = None
        elif r.name == "tracked_fraction":
            headroom[r.name] = _tolerance(envelope) - _relative_error(r.observed, r.expected)
        else:
            headroom[r.name] = r.expected - r.observed
    return headroom


def violations(results: Sequence[MonitorResult]) -> List[MonitorResult]:
    return [r for r in results if r.violated]


def render(results: Sequence[MonitorResult]) -> str:
    lines = []
    for r in results:
        status = "SKIP" if r.skipped else ("ok" if r.ok else "VIOLATION")
        lines.append(f"  [{status:>9}] {r.name}: {r.detail}")
    return "\n".join(lines)


def evaluate_and_export(
    registry, t: float = 0.0, envelope=None, exporter=None
) -> List[MonitorResult]:
    """:func:`check` the registry and emit the final snapshot to all exporters.

    The closing JSONL line carries ``final: true`` plus the serialized
    results, which is what ``repro obs summarize --strict`` (and the CI
    invariant gate) reads back.  ``exporter`` is the JSONL exporter of a
    ``--metrics-out`` run: it is closed, its Prometheus sibling written,
    and both paths printed.
    """
    registry.collect()
    results = check(registry, envelope)
    registry.export_snapshot(
        t=t, final=True, invariants=[r.to_json() for r in results]
    )
    if exporter is not None:
        exporter.close()
        prom_path = write_prometheus(registry, prometheus_sibling(exporter.path))
        print(f"metrics: {exporter.path} (prometheus: {prom_path})")
    return results
