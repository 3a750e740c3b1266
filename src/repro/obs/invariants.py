"""Invariant checks: the paper's theory judged against telemetry.

:func:`check` reads only registry series (never the dataplane directly),
so the same checks run identically over a live run, a sharded merge, a
replayed JSONL artifact, or a synthetic registry in tests.  Each check
returns a :class:`MonitorResult` that is ``ok``, a *violation*, or
*skipped* (required series absent -- e.g. the tracked-fraction check on a
stateless balancer that publishes no expectation).

The bounds come from one object, the *envelope*: the scenario document's
envelope block (:class:`repro.scenarios.spec.EnvelopeSpec`, whose four
fields are read here by name), or ``None`` for the defaults.  The
tracked-fraction band is not an envelope field: the theorem fixes it.
The checks, in order, and the claims they guard:

- ``tracked_fraction`` -- Theorems 4.2/4.3: the observed fraction of
  connections JET tracks lies within
  :func:`~repro.analysis.model.tracked_fraction_band` (four binomial
  standard deviations) of the expectation, which is the mean over first
  dispatches of ``|H|/(|W|+|H|)`` at that moment: the counter
  ``repro_expected_tracked_flows_total`` over ``repro_flows_total``.
- ``pcc_accounting`` -- PCC violations plus inevitably-broken
  connections cannot exceed the flows that were exposed to churn (each
  backend event can break at most the connections active when it fired).
- ``ct_occupancy_bound`` -- the CT never exceeds its capacity bound, and
  its high-water mark never exceeds total inserts.
- ``horizon_fidelity`` -- horizon precision/recall, computed from the
  ``repro_horizon_announcements_total`` counts (matched / wasted /
  missed), lie above ``min_horizon_precision`` / ``min_horizon_recall``
  when those floors are set.
- ``breakage_bound`` -- only when ``max_breakage`` is set: PCC violations
  as a fraction of flows (inevitable breakage excluded, per Section 2.1).
- ``balance_cv`` -- only when ``max_balance_cv`` is set: the post-warmup
  max coefficient of variation of per-server load (capacity-normalized).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.model import BAND_SIGMAS, tracked_fraction_band
from repro.control.autoscaler import HorizonScorecard
from repro.obs import collectors as M
from repro.obs.collectors import observed_tracked_fraction

#: Below this many flows the binomial noise on the tracked fraction
#: swamps any band worth enforcing; the check skips instead.
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
    #: Headroom left inside the bound (negative = violated), set by the
    #: bounded checks; see :func:`margins`.
    margin: Optional[float] = None

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


def _tracked_fraction(registry) -> MonitorResult:
    name = "tracked_fraction"
    expected_flows = registry.value(M.EXPECTED_TRACKED_FLOWS)
    if not expected_flows:
        return _skip(name, "no expectation published (not a JET run)")
    flows = registry.value(M.FLOWS) or 0
    if flows < MIN_FLOWS:
        return _skip(name, f"only {flows:.0f} flows (< {MIN_FLOWS})")
    observed = observed_tracked_fraction(registry)
    expected = expected_flows / flows
    band = tracked_fraction_band(flows, expected)
    z = BAND_SIGMAS * (observed - expected) / band
    return MonitorResult(
        name=name,
        ok=abs(z) <= BAND_SIGMAS,
        observed=observed,
        expected=expected,
        margin=BAND_SIGMAS - abs(z),
        detail=(
            f"{observed:.4f} vs {expected:.4f} over {flows:.0f} flows "
            f"= {z:+.2f} sigma (band {BAND_SIGMAS:g} sigma = {band:.4f})"
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
    scorecard = HorizonScorecard(
        *(
            registry.value(M.HORIZON_ANNOUNCEMENTS, outcome=outcome) or 0
            for outcome in M.HORIZON_OUTCOMES
        )
    )
    precision, recall = scorecard.precision, scorecard.recall
    if precision is None and recall is None:
        return _skip(name, "no horizon fidelity series (exogenous H)")
    problems = [
        f"{label} {value:.3f} below floor {floor}"
        for label, value, floor in (
            ("precision", precision, min_precision),
            ("recall", recall, min_recall),
        )
        if value is not None and floor is not None and value < floor
    ]
    return MonitorResult(
        name=name,
        ok=not problems,
        observed=precision if precision is not None else recall,
        detail="; ".join(problems)
        or (
            f"precision={'n/a' if precision is None else precision} "
            f"recall={'n/a' if recall is None else recall}"
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
        margin=max_breakage - fraction,
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
        margin=max_balance_cv - observed,
        detail=f"max load CV {observed:.3f} (bound {max_balance_cv})",
    )


def check(registry, envelope=None) -> List[MonitorResult]:
    """Every invariant over ``registry``, bounded by ``envelope``."""
    results = [
        _tracked_fraction(registry),
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


def margins(results: Sequence[MonitorResult]) -> Dict[str, Optional[float]]:
    """Headroom left inside each bound (negative = violated).

    Keys are the ``tracked_fraction``, ``breakage_bound`` and
    ``balance_cv`` results present; a ``None`` margin means the check
    skipped (its series was absent at this scale).  Tracked-fraction
    headroom is in binomial standard deviations (``BAND_SIGMAS - |z|``);
    the others are in the bound's own units.
    """
    return {
        r.name: r.margin
        for r in results
        if r.name in ("tracked_fraction", "breakage_bound", "balance_cv")
    }


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
    and both paths printed (:meth:`~repro.obs.export.JsonlExporter.finish`).
    """
    registry.collect()
    results = check(registry, envelope)
    registry.export_snapshot(
        t=t, final=True, invariants=[r.to_json() for r in results]
    )
    if exporter is not None:
        exporter.finish(registry)
    return results
