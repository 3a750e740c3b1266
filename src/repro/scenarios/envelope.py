"""Compile a scenario's expected envelope into invariant monitors.

The envelope block of a :class:`~repro.scenarios.spec.ScenarioSpec` is a
statement of what the paper's theory predicts for that scenario; this
module turns it into :mod:`repro.obs.invariants` monitors evaluated over
the run's merged registry at the final snapshot.  Two envelope-specific
monitors are added to the standard suite:

- :class:`BreakageBoundMonitor` -- PCC violations as a fraction of flows
  stay under ``max_breakage`` (inevitable breakage excluded, per the
  paper's Section 2.1 accounting);
- :class:`BalanceCVMonitor` -- the post-warmup max coefficient of
  variation of per-server load (capacity-normalized) stays under
  ``max_balance_cv``.

Monitors read *only* registry series, so the same envelope evaluates
identically over a live run, a sharded merge, or a replayed artifact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.obs import collectors as M
from repro.obs.invariants import (
    DEFAULT_TOLERANCE,
    HorizonFidelityMonitor,
    InvariantMonitor,
    MonitorResult,
    OccupancyBoundMonitor,
    PCCAccountingMonitor,
    TrackedFractionMonitor,
)
from repro.scenarios.spec import EnvelopeSpec


class BreakageBoundMonitor(InvariantMonitor):
    """PCC violations / flows <= ``max_breakage``.

    Inevitably-broken connections (destination removed outright) are
    excluded: the paper's metric charges the balancer only for breakage
    a perfect tracker could have avoided."""

    name = "breakage_bound"

    def __init__(self, max_breakage: float):
        if max_breakage < 0:
            raise ValueError("max_breakage must be non-negative")
        self.max_breakage = max_breakage

    def evaluate(self, registry) -> MonitorResult:
        flows = registry.value(M.FLOWS)
        if not flows:
            return MonitorResult(
                name=self.name, ok=True, skipped=True, detail="no flow series"
            )
        violations = registry.value(M.PCC_VIOLATIONS) or 0
        fraction = violations / flows
        return MonitorResult(
            name=self.name,
            ok=fraction <= self.max_breakage,
            observed=fraction,
            expected=self.max_breakage,
            detail=(
                f"{violations:.0f} violations / {flows:.0f} flows "
                f"= {fraction:.5f} (bound {self.max_breakage})"
            ),
        )


class BalanceCVMonitor(InvariantMonitor):
    """Post-warmup max load CV (capacity-normalized) <= ``max_balance_cv``."""

    name = "balance_cv"

    def __init__(self, max_balance_cv: float):
        if max_balance_cv < 0:
            raise ValueError("max_balance_cv must be non-negative")
        self.max_balance_cv = max_balance_cv

    def evaluate(self, registry) -> MonitorResult:
        observed = registry.value(M.BALANCE_CV_MAX)
        if observed is None:
            return MonitorResult(
                name=self.name, ok=True, skipped=True, detail="no balance-CV series"
            )
        return MonitorResult(
            name=self.name,
            ok=observed <= self.max_balance_cv,
            observed=observed,
            expected=self.max_balance_cv,
            detail=f"max load CV {observed:.3f} (bound {self.max_balance_cv})",
        )


def envelope_monitors(envelope: EnvelopeSpec) -> List[InvariantMonitor]:
    """The full monitor suite for one scenario: the standard invariants
    parameterized by the envelope, plus the envelope-only bounds."""
    monitors: List[InvariantMonitor] = [
        TrackedFractionMonitor(
            tolerance=envelope.tracked_fraction_tolerance or DEFAULT_TOLERANCE
        ),
        PCCAccountingMonitor(),
        OccupancyBoundMonitor(),
        HorizonFidelityMonitor(
            min_precision=envelope.min_horizon_precision,
            min_recall=envelope.min_horizon_recall,
        ),
    ]
    if envelope.max_breakage is not None:
        monitors.append(BreakageBoundMonitor(envelope.max_breakage))
    if envelope.max_balance_cv is not None:
        monitors.append(BalanceCVMonitor(envelope.max_balance_cv))
    return monitors


def envelope_margins(
    envelope: EnvelopeSpec, results: Sequence[MonitorResult]
) -> Dict[str, Optional[float]]:
    """Headroom left inside each envelope bound (negative = violated).

    Keys are monitor names; a ``None`` margin means the monitor skipped
    (its series was absent at this scale).  Tracked-fraction margin is in
    relative-error units (tolerance minus observed error); the others are
    in the bound's own units.
    """
    by_name = {result.name: result for result in results}
    margins: Dict[str, Optional[float]] = {}

    tracked = by_name.get("tracked_fraction")
    if tracked is not None:
        tolerance = envelope.tracked_fraction_tolerance or DEFAULT_TOLERANCE
        if tracked.skipped or tracked.observed is None or not tracked.expected:
            margins["tracked_fraction"] = None
        else:
            error = abs(tracked.observed - tracked.expected) / tracked.expected
            margins["tracked_fraction"] = tolerance - error

    for name in ("breakage_bound", "balance_cv"):
        result = by_name.get(name)
        if result is None:
            continue
        if result.skipped or result.observed is None or result.expected is None:
            margins[name] = None
        else:
            margins[name] = result.expected - result.observed
    return margins
