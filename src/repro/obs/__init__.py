"""``repro.obs`` -- unified observability for the whole dataplane.

One instrument panel for the reproduction: a metrics
:class:`~repro.obs.registry.Registry` (counters, gauges, fixed-bucket
histograms, timer contexts) with a true no-op
:class:`~repro.obs.registry.NullRegistry` fast path, collectors that
scrape existing dataplane counters at snapshot boundaries, one
invariant :func:`~repro.obs.invariants.check` that judges the paper's
theorems against telemetry within the bounds of a scenario envelope
(:class:`repro.scenarios.spec.EnvelopeSpec`, or ``None`` for the
defaults), and Prometheus / JSONL exporters wired into the CLI
(``--metrics-out``, ``repro obs summarize``) and the experiments.

Observability is strictly read-only: a run with a live registry makes
byte-identical routing decisions and CT state to one with the
NullRegistry, and a disabled registry is handed no instrument at all
while a live one is called a number of times that does not grow with the
trace (both enforced by ``tests/test_obs_differential.py``).
"""

from repro.obs import collectors as metrics
from repro.obs.collectors import (
    instrument_balancer,
    instrument_controller,
    observed_tracked_fraction,
)
from repro.obs.export import (
    JsonlExporter,
    last_snapshot,
    load_jsonl,
    prometheus_sibling,
    render_prometheus,
    write_prometheus,
)
from repro.obs.invariants import (
    DEFAULT_TOLERANCE,
    MIN_FLOWS,
    MonitorResult,
    check,
    evaluate_and_export,
    margins,
    render,
    violations,
)
from repro.obs.merge import GAUGE_SUM, load_series, merge_into, merge_series
from repro.obs.registry import (
    NULL,
    Counter,
    Gauge,
    Histogram,
    NullRegistry,
    Registry,
    coalesce,
)
from repro.obs.timers import Stopwatch

__all__ = [
    "metrics",
    "instrument_balancer",
    "instrument_controller",
    "observed_tracked_fraction",
    "JsonlExporter",
    "last_snapshot",
    "load_jsonl",
    "prometheus_sibling",
    "render_prometheus",
    "write_prometheus",
    "DEFAULT_TOLERANCE",
    "MIN_FLOWS",
    "MonitorResult",
    "check",
    "evaluate_and_export",
    "margins",
    "render",
    "violations",
    "NULL",
    "Counter",
    "Gauge",
    "Histogram",
    "NullRegistry",
    "Registry",
    "coalesce",
    "GAUGE_SUM",
    "merge_series",
    "merge_into",
    "load_series",
    "Stopwatch",
]
