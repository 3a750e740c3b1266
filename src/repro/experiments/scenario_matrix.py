"""Scenario matrix: every library scenario under every tracking family.

Sweeps the declarative scenario library (:mod:`repro.scenarios`) across
LB modes -- JET, full CT, and the stateless Concury mapping, plus the
scenario's own native mode when it differs (``jet-p2c`` for the
load-aware scenario) -- and judges each run against the scenario's
expected envelope.  The point of the matrix is the contrast: the same
production situation, the same seed, three tracking disciplines; the
envelope encodes what JET's theory promises, and the other modes show
what that promise costs or buys (e.g. Concury breaching the balance-CV
bound that occupancy-weighted dispatch meets).

Gate semantics: only the *native* mode's envelope verdict gates the
experiment (and CI) -- non-native modes are comparison rows, recorded
but never failing the run.  A mode a scenario cannot express (Concury
on a weighted fleet) records as skipped with the spec's reason;
an error from a document that parsed is a bug, and raises.

Everything recorded is a count or a margin, deterministic per seed and
invariant to ``workers`` (each spec pins its shard partition).  The full
matrix archives to ``results/scenarios.json``; the native-mode verdicts
and envelope margins (:func:`bench_section`) go under the
``"scenarios"`` key of ``BENCH_dataplane.json``, where
:mod:`repro.experiments.counted` gates them for equality.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.report import banner, format_table

#: The comparison modes every scenario runs under.
MATRIX_MODES = ("jet", "full", "concury")

#: Duration multiplier per scale (the library ships smoke-sized specs).
SCALES = {"smoke": 1.0, "default": 1.0, "paper": 4.0}


def _mode_row(report) -> Dict:
    result = report.result
    return {
        "ok": report.ok,
        "violations": [m.name for m in report.monitors if m.violated],
        "margins": report.margins,
        "flows": result.flows_started,
        "pcc_violations": result.pcc_violations,
        "inevitably_broken": result.inevitably_broken,
        "peak_tracked": result.peak_tracked,
        "max_balance_cv": result.max_balance_cv,
        "observed_tracked_fraction": result.observed_tracked_fraction,
        "mean_expected_tracked_fraction": result.mean_expected_tracked_fraction,
    }


def run_matrix(scale: str, workers: int = 1, exporter=None) -> Dict:
    """Run the full matrix at each spec's committed seed; returns the
    archive payload.

    When ``exporter`` is given, each native-mode run's registry streams
    its final snapshot -- monitor verdicts included -- into it, producing
    the JSONL artifact the CI strict gate reads.
    """
    from repro.obs.registry import Registry
    from repro.scenarios import compile_scenario, load_all, run_compiled

    factor = SCALES[scale]
    scenarios: Dict[str, Dict] = {}
    for name, spec in load_all().items():
        duration = spec.duration_s * factor if factor != 1.0 else None
        modes = list(MATRIX_MODES)
        if spec.mode not in modes:
            modes.append(spec.mode)
        rows: Dict[str, Dict] = {}
        for mode in modes:
            try:
                # Can the scenario express this mode?  The spec says: one
                # that parses is one that runs.
                compiled = compile_scenario(spec.with_(mode=mode, duration_s=duration))
            except ValueError as exc:
                rows[mode] = {"skipped": True, "reason": f"{type(exc).__name__}: {exc}"}
                continue
            registry = None
            if mode == spec.mode and exporter is not None:
                registry = Registry()
                registry.attach_exporter(exporter)
            report = run_compiled(compiled, workers=workers, registry=registry)
            rows[mode] = _mode_row(report)
        scenarios[name] = {
            "native_mode": spec.mode,
            "seed": spec.seed,
            "modes": rows,
            "ok": rows.get(spec.mode, {}).get("ok", False),
        }
    return {
        "experiment": "scenario_matrix",
        "scale": scale,
        "scenarios": scenarios,
        "ok": all(entry["ok"] for entry in scenarios.values()),
    }


def bench_section(payload: Dict) -> Dict:
    """The slice recorded under ``"scenarios"`` in the bench JSON: each
    scenario's native-mode verdict and envelope margins."""
    rows = {}
    for name, entry in payload["scenarios"].items():
        native = entry["modes"].get(entry["native_mode"], {})
        rows[name] = {"ok": entry["ok"], "margins": native.get("margins", {})}
    return rows


def format_report(payload: Dict) -> str:
    lines = [banner(f"scenario matrix [scale={payload['scale']}]")]
    headers = ["scenario", "mode", "ok", "flows", "broken", "balance CV", "tracked err margin"]
    rows: List[List] = []
    for name, entry in payload["scenarios"].items():
        for mode, row in entry["modes"].items():
            tag = f"{mode}*" if mode == entry["native_mode"] else mode
            if row.get("skipped"):
                rows.append([name, tag, "skip", "-", "-", "-", "-"])
                continue
            margin = row["margins"].get("tracked_fraction")
            rows.append([
                name,
                tag,
                "ok" if row["ok"] else "VIOLATED",
                row["flows"],
                row["pcc_violations"],
                f"{row['max_balance_cv']:.3f}",
                "-" if margin is None else f"{margin:+.3f}",
            ])
    lines.append(format_table(headers, rows))
    lines.append("(* = native mode; only native-mode envelopes gate)")
    status = "all native envelopes OK" if payload["ok"] else "ENVELOPE VIOLATIONS"
    lines.append(status)
    return "\n".join(lines)
