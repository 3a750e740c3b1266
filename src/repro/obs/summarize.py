"""``repro obs summarize`` -- inspect a JSONL metrics artifact.

Reads the time series a run emitted via ``--metrics-out``, prints the
final value of every series plus the recorded invariant-monitor
verdicts, and (with ``--strict``) exits non-zero when any monitor
reported a violation.  CI uses the strict mode as its invariant gate:
the run itself only *records* verdicts, so a red gate always points at a
concrete artifact that can be downloaded and re-summarized locally.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.obs.export import last_snapshot, load_jsonl
from repro.obs.invariants import MonitorResult, render, violations


def summarize(path) -> dict:
    """Digest a JSONL metrics file into {series, invariants, snapshots}.

    Invariant verdicts aggregate over *every* snapshot that recorded any
    (a multi-run artifact -- e.g. the scenario matrix writes one final
    snapshot per scenario -- must not let early violations hide behind a
    clean last run); the metrics digest stays the final snapshot's.
    """
    records = load_jsonl(path)
    final = last_snapshot(records)
    invariants = [
        MonitorResult.from_json(item)
        for record in records
        for item in record.get("invariants", [])
    ]
    return {
        "path": str(path),
        "snapshots": len(records),
        "final_t": (final or {}).get("t"),
        "metrics": (final or {}).get("metrics", {}),
        "invariants": invariants,
    }


def format_summary(digest: dict) -> str:
    lines = [
        f"{digest['path']}: {digest['snapshots']} snapshot(s), "
        f"final at t={digest['final_t']}"
    ]
    for name, value in sorted(digest["metrics"].items()):
        if isinstance(value, dict):  # histogram
            lines.append(
                f"  {name}: count={value.get('count')} sum={value.get('sum'):.6g}"
            )
        else:
            lines.append(f"  {name}: {value:g}" if isinstance(value, float) else f"  {name}: {value}")
    invariants: List[MonitorResult] = digest["invariants"]
    if invariants:
        lines.append("invariant monitors:")
        lines.append(render(invariants))
    else:
        lines.append("invariant monitors: none recorded")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro obs summarize",
        description="summarize a JSONL metrics artifact",
    )
    parser.add_argument("path", help="metrics JSONL file written by --metrics-out")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 if any recorded invariant monitor reported a violation",
    )
    args = parser.parse_args(argv)
    digest = summarize(args.path)
    print(format_summary(digest))
    violated = violations(digest["invariants"])
    if violated:
        print(f"{len(violated)} invariant violation(s)")
        if args.strict:
            return 1
    return 0
