"""Counted results: what the beyond-paper experiments count, gated by equality.

Three experiments produce numbers that are pure functions of the seed --
:mod:`~repro.experiments.showdown` (state bytes per flow, Concury's
patches / rebuilds / cells per membership event, PCC under churn),
:mod:`~repro.experiments.sharding` (CT entries and bytes per shard vs
Theorem 4.2) and :mod:`~repro.experiments.scenario_matrix` (envelope
verdicts and margins).  This module runs all three at the scale and seed
of the committed ``BENCH_dataplane.json``, prints their tables, and
fails on **any** difference from that file (ints, bools and strings
exact, floats to 1e-9 relative) or any native-mode envelope violation::

    python -m repro.experiments.counted              # check (CI)
    python -m repro.experiments.counted --write      # regenerate the file

Nothing here reads a clock: timings are ``python3 -m bench`` alone.  A
``--scale`` other than the committed one runs and prints but compares
nothing (the envelope gate still applies).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from typing import List, Tuple

from repro.experiments import scenario_matrix, sharding, showdown
from repro.experiments.report import save_json

#: The committed file, relative to the working directory (the repo root).
BENCH_FILE = "BENCH_dataplane.json"

#: Trace / Othello seed of the showdown and sharding sections (each
#: scenario runs at its spec's own committed seed).
SEED = 1


def run_counted(scale: str, workers: int = 1, exporter=None) -> Tuple[dict, dict]:
    """``(payload for the bench file, full scenario matrix)``."""
    matrix = scenario_matrix.run_matrix(scale, workers=workers, exporter=exporter)
    payload = {
        "experiment": "counted-results",
        "scale": scale,
        "seed": SEED,
        "showdown": showdown.run_showdown(scale, SEED),
        "sharding": sharding.run_ct_cost(scale, SEED),
        "scenarios": scenario_matrix.bench_section(matrix),
    }
    # Compare (and write) exactly what JSON holds: tuples become lists,
    # numpy scalars plain numbers.
    return json.loads(json.dumps(payload)), matrix


def _differences(fresh, recorded, path: str) -> List[str]:
    if isinstance(fresh, dict) and isinstance(recorded, dict):
        found: List[str] = []
        for key in sorted(set(fresh) | set(recorded)):
            where = f"{path}.{key}" if path else key
            if key not in recorded:
                found.append(f"{where}: not in the committed file")
            elif key not in fresh:
                found.append(f"{where}: committed, but no longer produced")
            else:
                found += _differences(fresh[key], recorded[key], where)
        return found
    if (
        isinstance(fresh, list)
        and isinstance(recorded, list)
        and len(fresh) == len(recorded)
    ):
        return [
            difference
            for i, (a, b) in enumerate(zip(fresh, recorded))
            for difference in _differences(a, b, f"{path}[{i}]")
        ]
    if isinstance(fresh, float) and isinstance(recorded, float):
        same = math.isclose(fresh, recorded, rel_tol=1e-9, abs_tol=0.0)
    else:
        same = type(fresh) is type(recorded) and fresh == recorded
    return [] if same else [f"{path}: {fresh!r} != committed {recorded!r}"]


def check(fresh: dict, recorded: dict) -> List[str]:
    """Why ``fresh`` fails the gate (empty list == pass).

    A native-mode envelope violation always fails; every value is
    compared with the committed one when -- and only when -- the two
    payloads are at the same scale.
    """
    failures = [
        f"scenarios.{name}: native-mode envelope violated"
        for name, row in sorted(fresh["scenarios"].items())
        if not row["ok"]
    ]
    if recorded.get("scale") == fresh["scale"]:
        failures += _differences(fresh, recorded, "")
    return failures


def format_report(payload: dict, matrix: dict) -> str:
    return "\n".join(
        [
            f"counted results @ scale={payload['scale']} seed={payload['seed']}",
            showdown.format_report(payload["showdown"]),
            sharding.format_report(payload["sharding"]),
            scenario_matrix.format_report(matrix),
        ]
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default=None, choices=sorted(showdown.SCALES),
                        help="default: the committed file's scale")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes per scenario run (the results "
                             "do not depend on it)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="JSONL metrics artifact of the native-mode "
                             "scenario runs (feed to 'repro obs summarize "
                             "--strict')")
    parser.add_argument("--write", action="store_true",
                        help=f"regenerate {BENCH_FILE} instead of checking it")
    args = parser.parse_args(argv)

    try:
        with open(BENCH_FILE) as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        if not args.write:
            raise SystemExit(
                f"{BENCH_FILE} not found: run from the repo root, or --write it"
            )
        recorded = {}
    scale = args.scale or recorded.get("scale", "smoke")

    if args.metrics_out:
        from repro.obs import JsonlExporter

        sink = JsonlExporter(args.metrics_out)
    else:
        sink = nullcontext()
    with sink as exporter:
        payload, matrix = run_counted(scale, args.workers, exporter)
    print(format_report(payload, matrix))
    save_json("scenarios", matrix)

    if args.write:
        with open(BENCH_FILE, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {BENCH_FILE}")
        recorded = payload
    failures = check(payload, recorded)
    for failure in failures:
        print(f"DIFFERS: {failure}", file=sys.stderr)
    if failures:
        raise SystemExit(1)
    if recorded.get("scale") == scale:
        print(f"{BENCH_FILE}: every counted value reproduces")
    else:
        print(f"scale {scale} is not the committed scale "
              f"({recorded.get('scale')}): envelopes hold, nothing compared")


if __name__ == "__main__":
    main()
