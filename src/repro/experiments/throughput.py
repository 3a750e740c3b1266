"""Columnar-dataplane throughput experiment.

Measures the int32 columnar path against the scalar reference at two
layers:

- **CH layer**: ``lookup_with_safety_batch_idx`` vs a
  ``lookup_with_safety`` loop for every horizon-aware CH family (HRW,
  table-HRW, ring, anchor, jump, modulo, concury -- all vectorized), plus
  ``lookup_batch_idx`` vs a ``lookup`` loop for Maglev (no safety
  variant, Section 3.6);
- **LB/replay layer**: :func:`repro.traces.replay_batch` vs
  :func:`repro.traces.replay` over a Zipf trace for JET and the
  baselines.  Every balancer must satisfy the never-slower contract
  (``batch_pps >= 0.95 * scalar_pps``) -- a balancer whose stack lacks an
  index kernel routes straight through the scalar loop, so batch can
  only tie or win.

Every timed configuration is first differentially checked key-for-key
against the scalar path (the replay comparison additionally asserts
identical violations / tracked counts), so a broken vector path cannot
produce a benchmark number.

Results are written machine-readable to ``BENCH_dataplane.json`` (repo
root by default) to anchor the performance trajectory across PRs::

    python -m repro.experiments.throughput --scale smoke --seed 1

``--check-against BENCH_dataplane.json`` additionally gates the fresh run
against the committed numbers (CI's dataplane-smoke job): it fails when
any family's batch path is slower than scalar, when any replay balancer
drops below the never-slower floor, when a previously-vectorized family
regresses below half its recorded speedup, or when a replay rate falls
below 0.9x the recorded absolute pps (same scale only).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.ch import rows_for
from repro.ch.base import HorizonConsistentHash, has_index_kernel
from repro.ch.properties import sample_keys
from repro.core.factories import make_ch, make_full_ct, make_jet
from repro.core.stateless import StatelessLoadBalancer
from repro.experiments.scales import scale_name
from repro.obs import NULL, Registry
from repro.obs.timers import best_of
from repro.traces import zipf_trace
from repro.traces.replay import DEFAULT_CHUNK, replay, replay_batch

#: Families swept at the CH layer.  "maglev" has no safety variant, so it
#: is timed through plain ``lookup``/``lookup_batch_idx``; "concury" is the
#: Othello perfect-mapping family (table-HRW inner, default flowsets).
CH_SWEEP = ("hrw", "table", "ring", "anchor", "maglev", "jump", "modulo",
            "concury")

#: Per-scale sweep sizing (batch size stays at the acceptance-criteria
#: 10k keys everywhere; only population and repetition counts scale).
SWEEP_SCALES: Dict[str, dict] = {
    "smoke": dict(n_servers=20, repeats=2, trace_packets=30_000, trace_population=8_000),
    "default": dict(n_servers=50, repeats=3, trace_packets=200_000, trace_population=60_000),
    "paper": dict(n_servers=500, repeats=5, trace_packets=2_000_000, trace_population=500_000),
}

BATCH_SIZE = 10_000

#: Replay chunk sizes swept to justify ``repro.traces.replay.DEFAULT_CHUNK``.
CHUNK_SWEEP = (8_192, 16_384, 32_768, 65_536)

#: Regression floor for the columnar replay rate: a fresh run must keep at
#: least this fraction of the recorded ``batch_pps`` (same scale only).
REPLAY_PPS_FLOOR = 0.9


def _build_ch(family: str, n_servers: int):
    working = [f"s{i}" for i in range(n_servers)]
    horizon = [f"h{i}" for i in range(max(1, n_servers // 10))]
    kwargs = {}
    if family == "table":
        kwargs["rows"] = rows_for(n_servers)
    if family == "anchor":
        kwargs["capacity"] = 2 * (len(working) + len(horizon)) + 4
    if family == "maglev":
        horizon = ()  # no horizon support (Section 3.6)
    return make_ch(family, working, horizon, **kwargs)


def _sweep_one(ch, family: str, repeats: int, keys: np.ndarray) -> dict:
    """Differentially gate then time one (family, batch size) cell."""
    key_list = keys.tolist()
    batch_size = len(key_list)
    horizon_aware = isinstance(ch, HorizonConsistentHash)
    # Differential gate: a wrong batch path must never get timed.
    probe = keys[: min(512, batch_size)]
    if horizon_aware:
        indices, unsafe = ch.lookup_with_safety_batch_idx(probe)
        destinations = ch.backend_table()[indices]
        for i, k in enumerate(probe.tolist()):
            if (destinations[i], bool(unsafe[i])) != ch.lookup_with_safety(k):
                raise AssertionError(f"{family}: batch diverges from scalar at key {k}")
        scalar_s = best_of(
            repeats, lambda: [ch.lookup_with_safety(k) for k in key_list]
        )
        batch_s = best_of(repeats, lambda: ch.lookup_with_safety_batch_idx(keys))
    else:
        destinations = ch.backend_table()[ch.lookup_batch_idx(probe)]
        for i, k in enumerate(probe.tolist()):
            if destinations[i] != ch.lookup(k):
                raise AssertionError(f"{family}: batch diverges from scalar at key {k}")
        scalar_s = best_of(repeats, lambda: [ch.lookup(k) for k in key_list])
        batch_s = best_of(repeats, lambda: ch.lookup_batch_idx(keys))
    return {
        "family": family,
        "vectorized": has_index_kernel(ch),
        "batch_size": batch_size,
        "scalar_keys_per_s": batch_size / scalar_s,
        "batch_keys_per_s": batch_size / batch_s,
        "speedup": scalar_s / batch_s,
    }


def run_ch_sweep(
    n_servers: int,
    repeats: int,
    seed: int,
    batch_sizes: Sequence[int] = (BATCH_SIZE,),
) -> List[dict]:
    """Scalar-vs-idx lookup rate for every CH family, per batch size."""
    max_size = max(batch_sizes)
    all_keys = np.array(sample_keys(max_size, seed=seed), dtype=np.uint64)
    rows = []
    for family in CH_SWEEP:
        ch = _build_ch(family, n_servers)
        for batch_size in batch_sizes:
            rows.append(_sweep_one(ch, family, repeats, all_keys[:batch_size]))
    return rows


def _replay_balancers(n_servers: int):
    working = [f"s{i}" for i in range(n_servers)]
    horizon = [f"h{i}" for i in range(max(1, n_servers // 10))]
    table_rows = rows_for(n_servers)
    return {
        "jet-table": lambda: make_jet("table", working, horizon, rows=table_rows),
        "jet-hrw": lambda: make_jet("hrw", working, horizon),
        "full-ct-maglev": lambda: make_full_ct("maglev", working, table_size=65537),
        "stateless-table": lambda: StatelessLoadBalancer(
            make_ch("table", working, horizon, rows=table_rows)
        ),
    }


def run_replay_compare(
    n_servers: int, trace_packets: int, trace_population: int, seed: int
) -> List[dict]:
    """Scalar vs batched trace replay; asserts metric equality, times both."""
    trace = zipf_trace(
        skew=1.0, n_packets=trace_packets, population=trace_population, seed=seed
    )
    rows = []
    for label, build in _replay_balancers(n_servers).items():
        scalar_result = replay(trace, build())
        batch_result = replay_batch(trace, build())
        if (
            scalar_result.pcc_violations != batch_result.pcc_violations
            or scalar_result.tracked_connections != batch_result.tracked_connections
            or scalar_result.server_loads != batch_result.server_loads
        ):
            raise AssertionError(f"{label}: batched replay diverges from scalar")
        # Never-slower contract: a stack without an index kernel routes
        # through the scalar loop, so batch can at worst tie within noise.
        if batch_result.rate_pps < 0.95 * scalar_result.rate_pps:
            raise AssertionError(
                f"{label}: batch replay slower than scalar "
                f"({batch_result.rate_pps:,.0f} vs {scalar_result.rate_pps:,.0f} pps)"
            )
        rows.append(
            {
                "balancer": label,
                "trace_packets": trace.n_packets,
                "scalar_pps": scalar_result.rate_pps,
                "batch_pps": batch_result.rate_pps,
                "speedup": batch_result.rate_pps / scalar_result.rate_pps
                if scalar_result.rate_pps
                else 0.0,
                "pcc_violations": batch_result.pcc_violations,
                "tracked_connections": batch_result.tracked_connections,
                "chunk_size": DEFAULT_CHUNK,
            }
        )
    return rows


def run_chunk_sweep(
    n_servers: int,
    trace_packets: int,
    trace_population: int,
    seed: int,
    repeats: int,
    chunk_sizes: Sequence[int] = CHUNK_SWEEP,
) -> dict:
    """Columnar replay rate of the jet-table stack per chunk size.

    This is the evidence behind ``repro.traces.replay.DEFAULT_CHUNK``:
    the sweep rows plus a rationale string ride along in the bench JSON,
    so the default is never an unexplained constant.
    """
    trace = zipf_trace(
        skew=1.0, n_packets=trace_packets, population=trace_population, seed=seed
    )
    build = _replay_balancers(n_servers)["jet-table"]
    rows = []
    for chunk in sorted(set(chunk_sizes) | {DEFAULT_CHUNK}):
        best = 0.0
        for _ in range(max(1, repeats)):
            # Fresh balancer per repeat: a warm CT would flatter reruns.
            best = max(best, replay_batch(trace, build(), chunk_size=chunk).rate_pps)
        rows.append(
            {
                "balancer": "jet-table",
                "chunk_size": chunk,
                "batch_pps": best,
                "is_default": chunk == DEFAULT_CHUNK,
            }
        )
    best_row = max(rows, key=lambda row: row["batch_pps"])
    default_row = next(row for row in rows if row["is_default"])
    within = (
        default_row["batch_pps"] / best_row["batch_pps"]
        if best_row["batch_pps"]
        else 0.0
    )
    return {
        "rows": rows,
        "default_chunk": DEFAULT_CHUNK,
        "default_pps": default_row["batch_pps"],
        "best_chunk": best_row["chunk_size"],
        "default_vs_best": within,
        "rationale": (
            f"DEFAULT_CHUNK={DEFAULT_CHUNK}: per-chunk fixed costs (CT probe "
            f"setup, mask passes) amortize by ~32k keys while the chunk "
            f"arrays stay cache-resident and small enough for streaming "
            f"memmap replay; at this scale the default reaches "
            f"{within:.2f}x of the best swept chunk ({best_row['chunk_size']})."
        ),
    }


#: Floor for the instrumented-but-disabled replay path: a NullRegistry
#: run must keep at least this fraction of the uninstrumented rate.
OBS_DISABLED_FLOOR = 0.95


def run_obs_overhead(
    n_servers: int, trace_packets: int, trace_population: int, seed: int, repeats: int
) -> dict:
    """Measure the observability tax on the scalar replay loop.

    Three identical replays of the same trace through fresh JET stacks:
    ``metrics=None`` (uninstrumented), ``metrics=NULL`` (the instrumented
    code path with the no-op registry -- what a run pays for obs being
    *available* but off), and a live :class:`~repro.obs.Registry`.  All
    instrumentation sits at batch/run boundaries, so the disabled path
    must stay above :data:`OBS_DISABLED_FLOOR` of the uninstrumented rate
    -- the micro-bench guard CI enforces via :func:`check_against`.
    """
    trace = zipf_trace(
        skew=1.0, n_packets=trace_packets, population=trace_population, seed=seed
    )
    build = _replay_balancers(n_servers)["jet-table"]

    # Interleave the variants round-robin instead of timing each group in
    # sequence: on a machine whose clock drifts over the bench (thermal
    # throttling after the CH sweep), grouped timing skews the ratios by
    # whatever the drift was between groups.  Fresh balancer per repeat:
    # a warm CT would shortcut CH lookups and flatter later runs.
    variants = {"base": lambda: None, "disabled": lambda: NULL, "live": Registry}
    best = {label: 0.0 for label in variants}
    for _ in range(max(1, repeats)):
        for label, registry_factory in variants.items():
            rate = replay(trace, build(), metrics=registry_factory()).rate_pps
            best[label] = max(best[label], rate)
    base = best["base"]
    disabled = best["disabled"]
    live = best["live"]
    return {
        "balancer": "jet-table",
        "trace_packets": trace.n_packets,
        "base_pps": base,
        "disabled_pps": disabled,
        "live_pps": live,
        "disabled_ratio": disabled / base if base else 0.0,
        "live_ratio": live / base if base else 0.0,
    }


def run_throughput(
    scale: Optional[str] = None,
    seed: int = 1,
    batch_sizes: Sequence[int] = (BATCH_SIZE,),
    chunk_sizes: Sequence[int] = CHUNK_SWEEP,
) -> dict:
    """Run the full experiment at a preset scale; returns the JSON payload."""
    name = scale_name(scale)
    params = SWEEP_SCALES[name]
    return {
        "experiment": "batched-dataplane",
        "scale": name,
        "seed": seed,
        "n_servers": params["n_servers"],
        "batch_sizes": list(batch_sizes),
        "ch_lookup": run_ch_sweep(
            params["n_servers"], params["repeats"], seed, batch_sizes
        ),
        "replay": run_replay_compare(
            params["n_servers"],
            params["trace_packets"],
            params["trace_population"],
            seed,
        ),
        "chunk_sweep": run_chunk_sweep(
            params["n_servers"],
            params["trace_packets"],
            params["trace_population"],
            seed,
            params["repeats"],
            chunk_sizes,
        ),
        "obs_overhead": run_obs_overhead(
            params["n_servers"],
            params["trace_packets"],
            params["trace_population"],
            seed,
            params["repeats"],
        ),
    }


def check_against(payload: dict, recorded: dict) -> List[str]:
    """Regression gate for CI: compare a fresh payload to committed numbers.

    Failures (returned as human-readable strings; empty list == pass):

    - any fresh ``ch_lookup`` family with ``speedup < 1.0`` at the
      reference batch size, or any fresh ``replay`` balancer below the
      0.95 never-slower floor;
    - the instrumented-but-disabled replay path (``obs_overhead``)
      below :data:`OBS_DISABLED_FLOOR` of the uninstrumented rate;
    - any family recorded as ``vectorized`` whose fresh speedup fell
      below half the recorded one.  Speedups scale with population, so
      the half-of-recorded check only applies when the scales match;
    - any replay balancer whose fresh batch rate fell below
      :data:`REPLAY_PPS_FLOOR` of the recorded ``batch_pps``
      (absolute-rate gate; same scale only, like the speedup check);
    - a fresh ``showdown`` section whose Concury columnar replay rate
      fell below :data:`REPLAY_PPS_FLOOR` of the recorded one (same
      scale only; sections either payload lacks are skipped, so the
      throughput and showdown experiments can each gate their own runs
      against the one committed bench file);
    - a fresh ``scenarios`` section with any native-mode envelope
      violation, or (same scale only) a scenario whose tracked-fraction
      margin collapsed below half the recorded headroom.
    """
    failures: List[str] = []

    def reference_rows(rows):
        # One row per family at the largest measured batch (the
        # acceptance-criteria size) even when a sweep recorded several.
        by_family: Dict[str, dict] = {}
        for row in rows:
            best = by_family.get(row["family"])
            if best is None or row["batch_size"] > best["batch_size"]:
                by_family[row["family"]] = row
        return by_family

    fresh_ch = reference_rows(payload.get("ch_lookup", []))
    for family, row in fresh_ch.items():
        if row["speedup"] < 1.0:
            failures.append(
                f"ch_lookup[{family}]: batch slower than scalar "
                f"(speedup {row['speedup']:.3f} < 1.0)"
            )
    for row in payload.get("replay", []):
        if row["speedup"] < 0.95:
            failures.append(
                f"replay[{row['balancer']}]: below never-slower floor "
                f"(speedup {row['speedup']:.3f} < 0.95)"
            )
    obs = payload.get("obs_overhead")
    if obs and obs["disabled_ratio"] < OBS_DISABLED_FLOOR:
        failures.append(
            f"obs_overhead[{obs['balancer']}]: disabled-registry replay below "
            f"{OBS_DISABLED_FLOOR}x uninstrumented "
            f"(ratio {obs['disabled_ratio']:.3f})"
        )

    if recorded.get("scale") == payload.get("scale"):
        recorded_ch = reference_rows(recorded.get("ch_lookup", []))
        for family, old in recorded_ch.items():
            fresh = fresh_ch.get(family)
            if fresh is None or not old.get("vectorized"):
                continue
            if fresh["speedup"] < 0.5 * old["speedup"]:
                failures.append(
                    f"ch_lookup[{family}]: regressed below half the recorded "
                    f"speedup ({fresh['speedup']:.2f} < 0.5 * {old['speedup']:.2f})"
                )
        fresh_replay = {row["balancer"]: row for row in payload.get("replay", [])}
        for old in recorded.get("replay", []):
            fresh = fresh_replay.get(old["balancer"])
            if fresh is None:
                continue
            if fresh["batch_pps"] < REPLAY_PPS_FLOOR * old["batch_pps"]:
                failures.append(
                    f"replay[{old['balancer']}]: batch rate below "
                    f"{REPLAY_PPS_FLOOR}x recorded "
                    f"({fresh['batch_pps']:,.0f} < {REPLAY_PPS_FLOOR} * "
                    f"{old['batch_pps']:,.0f} pps)"
                )

    def showdown_columnar(section):
        for row in (section or {}).get("lookup", {}).get("rows", []):
            if row.get("balancer") == "concury-table":
                return row.get("columnar_replay_pps")
        return None

    fresh_show = payload.get("showdown")
    old_show = recorded.get("showdown")
    if (
        fresh_show
        and old_show
        and fresh_show.get("scale") == old_show.get("scale")
    ):
        fresh_pps = showdown_columnar(fresh_show)
        old_pps = showdown_columnar(old_show)
        if fresh_pps is not None and old_pps:
            if fresh_pps < REPLAY_PPS_FLOOR * old_pps:
                failures.append(
                    f"showdown[concury-table]: columnar replay rate below "
                    f"{REPLAY_PPS_FLOOR}x recorded "
                    f"({fresh_pps:,.0f} < {REPLAY_PPS_FLOOR} * {old_pps:,.0f} pps)"
                )

    # Scenario-matrix envelopes (repro.experiments.scenario_matrix): any
    # fresh native-mode envelope violation is an absolute failure, and the
    # tracked-fraction headroom must not collapse below half the recorded
    # margin (same scale and same committed seeds, so the comparison is
    # exact, not statistical).
    fresh_scen = payload.get("scenarios")
    old_scen = recorded.get("scenarios")
    if fresh_scen:
        for name, row in sorted(fresh_scen.get("scenarios", {}).items()):
            if not row.get("ok", True):
                failures.append(
                    f"scenarios[{name}]: native-mode envelope violated"
                )
    if (
        fresh_scen
        and old_scen
        and fresh_scen.get("scale") == old_scen.get("scale")
    ):
        for name, old in sorted(old_scen.get("scenarios", {}).items()):
            fresh = fresh_scen.get("scenarios", {}).get(name)
            if fresh is None:
                continue
            old_margin = (old.get("margins") or {}).get("tracked_fraction")
            new_margin = (fresh.get("margins") or {}).get("tracked_fraction")
            if old_margin is None or new_margin is None or old_margin <= 0:
                continue
            if new_margin < 0.5 * old_margin:
                failures.append(
                    f"scenarios[{name}]: tracked-fraction margin collapsed "
                    f"({new_margin:.3f} < 0.5 * recorded {old_margin:.3f})"
                )
    return failures


def format_report(payload: dict) -> str:
    lines = [
        f"columnar dataplane @ scale={payload['scale']} "
        f"(n={payload['n_servers']}, batches={payload.get('batch_sizes', [BATCH_SIZE])})",
        f"{'family':<10} {'batch':>7} {'scalar k/s':>12} {'batch k/s':>12} "
        f"{'speedup':>8}  vectorized",
    ]
    for row in payload["ch_lookup"]:
        lines.append(
            f"{row['family']:<10} {row['batch_size']:>7,} "
            f"{row['scalar_keys_per_s']:>12,.0f} "
            f"{row['batch_keys_per_s']:>12,.0f} {row['speedup']:>7.1f}x  "
            f"{'yes' if row['vectorized'] else 'fallback'}"
        )
    lines.append(
        f"{'balancer':<16} {'scalar pps':>12} {'batch pps':>12} {'speedup':>8}"
    )
    for row in payload["replay"]:
        lines.append(
            f"{row['balancer']:<16} {row['scalar_pps']:>12,.0f} "
            f"{row['batch_pps']:>12,.0f} {row['speedup']:>7.2f}x"
        )
    sweep = payload.get("chunk_sweep")
    if sweep:
        lines.append(f"{'chunk':>8} {'batch pps':>12}  (jet-table columnar)")
        for row in sweep["rows"]:
            marker = "  <- default" if row["is_default"] else ""
            lines.append(
                f"{row['chunk_size']:>8,} {row['batch_pps']:>12,.0f}{marker}"
            )
    obs = payload.get("obs_overhead")
    if obs:
        lines.append(
            f"obs overhead ({obs['balancer']}): base {obs['base_pps']:,.0f} pps, "
            f"disabled {obs['disabled_ratio']:.3f}x "
            f"(floor {OBS_DISABLED_FLOOR}), live {obs['live_ratio']:.3f}x"
        )
    return "\n".join(lines)


def write_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_metrics_artifact(path: str, scale: str, seed: int) -> None:
    """One instrumented JET replay -> JSONL + Prometheus metrics files."""
    from repro.obs import (
        JsonlExporter,
        MonitorSuite,
        evaluate_and_export,
        prometheus_sibling,
        write_prometheus,
    )

    params = SWEEP_SCALES[scale]
    trace = zipf_trace(
        skew=1.0,
        n_packets=params["trace_packets"],
        population=params["trace_population"],
        seed=seed,
    )
    registry = Registry()
    with JsonlExporter(path) as exporter:
        registry.attach_exporter(exporter)
        result = replay(trace, _replay_balancers(params["n_servers"])["jet-table"](),
                        metrics=registry)
        results = evaluate_and_export(registry, t=result.wall_seconds)
    write_prometheus(registry, prometheus_sibling(path))
    print(f"metrics artifact: {path}")
    print(MonitorSuite.render(results))


def _parse_batch_sizes(spec: str) -> List[int]:
    sizes = sorted({int(s) for s in spec.split(",") if s.strip()})
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError("batch sizes must be positive integers")
    return sizes


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default=None, choices=sorted(SWEEP_SCALES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--output", default="BENCH_dataplane.json")
    parser.add_argument(
        "--batch-sizes",
        type=_parse_batch_sizes,
        default=[BATCH_SIZE],
        help="comma-separated batch sizes for the CH sweep (one row each)",
    )
    parser.add_argument(
        "--chunk-sizes",
        type=_parse_batch_sizes,
        default=list(CHUNK_SWEEP),
        help="comma-separated replay chunk sizes for the DEFAULT_CHUNK "
        "justification sweep (the current default is always included)",
    )
    parser.add_argument(
        "--check-against",
        default=None,
        metavar="PATH",
        help="committed BENCH_dataplane.json to gate against (CI); "
        "exits nonzero on any regression",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="replay one instrumented JET run and write its JSONL metrics "
        "artifact here (plus a Prometheus .prom sibling)",
    )
    args = parser.parse_args(argv)
    payload = run_throughput(
        scale=args.scale,
        seed=args.seed,
        batch_sizes=args.batch_sizes,
        chunk_sizes=args.chunk_sizes,
    )
    print(format_report(payload))
    write_json(payload, args.output)
    print(f"wrote {args.output}")
    if args.metrics_out:
        _write_metrics_artifact(args.metrics_out, payload["scale"], args.seed)
    if args.check_against:
        with open(args.check_against) as fh:
            recorded = json.load(fh)
        failures = check_against(payload, recorded)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            raise SystemExit(1)
        print(f"regression gate vs {args.check_against}: ok")


if __name__ == "__main__":
    main()
