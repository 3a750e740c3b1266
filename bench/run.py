"""The benchmark command.

    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1

One invocation runs one workload (see :mod:`bench.measure`) and prints
the machine fingerprint, the round statistics, every metric by name with
its unit and -- as the last line of stdout -- one JSON object for the
driver.  ``--trace 0`` prints the end-to-end metrics (tracing off);
``--trace 1`` alternates untraced and proxy-traced rounds and prints
the per-layer metrics.  The exit status is non-zero when any output
check fails.

``peak_rss_mb`` comes from a second, fresh process (``--memory-probe``)
that makes the inputs once and runs each stack once: the measuring
process itself holds five set-ups, the rounds and the checks, and how
much of that the allocator has handed back at any moment is not the
program's doing (it flipped the reading between 131, 137 and 144 MiB).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
HISTORY = BENCH_DIR / "history.jsonl"


def locate_repro() -> None:
    """Put this checkout's ``src`` first on the path; fail if it is not there."""
    source = ROOT / "src"
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))  # run as a script: make ``bench`` importable
    if (source / "repro").is_dir():
        sys.path.insert(0, str(source))
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.exit(f"bench: cannot import repro (no package under {source})")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the names in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced rounds, per-layer metrics")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; BENCHMARK.json's numbers are at 'full'")
    parser.add_argument("--record", action="store_true",
                        help=f"append a summary row to {HISTORY.relative_to(ROOT)}")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload twice and compare against the bounds")
    parser.add_argument("--memory-probe", action="store_true",
                        help="one pass per stack in this fresh process; print its peak RSS")
    args = parser.parse_args(argv)
    if not args.selfcheck and not args.workload:
        parser.error("--workload is required (or --selfcheck)")
    return args


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pick_workload(args: argparse.Namespace):
    from bench import workloads

    available = workloads.build(args.scale)
    if args.workload not in available:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(available)}")
    return available[args.workload]


@contextlib.contextmanager
def work_directory(args: argparse.Namespace) -> Iterator[Path]:
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def memory_probe(args: argparse.Namespace) -> int:
    """The body of the probe process: inputs once, each stack once."""
    from bench import machine, workloads

    workload = pick_workload(args)
    with work_directory(args) as workdir:
        inputs = workload.make_inputs(args.seed, workdir)
        for stack in workloads.STACKS:
            workload.run(inputs, stack)
    print(json.dumps({"peak_rss_mb": machine.peak_rss_mb()}))
    return 0


def probe_peak_rss_mb(args: argparse.Namespace) -> float:
    """Peak RSS of a fresh process (or its largest child) doing the workload."""
    command = [sys.executable, "-m", "bench", "--memory-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--scale", args.scale]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"memory probe failed ({done.returncode}): {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["peak_rss_mb"]


def run_workload(args: argparse.Namespace) -> dict:
    """Run one workload, print what it measured, return the driver's object."""
    from bench import machine, measure, tracing

    workload = pick_workload(args)
    seconds = args.seconds if args.seconds is not None else contract()["run_seconds"]
    fingerprint = machine.fingerprint(ROOT)
    print(f"# machine {json.dumps(fingerprint, sort_keys=True)}")
    print(f"# workload {workload.name} seed={args.seed} scale={args.scale} "
          f"seconds={seconds:g} trace={args.trace}")

    # Peak memory is an end-to-end metric: tracing off only.
    peak_rss_mb = None if args.trace else probe_peak_rss_mb(args)
    with work_directory(args) as workdir:
        run = measure.measure(
            workload, args.seed, seconds, bool(args.trace), workdir,
            sheet_scale=1.0 if args.scale == "full" else 0.1,
            peak_rss_mb=peak_rss_mb,
        )

    if args.trace:
        spans_path = OUT_DIR / f"spans-{workload.name}.jsonl"
        tracing.write_jsonl(spans_path, run.span_lines)
        print(f"# spans {spans_path.relative_to(ROOT)} ({len(run.span_lines)} lines)")
    for name, unit in run.units.items():
        print(f"{name} {run.values[name]:.6g} {unit}")
    checks = run.checks
    print(f"# checks attempted {checks.attempted} failed {checks.failed}")

    payload = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": run.values[name], "unit": unit}
            for name, unit in run.units.items()
        },
    }
    if args.record:
        row = {
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "machine": fingerprint,
            "workload": workload.name,
            "seed": args.seed,
            "scale": args.scale,
            "seconds": seconds,
            "trace": args.trace,
            "rounds": run.rounds,
            "disturbed": run.disturbed,
            "machine_speed": run.machine_speed,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {name: run.values[name] for name in run.units},
        }
        with open(HISTORY, "a") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return payload


def selfcheck(args: argparse.Namespace) -> int:
    """Two runs of the same code must agree within the benchmark's bounds."""
    spec = contract()
    disagreements = 0
    print(f"{'workload':16s} {'metric':26s} {'first':>14s} {'second':>14s} "
          f"{'differ by':>9s} {'bound':>6s}")
    for workload in (w["name"] for w in spec["workloads"]):
        pair = []
        for _ in range(2):
            command = [sys.executable, "-m", "bench", "--workload", workload,
                       "--seed", str(args.seed), "--scale", args.scale]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stdout, done.stderr, sep="\n")
                return done.returncode
            pair.append(json.loads(done.stdout.strip().splitlines()[-1]))
        for metric in spec["end_to_end"]:
            first, second = (p["metrics"][metric["name"]]["value"] for p in pair)
            # Either run may stand for "the parent", so the test is two-sided.
            differ = abs(second - first) / min(first, second)
            ok = differ <= metric["bound"]
            disagreements += not ok
            print(f"{workload:16s} {metric['name']:26s} {first:14.6g} {second:14.6g} "
                  f"{differ:9.2%} {metric['bound']:6.2f}{'' if ok else '  DISAGREE'}")
    return 1 if disagreements else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    locate_repro()
    if args.selfcheck:
        return selfcheck(args)
    if args.memory_probe:
        return memory_probe(args)
    payload = run_workload(args)
    print(json.dumps(payload))
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
