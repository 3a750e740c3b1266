"""One run of one workload: set-up, rounds, checks, metrics.

The shape of a run (the same for every workload):

1. set-up, repeated, so ``setup_s`` is a median;
2. one untimed warm-up round;
3. timed rounds until the time is up, each one fresh-balancer pass per
   stack, round-robin, so a slow spell of the machine hits every stack
   alike; with ``--trace 1`` every untraced pass is followed by a traced
   one.  Two calibration samples precede every set-up and every pass;
4. output checks; metrics at reference machine speed (see
   :mod:`bench.machine`), raw walls printed beside them.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from bench import machine, metrics, sheet, tracing
from bench.workloads import STACKS, WORKERS, Checks, Pass

#: Set-up is repeated so ``setup_s`` is a median, not one sample: five
#: times at least, and cheap set-ups until this much time has gone by.
SETUP_REPEATS = 5
SETUP_MIN_S = 0.25
SETUP_MAX_REPEATS = 25
MIN_ROUNDS = 3


@dataclass
class Run:
    """Everything one run measured."""

    values: Dict[str, float]
    units: Dict[str, str]
    checks: Checks
    rounds: int
    disturbed: int
    machine_speed: float
    span_lines: List[dict] = field(default_factory=list)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path,
            sheet_scale: float = 1.0, peak_rss_mb: Optional[float] = None) -> Run:
    """``peak_rss_mb`` is measured by the caller, in a process of its own
    (see :mod:`bench.run`); an untraced run reports it."""
    checks = Checks()

    calibration_ms: List[float] = []  # one per set-up and per pass, in order

    def speed_now() -> float:
        sample = (machine.calibration_ms() + machine.calibration_ms()) / 2
        calibration_ms.append(sample)
        return machine.REFERENCE_MS / sample

    setup_s: List[float] = []  # input generation + the three constructions
    spent = 0.0
    while len(setup_s) < SETUP_REPEATS or (
        spent < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPEATS
    ):
        speed = speed_now()
        start = time.perf_counter()
        inputs = workload.make_inputs(seed, workdir)
        for stack in STACKS:
            workload.construct(inputs, stack)
        elapsed = time.perf_counter() - start
        spent += elapsed
        setup_s.append(elapsed * speed)
        if trace:
            break  # set-up time is an end-to-end metric; once is enough here

    def one_pass(stack: str, tracer=None) -> Pass:
        gc.collect()  # the previous pass's balancer dies outside the timed call
        speed = speed_now()
        outcome = workload.run(inputs, stack, tracer)
        outcome.speed = speed
        return outcome

    for stack in STACKS:  # warm-up: caches fill, lazy imports finish
        one_pass(stack)

    plain: Dict[str, List[Pass]] = {stack: [] for stack in STACKS}
    traced: Dict[str, List[Pass]] = {stack: [] for stack in STACKS}
    layers: Dict[str, List[Dict[str, float]]] = {stack: [] for stack in STACKS}
    budgets: Dict[str, List[Dict[str, int]]] = {stack: [] for stack in STACKS}
    span_lines: List[dict] = []
    n_rounds = 0
    started = time.perf_counter()
    while n_rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        n_rounds += 1
        for stack in STACKS:
            plain[stack].append(one_pass(stack))
            if not trace:
                continue
            tracer = tracing.Tracer(aggregated=workload.aggregated)
            outcome = one_pass(stack, tracer)
            traced[stack].append(outcome)
            layers[stack].append(metrics.stack_layers(tracer, outcome))
            budgets[stack].append(metrics.budget_ns(tracer))
            gap = abs(tracer.total_self_ns() / 1e9 - outcome.wall_s) / outcome.wall_s
            checks.expect(f"budget-sums-to-wall[{stack}]", gap <= 0.01,
                          f"self times miss the traced wall by {gap:.2%}")
            span_lines.extend(tracing.span_records(
                tracer, workload=workload.name, stack=stack, round=n_rounds - 1))
    per_round = len(STACKS) * (2 if trace else 1)
    in_rounds = calibration_ms[-n_rounds * per_round:]
    disturbed = machine.disturbed_rounds([
        statistics.median(in_rounds[i:i + per_round])
        for i in range(0, len(in_rounds), per_round)
    ])
    speed = machine.machine_speed(in_rounds)

    counts = {stack: plain[stack][0].counts for stack in STACKS}
    for stack in STACKS:
        # (e) every round agrees; (f) tracing changes no result.
        same = all(p.counts == counts[stack] for p in plain[stack])
        checks.expect(f"rounds-identical[{stack}]", same, "counts differ between rounds")
        if trace:
            same = all(p.counts == counts[stack] for p in traced[stack])
            checks.expect(f"traced==untraced[{stack}]", same, "tracing changed the result")
    workload.verify(inputs, counts, checks)

    print(f"# rounds {n_rounds} (disturbed {disturbed}); machine speed {speed:.3f} "
          f"(1 = calibration kernel in {machine.REFERENCE_MS} ms)")
    for stack in STACKS:
        q1, q2, q3 = statistics.quantiles([p.wall_s for p in plain[stack]], n=4)
        packets = plain[stack][0].packets
        print(f"# {stack:8s} raw wall s  q1 {q1:.4f}  median {q2:.4f}  q3 {q3:.4f}  "
              f"n {n_rounds}  packets {packets}  raw {packets / q2:.6g} packets/s")

    if trace:
        values = per_layer(workload, plain, traced, layers)
        if workload.name == "replay-steady":
            values.update(sheet.measure(seed, sheet_scale))
        print_budget(budgets)
        declared = metrics.per_layer()
    else:
        values = metrics.end_to_end(setup_s, plain, peak_rss_mb)
        declared = metrics.END_TO_END
    units = {name: unit for name, unit, _ in declared}
    return Run(
        values=metrics.at_reference_speed(values, units, speed) if trace else values,
        units=units,
        checks=checks,
        rounds=n_rounds,
        disturbed=disturbed,
        machine_speed=speed,
        span_lines=span_lines,
    )


def per_layer(workload, plain, traced, layers) -> Dict[str, float]:
    """Every per-layer metric as the median over the traced rounds."""
    values = {name: 0.0 for name, _, _ in metrics.per_layer()}
    median = statistics.median
    for stack in STACKS:
        for term in layers[stack][0]:
            name = f"{stack}.{term}"
            if name in values:
                values[name] = median(layer[term] for layer in layers[stack])
        if not workload.proxied:
            # The sharded workload: its stages ran as direct calls, so
            # there is no proxy overhead to report; the efficiency
            # compares the two CLI walls.
            extras = [p.extras for p in traced[stack]]
            forked = median(p.wall_s for p in plain[stack])
            serial = median(e["workers1_wall_s"] for e in extras)
            values[f"{stack}.shard.parallel_efficiency"] = serial / (WORKERS * forked)
            values["shard.load_mmap_ms"] = median(e["load_mmap_ms"] for e in extras)
            values["shard.partition_s"] = median(e["partition_s"] for e in extras)
        else:
            # Paired by round: the two passes ran back to back, so slow
            # drift of the machine cancels.
            values[f"{stack}.trace_overhead_share"] = median(
                (with_.wall_s - without.wall_s) / without.wall_s
                for with_, without in zip(traced[stack], plain[stack])
            )
    return values


def print_budget(budgets: Dict[str, List[Dict[str, int]]]) -> None:
    """Where the traced wall went: each term's share, all rounds pooled."""
    print("# budget: share of the traced wall by term (self time)")
    for stack, rounds in budgets.items():
        pooled: Dict[str, int] = {}
        for budget in rounds:
            for term, ns in budget.items():
                pooled[term] = pooled.get(term, 0) + ns
        total = sum(pooled.values())
        shares = sorted(pooled.items(), key=lambda item: -item[1])
        print(f"# {stack:8s} " + "  ".join(
            f"{term} {ns / total:.1%}" for term, ns in shares if ns))
