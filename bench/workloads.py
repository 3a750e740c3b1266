"""The four workloads: seeded inputs, the timed call, and output checks.

Every workload runs the same three points of the stateful/stateless
spectrum -- ``jet`` (JET, unbounded CT), ``full`` (full CT), ``concury``
(Othello dataplane) -- over table-HRW with 100 working and 10 horizon
servers, so Theorem 4.2's tracked fraction is 10/110.

A workload is closed-loop and single-process: ``run`` builds a fresh
balancer, makes **one** call into the program (``replay_batch``,
``repro.cli.main`` or ``run_compiled``) and returns its wall and result
counts.  Given a :class:`~bench.tracing.Tracer` the same call runs with
recording proxies installed and becomes the root span of a layer budget.
Only the sharded workload leaves the process: its CLI call forks
``WORKERS`` workers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pickle
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.scenarios.run as scenarios_run
import repro.sim.scenario as sim_scenario
from repro import cli
from repro.ch import rows_for
from repro.scenarios import ScenarioSpec, compile_scenario, fingerprint, run_compiled
from repro.shard import BalancerSpec, MembershipEvent, ShardPlan, replay_sharded, run_shard
from repro.traces import (
    Trace,
    load_trace,
    merge_replay_results,
    replay,
    replay_batch,
    save_trace,
    zipf_trace,
)

from bench.tracing import PER_PACKET_ROLES, Tracer, instrument, wrap_events

STACKS = ("jet", "full", "concury")
SERVERS = 100
HORIZON = 10
EXPECTED_TRACKED = HORIZON / (SERVERS + HORIZON)
SKEW = 1.0
SHARDS = 4
WORKERS = 2

#: Input sizes.  ``full`` is what BENCHMARK.json's numbers are measured
#: at: sized on the 2-core reference box so that >= 18 rounds over the
#: three stacks fit in the run; ``tiny`` is for ``bench/tests``.
SCALES: Dict[str, Dict[str, float]] = {
    "full": {
        "universe": 1_000_000,
        "steady_packets": 1_500_000,
        "churn_packets": 1_000_000,
        "churn_events": 12,
        "sharded_packets": 1_000_000,
        "prefix": 200_000,
        "prefix_events": 4,
        "sim_duration_s": 60,
        "sim_connection_rate": 600,
    },
    "tiny": {
        "universe": 40_000,
        "steady_packets": 100_000,
        "churn_packets": 100_000,
        "churn_events": 4,
        "sharded_packets": 100_000,
        "prefix": 8_000,
        "prefix_events": 2,
        "sim_duration_s": 12,
        "sim_connection_rate": 300,
    },
}

SCENARIO_FILE = Path(__file__).parent / "scenarios" / "sim-churn.json"


@dataclass
class Pass:
    """One call into the program: its wall and result counts."""

    wall_s: float
    packets: int
    counts: Dict[str, object]
    #: Layer evidence only a traced pass collects (CT stats, shard terms).
    extras: Dict[str, float] = field(default_factory=dict)
    #: Machine speed right before the pass (set by the measuring loop).
    speed: float = 1.0


class Checks:
    """Output checks attempted and failed; failures are printed as found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {name}: {detail}")


def spec_for(mode: str, family: str = "table") -> BalancerSpec:
    """The benchmark's fleet under one LB mode (a stack) and CH family."""
    return BalancerSpec.fleet(
        mode=mode, family=family, n_servers=SERVERS, horizon_size=HORIZON
    )


def make_trace(seed: int, packets: int, universe: int) -> Trace:
    return zipf_trace(SKEW, n_packets=int(packets), population=int(universe), seed=seed)


def churn_events(seed: int, n_packets: int, n_events: int) -> List[Tuple[int, object]]:
    """Evenly spaced announced churn: remove ``s_k``, later re-add it.

    A removed server joins the horizon, so every re-addition is the
    announced kind JET's guarantee covers; ``k`` is drawn from the seed.
    """
    victims = np.random.default_rng(seed).choice(
        SERVERS, size=(n_events + 1) // 2, replace=False
    )
    step = n_packets // (n_events + 1)
    events = []
    for i in range(n_events):
        op = "remove_working" if i % 2 == 0 else "add_working"
        event = MembershipEvent((i + 1) * step, op, f"s{int(victims[i // 2])}")
        events.append((event.packet_index, event.apply))
    return events


def replay_counts(result) -> Dict[str, object]:
    return {
        "flows": sum(result.server_loads.values()),
        "tracked": result.tracked_connections,
        "violations": result.pcc_violations,
        "inevitable": result.inevitably_broken,
        "oversub": f"{result.max_oversubscription:.3f}",
        "loads": tuple(sorted(result.server_loads.items())),
    }


def _ct_extras(balancer) -> Dict[str, float]:
    ct = getattr(balancer, "ct", None)
    if ct is None:
        return {}
    stats = ct.stats
    return {
        "ct_lookups": stats.lookups,
        "ct_hits": stats.hits,
        "ct_inserts": stats.inserts,
    }


def tracked_band(flows: int) -> float:
    """Four sigma of JET's tracked fraction around 10/110.

    Two independent binomial terms: which flows the seed drew, and which
    of the table's rows have a horizon server on top (the table
    quantises the theorem's probability to ``rows_for(SERVERS)`` rows).
    """
    p = EXPECTED_TRACKED
    return 4.0 * math.sqrt(p * (1 - p) * (1.0 / flows + 1.0 / rows_for(SERVERS)))


# ------------------------------------------------------------------ replay
@dataclass
class ReplayInputs:
    seed: int
    trace: Trace
    events: List[Tuple[int, object]]
    path: Optional[Path] = None


class ReplayWorkload:
    """``replay_batch`` over a Zipf trace, with or without churn."""

    aggregated: frozenset = frozenset()
    #: A traced pass installs recording proxies on the balancer.
    proxied = True

    def __init__(self, name: str, why: str, scale: Dict[str, float],
                 packets_key: str, events_key: Optional[str] = None):
        self.name = name
        self.why = why
        self.scale = scale
        self.packets = int(scale[packets_key])
        self.n_events = int(scale[events_key]) if events_key else 0
        self.event_free = self.n_events == 0

    def make_inputs(self, seed: int, workdir: Path) -> ReplayInputs:
        trace = make_trace(seed, self.packets, self.scale["universe"])
        return ReplayInputs(seed, trace, churn_events(seed, self.packets, self.n_events))

    def construct(self, inputs: ReplayInputs, stack: str):
        """The balancer a pass starts from; its cost is part of ``setup_s``."""
        return spec_for(stack).build(0)

    def run(self, inputs: ReplayInputs, stack: str, tracer: Optional[Tracer] = None) -> Pass:
        balancer = self.construct(inputs, stack)
        if tracer is None:
            start = time.perf_counter()
            result = replay_batch(inputs.trace, balancer, inputs.events)
        else:
            proxy = instrument(balancer, tracer)
            events = wrap_events(inputs.events, tracer)
            start = time.perf_counter()
            result = tracer.call(
                "replay", "traces.replay_batch", replay_batch, inputs.trace, proxy, events
            )
        wall = time.perf_counter() - start
        return Pass(
            wall_s=wall,
            packets=inputs.trace.n_packets,
            counts=replay_counts(result),
            extras=_ct_extras(balancer) if tracer is not None else {},
        )

    def verify(self, inputs: ReplayInputs, counts: Dict[str, Dict], checks: Checks) -> None:
        check_scalar_agrees(inputs, self.scale, checks)
        if self.event_free:
            check_tracked_band(self.name, counts["jet"], checks)
        else:
            check_jet_equals_full(self.name, counts, checks)


def check_scalar_agrees(inputs: ReplayInputs, scale: Dict[str, float], checks: Checks) -> None:
    """(a) the scalar spec and the columnar path agree on a prefix."""
    trace = inputs.trace
    n = min(int(scale["prefix"]), trace.n_packets)
    prefix = Trace(name="prefix", flow_keys=trace.flow_keys, packets=trace.packets[:n])
    schedules = {
        "quiet": [],
        "churn": churn_events(inputs.seed, n, int(scale["prefix_events"])),
    }
    for stack in STACKS:
        spec = spec_for(stack)
        for label, events in schedules.items():
            scalar = replay_counts(replay(prefix, spec.build(0), events))
            batch = replay_counts(replay_batch(prefix, spec.build(0), events))
            checks.expect(
                f"scalar==batch[{stack},{label}]",
                scalar == batch,
                _diff(scalar, batch),
            )


def check_tracked_band(name: str, jet: Dict, checks: Checks) -> None:
    """(c) Theorem 4.2: JET tracks about |H|/(|W|+|H|) of the flows."""
    fraction = jet["tracked"] / jet["flows"]
    band = tracked_band(jet["flows"])
    checks.expect(
        f"tracked-fraction[{name}]",
        abs(fraction - EXPECTED_TRACKED) <= band,
        f"{fraction:.5f} outside {EXPECTED_TRACKED:.5f} +- {band:.5f}",
    )


def check_jet_equals_full(name: str, counts: Dict[str, Dict], checks: Checks) -> None:
    """(b) JET breaks exactly the connections full CT breaks.

    Equality, not zero: under remove/re-add churn both report the same
    non-zero "violations", because a break is classified by the working
    set at detection time.
    """
    jet = (counts["jet"]["violations"], counts["jet"]["inevitable"])
    full = (counts["full"]["violations"], counts["full"]["inevitable"])
    checks.expect(f"jet==full[{name}]", jet == full, f"jet {jet} full {full}")


def _diff(left: Dict, right: Dict) -> str:
    keys = [k for k in left if left[k] != right.get(k)]
    return ", ".join(
        f"{k}: {str(left[k])[:60]} != {str(right.get(k))[:60]}" for k in keys
    )


# ----------------------------------------------------------------- sharded
_ROW = re.compile(r"oversub=([\d.]+) tracked=([\d,]+) .*violations=(\d+)")


class ShardedWorkload(ReplayWorkload):
    """``repro trace replay --workers 2 --shards 4`` as a user runs it."""

    #: Forked workers report no spans: a traced pass times the stages.
    proxied = False

    def make_inputs(self, seed: int, workdir: Path) -> ReplayInputs:
        inputs = super().make_inputs(seed, workdir)
        inputs.path = workdir / "trace.npz"
        save_trace(inputs.trace, inputs.path, compressed=False)
        return inputs

    def _cli(self, path: Path, stack: str, workers: int) -> Tuple[float, Dict[str, object]]:
        argv = [
            "trace", "replay", str(path), "--mmap", "--family", "table",
            "--mode", stack, "--servers", str(SERVERS), "--horizon", str(HORIZON),
            "--workers", str(workers), "--shards", str(SHARDS),
        ]
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        row = _ROW.search(captured.getvalue())
        if code != 0 or row is None:
            raise RuntimeError(f"trace replay failed ({code}): {captured.getvalue()!r}")
        return wall, {
            "oversub": row.group(1),
            "tracked": int(row.group(2).replace(",", "")),
            "violations": int(row.group(3)),
        }

    @staticmethod
    def _printed(counts: Dict[str, object], inputs: ReplayInputs) -> Dict[str, object]:
        """The counts the command prints, plus the flows it dispatched
        (zipf traces keep only flows that appear, and none is dropped)."""
        printed = {k: counts[k] for k in ("oversub", "tracked", "violations")}
        printed["flows"] = inputs.trace.n_flows
        return printed

    def run(self, inputs: ReplayInputs, stack: str, tracer: Optional[Tracer] = None) -> Pass:
        if tracer is not None:
            return self._run_layers(inputs, stack, tracer)
        wall, counts = self._cli(inputs.path, stack, WORKERS)
        return Pass(wall_s=wall, packets=inputs.trace.n_packets,
                    counts=self._printed(counts, inputs))

    def _run_layers(self, inputs: ReplayInputs, stack: str, tracer: Tracer) -> Pass:
        """The command's stages as direct calls, one span each.

        Forked workers cannot report spans, so the stages run serially
        here; one ``replay_sharded`` and one ``--workers 1`` CLI call
        beside them give the fork overhead and the parallel efficiency.
        """
        spec = spec_for(stack)

        def pipeline():
            with tracer.call("shard", "shard.load_mmap", load_trace, inputs.path, mmap=True) as trace:
                plan = tracer.call("shard", "shard.partition", ShardPlan.partition, trace, SHARDS)
                outcomes = [
                    tracer.call("shard", "shard.run_shard", run_shard, plan, spec.build, shard)
                    for shard in range(SHARDS)
                ]
                merged = tracer.call(
                    "shard", "shard.merge", merge_replay_results,
                    [outcome.result for outcome in outcomes],
                )
                # Views into the mapping must die before the trace closes.
                del plan
                return merged, outcomes

        start = time.perf_counter()
        merged, outcomes = tracer.call("shard", "shard.pipeline", pipeline)
        wall = time.perf_counter() - start
        shard_s = [d / 1e9 for d in tracer.durations_ns(name="shard.run_shard")]
        by_worker = [sum(shard_s[w::WORKERS]) for w in range(WORKERS)]
        partition_s = tracer.durations_ns(name="shard.partition")[0] / 1e9
        merge_s = tracer.durations_ns(name="shard.merge")[0] / 1e9
        forked = replay_sharded(inputs.trace, spec, n_workers=WORKERS, n_shards=SHARDS)
        serial_wall, _ = self._cli(inputs.path, stack, 1)
        return Pass(
            wall_s=wall,
            packets=inputs.trace.n_packets,
            counts=self._printed(replay_counts(merged), inputs),
            extras={
                "load_mmap_ms": tracer.durations_ns(name="shard.load_mmap")[0] / 1e6,
                "partition_s": partition_s,
                "shard_sum_s": sum(shard_s),
                "kernel_sum_s": sum(o.result.wall_seconds for o in outcomes),
                "merge_ms": merge_s * 1e3,
                "outcome_pickle_bytes": sum(len(pickle.dumps(o)) for o in outcomes),
                "fork_overhead_s": forked.end_to_end_seconds
                - partition_s - max(by_worker) - merge_s,
                "workers1_wall_s": serial_wall,
            },
        )

    def verify(self, inputs: ReplayInputs, counts: Dict[str, Dict], checks: Checks) -> None:
        super().verify(inputs, counts, checks)
        for stack in STACKS:
            # (d) sharded and merged == one process, one balancer.
            single = replay_counts(replay_batch(inputs.trace, spec_for(stack).build(0)))
            merged = replay_counts(
                replay_sharded(inputs.trace, spec_for(stack), n_workers=1, n_shards=SHARDS).result
            )
            checks.expect(f"sharded==single[{stack}]", merged == single, _diff(merged, single))
            printed = counts[stack]
            expected = {k: single[k] for k in printed}
            checks.expect(f"cli==single[{stack}]", printed == expected, _diff(printed, expected))


# --------------------------------------------------------------------- sim
@dataclass
class SimInputs:
    compiled: Dict[str, object]
    parse_compile_ms: Dict[str, float]


@contextlib.contextmanager
def _patched(module, name: str, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


class SimWorkload:
    """A benchmark-owned scenario through parse -> compile -> run."""

    name = "sim-churn"
    #: Per-packet scalar calls are totalled, not kept as spans.
    aggregated = PER_PACKET_ROLES
    proxied = True

    def __init__(self, why: str, scale: Dict[str, float]):
        self.why = why
        self.scale = scale

    def make_inputs(self, seed: int, workdir: Path) -> SimInputs:
        compiled, cost = {}, {}
        for stack in STACKS:
            start = time.perf_counter()
            raw = json.loads(SCENARIO_FILE.read_text())
            raw["mode"] = stack
            raw["duration_s"] = self.scale["sim_duration_s"]
            raw["workload"]["connection_rate"] = self.scale["sim_connection_rate"]
            compiled[stack] = compile_scenario(ScenarioSpec.parse(raw), seed=seed)
            cost[stack] = (time.perf_counter() - start) * 1e3
        return SimInputs(compiled, cost)

    def construct(self, inputs: SimInputs, stack: str):
        """What ``run_compiled`` builds inside its call, built directly so
        that construction cost shows in ``setup_s`` on this workload too."""
        return sim_scenario.build_balancer(inputs.compiled[stack].config)[0]

    def run(self, inputs: SimInputs, stack: str, tracer: Optional[Tracer] = None) -> Pass:
        compiled = inputs.compiled[stack]
        extras: Dict[str, float] = {}
        start = time.perf_counter()
        if tracer is None:
            report = run_compiled(compiled, workers=1)
        else:
            build = sim_scenario.build_balancer
            built = []

            def traced_build(config):
                balancer, working, standby = tracer.call("other", "sim.build_balancer", build, config)
                built.append(balancer)
                return instrument(balancer, tracer), working, standby

            evaluate = tracer.wrap(
                "obs", "obs.evaluate_and_export", scenarios_run.evaluate_and_export
            )
            with _patched(sim_scenario, "build_balancer", traced_build), \
                    _patched(scenarios_run, "evaluate_and_export", evaluate):
                start = time.perf_counter()
                report = tracer.call(
                    "engine", "scenarios.run_compiled", run_compiled, compiled, workers=1
                )
            extras = _ct_extras(built[0])
            extras["parse_compile_ms"] = inputs.parse_compile_ms[stack]
        wall = time.perf_counter() - start
        result = report.result
        return Pass(
            wall_s=wall,
            packets=result.packets_processed,
            counts={
                "flows": result.flows_started,
                "tracked": result.peak_tracked,
                "violations": result.pcc_violations,
                "inevitable": result.inevitably_broken,
                "surprise": result.surprise_additions,
                "events": result.removals + result.additions,
                "digest": fingerprint(result),
            },
            extras=extras,
        )

    def verify(self, inputs: SimInputs, counts: Dict[str, Dict], checks: Checks) -> None:
        # The guarantee covers announced additions only; the scenario is
        # sized so the horizon never overflows, and says so if it does.
        checks.expect(
            "announced-only[sim-churn]",
            counts["jet"]["surprise"] == 0,
            f"{counts['jet']['surprise']} surprise additions: horizon overflowed",
        )
        check_jet_equals_full(self.name, counts, checks)


def build(scale_name: str) -> Dict[str, object]:
    """The workloads by name, at one scale."""
    scale = SCALES[scale_name]
    made: Sequence[object] = (
        ReplayWorkload(
            "replay-steady",
            "Event-free Zipf replay: CT probe/insert and the CH kernel do all the "
            "work (the paper's Tables 1-2, Fig. 7); events, shard and sim do none.",
            scale, "steady_packets",
        ),
        ReplayWorkload(
            "replay-churn",
            "The same replay with evenly spaced remove/re-add events: CT invalidation, "
            "mirror rebuild and CH table updates dominate, the lookup kernel is small.",
            scale, "churn_packets", "churn_events",
        ),
        ShardedWorkload(
            "replay-sharded",
            "The CLI command with 2 forked workers over 4 shards: same dataplane as "
            "replay-steady plus memmap load, partition, fork, pickling and merge.",
            scale, "sharded_packets",
        ),
        SimWorkload(
            "Event-driven scenario with crashes and a flap storm: the same layers "
            "through their scalar API, under the event heap, faults and a live obs registry.",
            scale,
        ),
    )
    return {workload.name: workload for workload in made}
