"""Partition/merge drivers: sharded replay and sharded simulation.

``replay_sharded`` is the multi-worker twin of
:func:`repro.traces.replay.replay_batch`: an RSS front stage partitions
the flow keyspace into ``n_shards`` (:mod:`repro.shard.partition`), each
shard replays its packet subsequence through its own copy of one
balancer built from a :class:`~repro.shard.spec.BalancerSpec`,
membership events fan out to every shard, and the per-shard
results/registries merge at the edge
(:func:`repro.traces.replay.merge_replay_results`,
:mod:`repro.obs.merge`).

Process model: ``fork`` (the plan, trace columns, and the pickled stack
are inherited by workers as copy-on-write pages -- a memmapped trace
costs nothing per worker; only the picklable :class:`ShardOutcome`
crosses back).  Shard ``s`` runs on worker ``s % n_workers``, and worker
0 is the calling process; because every shard's seeds and inputs are
pure functions of the shard id, the merged result is byte-identical for
any worker count (timing fields aside) -- ``n_workers=1`` forks nothing,
which is also the fallback where ``fork`` does not exist.

``simulate_sharded`` applies the same partition/merge shape to the
event-driven simulator: shard workloads are independent splitmix64
streams over ``1/N`` of the arrival rate, while the membership schedule
(engine seed) is replicated identically in every shard -- the
deterministic fan-out of control-plane events.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as wait_ready
from typing import Callable, List, Optional, Sequence, TypeVar, Union

from repro.core.interfaces import LoadBalancer
from repro.obs.timers import Stopwatch
from repro.shard.partition import shard_seed
from repro.shard.plan import ShardPlan
from repro.shard.spec import BalancerSpec
from repro.shard.worker import ShardOutcome, run_shard
from repro.traces.base import Trace
from repro.traces.replay import DEFAULT_CHUNK, ReplayResult, merge_replay_results

T = TypeVar("T")

#: A spec or any picklable/fork-inheritable ``shard_id -> balancer``.
Factory = Union[BalancerSpec, Callable[[int], LoadBalancer]]


@dataclass
class ShardedReplay:
    """A merged replay result plus the per-shard evidence behind it."""

    #: Merged as-if-unsharded result; ``wall_seconds`` is the driver's
    #: end-to-end wall, so ``rate_pps`` is the packets over it.
    result: ReplayResult
    outcomes: List[ShardOutcome]
    n_shards: int
    n_workers: int
    #: Wall clock of the whole driver: (build, given a spec) + partition +
    #: replay + merge.
    end_to_end_seconds: float

    def row(self) -> str:
        return (
            f"{self.result.row()} "
            f"[shards={self.n_shards} workers={self.n_workers} "
            f"wall={self.end_to_end_seconds:.3f}s]"
        )


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def replay_sharded(
    trace: Trace,
    spec: Factory,
    n_workers: int = 1,
    n_shards: Optional[int] = None,
    events: Sequence = (),
    chunk_size: int = DEFAULT_CHUNK,
    metrics=None,
    collect_tracked: bool = False,
) -> ShardedReplay:
    """Replay ``trace`` partitioned over shards, merging at the edge.

    ``n_shards`` defaults to ``n_workers``; fixing it higher decouples the
    partition from the process count (RSS indirection style), in which
    case the merged result is invariant to ``n_workers`` entirely.  A
    spec is built once, here, before any fork (``BalancerSpec.builder``).
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    n_shards = n_workers if n_shards is None else n_shards
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    want_metrics = metrics is not None

    watch = Stopwatch()
    factory = spec.builder() if isinstance(spec, BalancerSpec) else spec
    plan = ShardPlan.partition(trace, n_shards)

    def job(shard: int) -> ShardOutcome:
        return run_shard(
            plan, factory, shard,
            events=events, chunk_size=chunk_size,
            want_metrics=want_metrics, collect_tracked=collect_tracked,
        )

    outcomes = fan_out(job, n_shards, n_workers)
    merged = merge_replay_results([outcome.result for outcome in outcomes])
    if want_metrics:
        from repro.obs.merge import merge_into

        merge_into(metrics, [outcome.obs_series for outcome in outcomes])
    end_to_end = watch.stop()
    return ShardedReplay(
        result=replace(merged, wall_seconds=end_to_end),
        outcomes=outcomes,
        n_shards=n_shards,
        n_workers=n_workers,
        end_to_end_seconds=end_to_end,
    )


def fan_out(job: Callable[[int], T], n_shards: int, n_workers: int) -> List[T]:
    """``[job(0), ..., job(n_shards - 1)]``, shard ``s`` on worker ``s % N``.

    Worker 0 is the calling process: it forks workers ``1 .. N-1``, runs
    its own shards, then collects theirs.  Each forked worker has one
    pipe and sends once, after its last shard -- ``[(shard, payload),
    ...]``, or a formatted traceback if ``job`` raises -- so it never
    stalls on a full pipe while the caller is busy.  A worker whose pipe
    reaches end-of-file without a word was killed: once the caller's own
    shards are done, the rest are terminated and ``RuntimeError`` names
    the worker and its exit code.  The caller blocks on pipe readiness
    and never polls.  One worker (or no ``fork``) forks nothing.
    """
    n_workers = min(n_workers, n_shards) if _fork_available() else 1

    def work(worker_id: int, sender) -> None:
        try:
            mine = range(worker_id, n_shards, n_workers)
            sender.send(([(shard, job(shard)) for shard in mine], None))
        except Exception:
            sender.send((None, traceback.format_exc()))

    payloads: List[Optional[T]] = [None] * n_shards
    workers = {}  # read end -> (worker id, process)
    try:
        for worker_id in range(1, n_workers):
            context = multiprocessing.get_context("fork")
            reader, sender = context.Pipe(duplex=False)
            process = context.Process(target=work, args=(worker_id, sender), daemon=True)
            process.start()
            sender.close()  # the worker holds the only write end now
            workers[reader] = (worker_id, process)
        for shard in range(0, n_shards, n_workers):
            payloads[shard] = job(shard)
        while workers:
            for reader in wait_ready(list(workers)):
                worker_id, process = workers.pop(reader)
                try:
                    done, error = reader.recv()
                except (EOFError, OSError):  # gone without a word: killed
                    process.join()
                    raise RuntimeError(
                        f"shard worker {worker_id} died (exit code {process.exitcode})"
                    ) from None
                finally:
                    reader.close()
                process.join()
                if error is not None:
                    raise RuntimeError(f"shard worker {worker_id} failed:\n{error}")
                for shard, payload in done:
                    payloads[shard] = payload
    finally:
        for reader, (_, process) in workers.items():  # none left unless raising
            process.terminate()
            process.join()
            reader.close()
    return payloads  # type: ignore[return-value]


# --------------------------------------------------------------- simulate
def simulate_sharded(config, n_workers: int = 1, n_shards: Optional[int] = None):
    """Run the event-driven simulation partitioned over flow shards.

    Each shard simulates ``1/n_shards`` of the arrival rate with its own
    splitmix64-derived workload seed, against a full replica of the
    membership state machine: the engine's seed (removals, downtimes,
    control-plane randomness) stays the *master* seed in every shard, so
    backend events fan out deterministically and identically -- shards
    differ only in the flows they carry, mirroring the replay partition.

    Returns the merged :class:`~repro.sim.metrics.SimResult`; per-shard
    registries merge into ``config.registry`` when one is set.
    """
    from repro.sim.metrics import merge_sim_results

    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    n_shards = n_workers if n_shards is None else n_shards
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    registry = config.registry
    want_metrics = registry is not None

    base_arrival = config.arrival_rate
    shard_configs = []
    for shard in range(n_shards):
        changes = {
            "registry": None,
            "workload_seed": shard_seed(config.seed, shard),
            "connection_rate": config.connection_rate / n_shards,
        }
        if base_arrival is not None:
            changes["arrival_rate"] = base_arrival / n_shards
        shard_configs.append(config.with_(**changes))

    payloads = fan_out(
        lambda shard: _run_sim_shard(shard_configs[shard], want_metrics),
        n_shards, n_workers,
    )
    results = [result for result, _ in payloads]
    if want_metrics:
        from repro.obs.merge import merge_into

        merge_into(registry, [dump for _, dump in payloads])
    return merge_sim_results(results)


def _run_sim_shard(shard_config, want_metrics: bool):
    from repro.sim.scenario import run_simulation

    if want_metrics:
        from repro.obs.registry import Registry

        shard_registry = Registry()
        result = run_simulation(shard_config.with_(registry=shard_registry))
        return result, shard_registry.dump_series()
    return run_simulation(shard_config), []
