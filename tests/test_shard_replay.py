"""Sharded replay equals single-process replay -- the merge contract.

The property the whole sharded dataplane rests on: for any CH family and
LB mode, partitioning a trace over shards and merging the per-shard
results reproduces the single-process replay byte for byte -- metrics,
CT contents, invariant verdicts -- and the merged result is invariant to
how shards are spread over worker processes.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.obs import Registry
from repro.obs.invariants import check
from repro.shard import BalancerSpec, MembershipEvent, replay_sharded
from repro.shard.runner import fan_out
from repro.traces import replay_batch, zipf_trace
from repro.traces.replay import merge_replay_results

#: Every (mode, family) pair the CLI can build; JET and Concury need a
#: horizon, so maglev (horizonless, paper Section 3.6) only runs
#: full/stateless, and Concury cannot be its own inner family.
FAMILIES = ("hrw", "ring", "table", "anchor", "maglev", "jump", "modulo",
            "concury")
MODES = ("jet", "full", "stateless", "concury")
MATRIX = [
    (mode, family)
    for mode in MODES
    for family in FAMILIES
    if not (mode in ("jet", "concury") and family == "maglev")
    and not (mode == "concury" and family == "concury")
]

TIMING_FIELDS = ("rate_pps", "wall_seconds")


def small_trace(seed=3):
    return zipf_trace(skew=1.0, n_packets=6_000, population=1_200, seed=seed)


def assert_results_equal(a, b):
    for field in a.__dataclass_fields__:
        if field in TIMING_FIELDS:
            continue
        assert getattr(a, field) == getattr(b, field), field


def fleet(mode, family, **kwargs):
    return BalancerSpec.fleet(
        mode=mode, family=family, n_servers=10, horizon_size=2, seed=5, **kwargs
    )


class TestMergeEqualsSingle:
    @pytest.mark.parametrize("mode,family", MATRIX)
    def test_metrics_ct_and_verdicts_match(self, mode, family):
        trace = small_trace()
        spec = fleet(mode, family)

        single_registry = Registry()
        single_balancer = spec.build(0)
        single = replay_batch(trace, single_balancer, metrics=single_registry)
        single_registry.collect()

        merged_registry = Registry()
        sharded = replay_sharded(
            trace, spec, n_workers=1, n_shards=3,
            metrics=merged_registry, collect_tracked=True,
        )
        assert_results_equal(sharded.result, single)

        # CT contents: the union of per-shard tables is the single table.
        items = getattr(single_balancer, "tracked_items", None)
        if items is not None:
            union = {}
            for outcome in sharded.outcomes:
                assert not union.keys() & outcome.tracked_items.keys()
                union.update(outcome.tracked_items)
            assert union == items()

        # Invariant verdicts over the merged registry match byte for byte.
        single_verdicts = [v.to_json() for v in check(single_registry)]
        merged_verdicts = [v.to_json() for v in check(merged_registry)]
        assert merged_verdicts == single_verdicts

    def test_registry_counters_match_single(self):
        from repro.obs import metrics as m
        from repro.obs.collectors import CT_HITS, CT_INSERTS, CT_LOOKUPS

        trace = small_trace()
        spec = fleet("jet", "table")
        r_single, r_merged = Registry(), Registry()
        replay_batch(trace, spec.build(0), metrics=r_single)
        r_single.collect()
        replay_sharded(trace, spec, n_workers=1, n_shards=4, metrics=r_merged)
        for name in (
            m.FLOWS, m.TRACKED_FLOWS, m.OBSERVED_TRACKED_FRACTION,
            CT_LOOKUPS, CT_HITS, CT_INSERTS,
        ):
            assert r_merged.value(name) == r_single.value(name), name


class TestPrintedRow:
    def test_rate_is_packets_over_the_drivers_wall(self):
        # One timing figure: what the user waited for, on the result and
        # in the row alike.
        trace = small_trace()
        sharded = replay_sharded(trace, fleet("jet", "table"), n_shards=3)
        wall = sharded.end_to_end_seconds
        assert sharded.result.wall_seconds == wall
        assert sharded.result.rate_pps == trace.n_packets / wall
        assert f"rate={sharded.result.rate_pps / 1e6:.3f} Mpps" in sharded.row()
        assert f"wall={wall:.3f}s" in sharded.row()
        assert wall >= max(o.result.wall_seconds for o in sharded.outcomes)


class TestMembershipFanOut:
    def test_events_reach_every_shard(self):
        trace = small_trace(seed=9)
        spec = fleet("jet", "table")
        events = [
            MembershipEvent(500, "remove_working", "s0"),
            MembershipEvent(2_000, "add_working", "h0"),
            MembershipEvent(4_500, "remove_working", "s3"),
        ]
        single_balancer = fleet("jet", "table").build(0)
        single = replay_batch(
            trace, single_balancer, [(e.packet_index, e.apply) for e in events]
        )
        for n_shards in (2, 3, 5):
            sharded = replay_sharded(trace, spec, n_shards=n_shards, events=events)
            assert_results_equal(sharded.result, single)

    def test_trailing_event_state_is_rederived(self):
        # An event after nearly every packet: it trails most shards, yet
        # merged tracked/active/oversub must match the single run, which
        # applies it before finalizing.
        trace = small_trace(seed=4)
        spec = fleet("jet", "hrw")
        events = [MembershipEvent(trace.n_packets - 1, "remove_working", "s1")]
        single = replay_batch(
            trace, spec.build(0), [(e.packet_index, e.apply) for e in events]
        )
        sharded = replay_sharded(trace, spec, n_shards=4, events=events)
        assert_results_equal(sharded.result, single)

    def test_event_past_trace_end_never_fires(self):
        trace = small_trace(seed=4)
        spec = fleet("jet", "table")
        quiet = replay_sharded(trace, spec, n_shards=3)
        noisy = replay_sharded(
            trace, spec, n_shards=3,
            events=[MembershipEvent(trace.n_packets, "remove_working", "s0")],
        )
        assert_results_equal(noisy.result, quiet.result)


class TestMergeAlgebra:
    def test_merge_is_associative(self):
        trace = small_trace()
        spec = fleet("jet", "ring")
        results = [
            o.result for o in replay_sharded(trace, spec, n_shards=4).outcomes
        ]
        left = merge_replay_results(
            [merge_replay_results(results[:2]), merge_replay_results(results[2:])]
        )
        flat = merge_replay_results(results)
        assert_results_equal(left, flat)

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_replay_results([])


class TestWorkerCountStability:
    """Satellite: merged results are byte-stable in the worker count."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_workers_do_not_change_results(self):
        # random-evict bounded CT: every RNG draw flows from the shard
        # seed, so even eviction choices cannot depend on the process
        # layout or scheduling order.
        trace = small_trace(seed=8)
        spec = fleet("jet", "table", ct_capacity=64, ct_policy="random")
        runs = {
            workers: replay_sharded(
                trace, spec, n_workers=workers, n_shards=4, collect_tracked=True
            )
            for workers in (1, 2, 3)
        }
        baseline = runs[1]
        for workers in (2, 3):
            assert_results_equal(runs[workers].result, baseline.result)
            for mine, theirs in zip(runs[workers].outcomes, baseline.outcomes):
                assert mine.shard_id == theirs.shard_id
                assert_results_equal(mine.result, theirs.result)
                assert mine.tracked_items == theirs.tracked_items

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_concury_workers_do_not_change_results(self):
        # Concury has no CT and no shard-local randomness at all: every
        # shard builds the identical Othello map from the master seed, so
        # the merged result must be byte-stable in the worker count even
        # under mid-trace membership churn.
        trace = small_trace(seed=8)
        spec = fleet("concury", "table")
        events = [
            MembershipEvent(1_000, "remove_working", "s2"),
            MembershipEvent(3_500, "add_working", "h0"),
        ]
        runs = {
            workers: replay_sharded(
                trace, spec, n_workers=workers, n_shards=4, events=events
            )
            for workers in (1, 2, 3)
        }
        baseline = runs[1]
        for workers in (2, 3):
            assert_results_equal(runs[workers].result, baseline.result)
            for mine, theirs in zip(runs[workers].outcomes, baseline.outcomes):
                assert mine.shard_id == theirs.shard_id
                assert_results_equal(mine.result, theirs.result)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_forked_metrics_match_serial(self):
        trace = small_trace(seed=2)
        spec = fleet("jet", "anchor")
        serial, forked = Registry(), Registry()
        replay_sharded(trace, spec, n_workers=1, n_shards=2, metrics=serial)
        replay_sharded(trace, spec, n_workers=2, n_shards=2, metrics=forked)

        def series(registry):
            # Wall-clock histograms measure the host, not the workload.
            return [
                entry for entry in registry.dump_series()
                if entry["name"] != "repro_wall_seconds"
            ]

        assert series(forked) == series(serial)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_worker_failure_surfaces(self):
        trace = small_trace()

        def bad_factory(shard_id):
            raise RuntimeError("boom in worker")

        with pytest.raises(RuntimeError, match="boom in worker"):
            replay_sharded(trace, bad_factory, n_workers=2, n_shards=2)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
class TestWorkerDeath:
    """A SIGKILLed (or OOM-killed) worker never posts an error tuple; the
    parent has to notice the death itself instead of blocking forever."""

    @pytest.fixture(autouse=True)
    def hard_timeout(self):
        def expired(signum, frame):
            raise AssertionError("sharded driver hung on a dead worker")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(5)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def kill_self(shard_id):
        os.kill(os.getpid(), signal.SIGKILL)

    def test_replay_sharded_raises_when_a_worker_is_killed(self):
        # Shard 0 runs in the calling process (worker 0), shard 1 in the
        # one forked worker: only the forked one dies.
        build = fleet("jet", "table").build

        def factory(shard_id):
            if shard_id == 1:
                self.kill_self(shard_id)
            return build(shard_id)

        with pytest.raises(RuntimeError, match=r"worker 1 died \(exit code -9\)"):
            replay_sharded(small_trace(), factory, n_workers=2, n_shards=2)

    def test_fan_out_names_the_dead_worker_and_stops_the_rest(self):
        context = multiprocessing.get_context("fork")
        survivors, posted = context.SimpleQueue(), context.Event()

        def job(shard):
            # Shard 0 is the caller's and returns at once; shards 1 and 2
            # are forked workers 1 and 2.
            if shard == 1:
                posted.wait()
                self.kill_self(shard)
            if shard == 2:
                survivors.put(os.getpid())
                posted.set()
                time.sleep(60)  # terminated by the caller, not waited for
            return shard

        with pytest.raises(RuntimeError, match=r"worker 1 died \(exit code -9\)"):
            fan_out(job, n_shards=3, n_workers=3)
        with pytest.raises(ProcessLookupError):
            os.kill(survivors.get(), 0)

    def test_fan_out_orders_payloads_by_shard(self):
        assert fan_out(lambda shard: shard * shard, 5, 2) == [0, 1, 4, 9, 16]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
class TestOneBuildPerCall:
    """The stack is built once per ``replay_sharded`` call, in the caller;
    every shard gets its own copy with its own CT."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("n_shards", [1, 3, 8])
    def test_make_ch_runs_once_per_call(self, n_shards, n_workers, monkeypatch):
        from repro.core import factories

        # Shared memory, so a build in a forked worker would count too.
        builds = multiprocessing.get_context("fork").Value("i", 0)
        make_ch = factories.make_ch

        def counted(*args, **kwargs):
            with builds.get_lock():
                builds.value += 1
            return make_ch(*args, **kwargs)

        monkeypatch.setattr(factories, "make_ch", counted)
        trace, spec = small_trace(), fleet("jet", "table")
        replay_sharded(trace, spec, n_workers=n_workers, n_shards=n_shards)
        assert builds.value == 1
        replay_sharded(trace, spec, n_workers=n_workers, n_shards=n_shards)
        assert builds.value == 2  # nothing is cached across calls

    def test_copies_are_independent(self):
        import random

        from repro.shard import shard_seed

        spec = fleet("jet", "table", ct_capacity=64, ct_policy="random")
        build = spec.builder()
        copies = [build(shard) for shard in range(3)]
        assert len({id(copy.ct) for copy in copies}) == 3
        assert len({id(copy.ch) for copy in copies}) == 3
        for shard, copy in enumerate(copies):
            seeded = random.Random(shard_seed(spec.seed, shard))
            assert copy.ct._rng.getstate() == seeded.getstate()
        before = set(copies[1].working)
        MembershipEvent(0, "remove_working", "s0").apply(copies[0])
        assert "s0" not in copies[0].working
        assert set(copies[1].working) == before

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_bounded_copies_match_fresh_builds(self, policy, workers):
        # Bounded tables evict, and random eviction draws from the shard
        # seed: a copy must replay exactly like a freshly built shard.
        trace = small_trace(seed=8)
        spec = fleet("jet", "table", ct_capacity=64, ct_policy=policy)
        fresh = replay_sharded(
            trace, spec.build, n_workers=1, n_shards=4, collect_tracked=True
        )
        forked = replay_sharded(
            trace, spec, n_workers=workers, n_shards=4, collect_tracked=True
        )
        assert_results_equal(forked.result, fresh.result)
        for mine, theirs in zip(forked.outcomes, fresh.outcomes):
            assert mine.shard_id == theirs.shard_id
            assert_results_equal(mine.result, theirs.result)
            assert mine.tracked_items == theirs.tracked_items

    def test_a_worker_never_stalls_on_a_full_pipe(self):
        # Worker 1's first payload is far past a pipe's buffer; the
        # caller's own shard waits for worker 1 to start its next one.
        started = multiprocessing.get_context("fork").Event()

        def job(shard):
            if shard == 0:
                assert started.wait(timeout=5), "worker 1 stalled after its first shard"
            if shard == 3:
                started.set()
            return bytes(2 << 20) if shard == 1 else shard

        payloads = fan_out(job, n_shards=4, n_workers=2)
        assert [len(payloads[1]), payloads[0], payloads[2], payloads[3]] == [2 << 20, 0, 2, 3]


class TestValidation:
    def test_rejects_bad_counts(self):
        trace = small_trace()
        spec = fleet("jet", "table")
        with pytest.raises(ValueError):
            replay_sharded(trace, spec, n_workers=0)
        with pytest.raises(ValueError):
            replay_sharded(trace, spec, n_workers=1, n_shards=0)

    def test_jet_maglev_rejected_at_spec(self):
        with pytest.raises(ValueError, match="maglev"):
            fleet("jet", "maglev")
