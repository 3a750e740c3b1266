"""The benchmark's own tests, at ``--scale tiny``.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from bench import metrics, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = workloads.build("tiny")


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_changes_no_result_and_budget_sums_to_wall(name, tmp_path):
    workload = TINY[name]
    inputs = workload.make_inputs(3, tmp_path)
    for stack in workloads.STACKS:
        plain = workload.run(inputs, stack)
        tracer = tracing.Tracer(aggregated=workload.aggregated)
        traced = workload.run(inputs, stack, tracer)
        assert traced.counts == plain.counts
        assert tracer.total_self_ns() / 1e9 == pytest.approx(traced.wall_s, rel=0.01)
        layers = metrics.stack_layers(tracer, traced)
        declared = {n for n, _, _ in metrics.per_layer()}
        has_ct = stack != "concury"
        assert {f"{stack}.{t}" for t in layers if has_ct or not t.startswith("ct.")} <= declared


def test_output_checks_pass_on_every_workload(tmp_path):
    for workload in TINY.values():
        inputs = workload.make_inputs(5, tmp_path)
        counts = {s: workload.run(inputs, s).counts for s in workloads.STACKS}
        checks = workloads.Checks()
        workload.verify(inputs, counts, checks)
        assert checks.attempted > 0 and checks.failed == 0


def test_a_failed_check_sets_the_exit_status(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "EXPECTED_TRACKED", 0.5)
    code = run.main(
        ["--workload", "replay-steady", "--scale", "tiny", "--seconds", "0.1"]
    )
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and payload["failed"] == 1 and payload["correct"] is False


def test_role_table_and_proxy_transparency():
    assert tracing.role_of("ct", "get_batch_idx") == "probe"
    assert tracing.role_of("ct", "put") == "insert"
    assert tracing.role_of("ch", "lookup_with_safety_batch_idx") == "kernel"
    assert tracing.role_of("ch", "force_add_working") == "update"
    assert tracing.role_of("core", "remove_working_server") == "membership"
    assert tracing.role_of("ch", "renamed_method") == "other"

    from repro.core.jet import JETLoadBalancer

    tracer = tracing.Tracer()
    real = workloads.spec_for("jet").build(0)
    proxy = tracing.instrument(real, tracer)
    assert isinstance(proxy, JETLoadBalancer)
    assert type(real.ch).__name__ == "TableHRWHash"
    assert proxy.get_destination(12345) in proxy.working
    assert len(real.ct) == proxy.tracked_connections
    assert tracer.calls["dispatch"] == 1 and tracer.calls["probe"] == 1


def test_names_and_counts_fit_the_contract_limits():
    end_to_end = [n for n, _, _ in metrics.END_TO_END]
    per_layer = [n for n, _, _ in metrics.per_layer()]
    names = end_to_end + per_layer + list(TINY)
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(TINY) <= 8 and len(end_to_end) <= 16 and len(per_layer) <= 128
    assert "setup_s" in end_to_end


def test_seed_determines_the_inputs():
    one = workloads.make_trace(1, 50_000, 20_000)
    again = workloads.make_trace(1, 50_000, 20_000)
    other = workloads.make_trace(2, 50_000, 20_000)
    assert np.array_equal(one.packets, again.packets)
    assert np.array_equal(one.flow_keys, again.flow_keys)
    assert not np.array_equal(one.flow_keys[:100], other.flow_keys[:100])

    def victims(seed):
        return [apply.__self__.name for _, apply in workloads.churn_events(seed, 1000, 6)]

    assert victims(1) == victims(1) != victims(2)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_contract_lists_exactly_what_the_command_prints(trace, kind, capsys):
    code = run.main([
        "--workload", "replay-churn", "--scale", "tiny", "--seconds", "0.2",
        "--trace", str(trace),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(lines[-1])
    assert code == 0 and set(payload) == {"correct", "attempted", "failed", "metrics"}
    printed = {n: m["unit"] for n, m in payload["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in CONTRACT[kind]}
    by_name = {line.split()[0] for line in lines if not line.startswith(("#", "{"))}
    assert by_name == set(printed)
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.build("full"))
