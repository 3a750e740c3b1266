"""Ablation: CT eviction policy (LRU vs FIFO vs random).

The paper fixes LRU ("the effective least-recently-used policy"); this
ablation quantifies that design choice by running the Fig. 3 scenario
with each policy at an undersized table and comparing PCC violations.
LRU should be the safest policy for full CT (it keeps live connections);
for JET the policy matters much less because the table holds only the
unsafe minority.
"""

from benchmarks.reporting import record
from repro.ct import make_ct
from repro.experiments.report import format_table
from repro.experiments.scales import base_config, scale_name
from repro.sim.scenario import run_simulation

POLICIES = ("lru", "fifo", "random")


def run_policy_sweep():
    cfg = base_config().with_(update_rate_per_min=20.0, seed=4)
    ct_size = max(64, int(cfg.connection_rate * 0.25))
    rows = []
    outcome = {}
    for policy in POLICIES:
        common = cfg.with_(ct_capacity=ct_size, ct_policy=policy)
        full = run_simulation(common.with_(mode="full"))
        jet = run_simulation(common.with_(mode="jet"))
        outcome[policy] = (full.pcc_violations, jet.pcc_violations)
        rows.append(
            [policy, ct_size, full.pcc_violations, jet.pcc_violations,
             full.ct_evictions, jet.ct_evictions]
        )
    return rows, outcome


def run_ttl_sweep():
    """TTL (idle-timeout) vs unbounded: the 'ideal eviction' of Section 5
    approximated -- peak CT size should track *active* flows, not total.

    The timeout scales with the preset (30 s of the default 100 s run): a
    fixed 30 s is the whole smoke run, in which nothing ever idles out."""
    cfg = base_config().with_(update_rate_per_min=10.0, seed=6)
    ct_ttl = 0.3 * cfg.duration_s
    rows = []
    outcome = {}
    for mode in ("full", "jet"):
        unbounded = run_simulation(cfg.with_(mode=mode, ct_capacity=None))
        ttl = run_simulation(
            cfg.with_(mode=mode, ct_capacity=None, ct_policy="ttl", ct_ttl=ct_ttl)
        )
        outcome[mode] = (unbounded, ttl)
        rows.append(
            [mode, unbounded.peak_tracked, ttl.peak_tracked,
             unbounded.pcc_violations, ttl.pcc_violations]
        )
    return ct_ttl, rows, outcome


def test_ct_ttl_ablation():
    ct_ttl, rows, outcome = run_ttl_sweep()
    record(
        f"Ablation -- TTL (idle timeout {ct_ttl:g}s) vs unbounded CT [scale={scale_name()}]",
        format_table(
            ["mode", "peak (unbounded)", "peak (ttl)",
             "violations (unbounded)", "violations (ttl)"],
            rows,
        ),
    )
    for mode, (unbounded, ttl) in outcome.items():
        # Idle-timeout reclamation keeps the table near the active set.
        assert ttl.peak_tracked < unbounded.peak_tracked, mode
        # A TCP-timeout-scale TTL must not break live connections.
        assert ttl.pcc_violations <= unbounded.pcc_violations + 2, mode


def test_ct_items_fast_path():
    """Every CT's items() must agree with the peek() loop it replaces
    (invalidate_destination correctness), and the dict-backed tables must
    serve it without per-key peek() calls."""
    tables = {
        "unbounded": make_ct(None, "lru"),
        "lru": make_ct(64, "lru"),
        "fifo": make_ct(64, "fifo"),
        "random": make_ct(64, "random", seed=1),
        "ttl": make_ct(None, "ttl", ttl=1e9),
    }
    for name, ct in tables.items():
        for key in range(40):
            ct.put(key, f"s{key % 7}")
        via_items = sorted(ct.items())
        via_peek = sorted((key, ct.peek(key)) for key in ct)
        assert via_items == via_peek, name
        calls = []
        original_peek = ct.peek
        ct.peek = lambda key: (calls.append(key), original_peek(key))[1]
        list(ct.items())
        ct.peek = original_peek
        assert not calls, f"{name}: items() fell back to peek()"
        ct.invalidate_destination("s3")
        assert all(dest != "s3" for _, dest in ct.items()), name


def test_ct_eviction_policy_ablation():
    rows, outcome = run_policy_sweep()
    record(
        f"Ablation -- CT eviction policy at 25% table [scale={scale_name()}]",
        format_table(
            ["policy", "CT size", "full CT violations", "JET violations",
             "full evictions", "JET evictions"],
            rows,
        ),
    )
    # JET is at least as robust as full CT under every policy.
    for policy, (full_v, jet_v) in outcome.items():
        assert jet_v <= max(full_v, 1), policy
    # LRU for full CT is no worse than the non-recency policies.
    assert outcome["lru"][0] <= max(outcome["fifo"][0], outcome["random"][0], 1)
