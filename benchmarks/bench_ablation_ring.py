"""Ablation: Ring virtual-node count (the Section 5 memory/balance knob).

The paper notes "a typical choice for the number of virtual copies is
100-300" and that more copies improve balance at the cost of memory and
search complexity.  This ablation measures max oversubscription and
ring entries across vnode counts.
"""

from benchmarks.reporting import record
from repro.analysis import max_oversubscription
from repro.ch import RingHash
from repro.ch.properties import balance_counts, sample_keys
from repro.experiments.report import format_table

N = 50
WORKING = [f"s{i}" for i in range(N)]
KEYS = sample_keys(40_000, seed=55)
VNODE_COUNTS = (1, 10, 50, 100, 300)


def run_vnode_sweep():
    rows = []
    oversub_by_vnodes = {}
    for vnodes in VNODE_COUNTS:
        ch = RingHash(WORKING, virtual_nodes=vnodes)
        counts = balance_counts(ch, KEYS)
        oversub = max_oversubscription(counts)
        oversub_by_vnodes[vnodes] = oversub
        rows.append([vnodes, N * vnodes, f"{oversub:.3f}"])
    return rows, oversub_by_vnodes


def test_ring_vnode_ablation():
    rows, oversub = run_vnode_sweep()
    record(
        "Ablation -- Ring virtual nodes (balance vs ring entries)",
        format_table(["vnodes", "ring entries", "max oversub"], rows),
    )
    # The paper's rationale: more copies => materially better balance.
    assert oversub[300] < oversub[10] < oversub[1]
    # The paper's 100-300 sweet spot is close to random-quality balance.
    assert oversub[300] < 1.5
