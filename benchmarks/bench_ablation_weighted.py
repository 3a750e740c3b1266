"""Ablation: weighted consistent hashing (heterogeneous backends).

Extension beyond the paper's uniform-server evaluation: JET over
weight-proportional rendezvous hashing (``HRWHash(..., weights=...)``).
Verifies that (a) dispatch shares follow the weights, and (b) the
tracking probability generalizes from Theorem 4.2's |H|/(|W|+|H|) to
weight(H)/weight(W ∪ H).
"""

import pytest

from benchmarks.reporting import record
from repro.ch.properties import sample_keys
from repro.ch import HRWHash
from repro.experiments.report import format_table

KEYS = sample_keys(40_000, seed=202)


def run_weighted_sweep():
    rows = []
    results = {}
    for horizon_weight in (0.5, 1.0, 2.0, 4.0):
        working = {f"s{i}": 1.0 + (i % 3) for i in range(12)}  # weights 1..3
        ch = HRWHash(working, ["h0"], weights={**working, "h0": horizon_weight})
        tracked = sum(ch.lookup_with_safety(k)[1] for k in KEYS) / len(KEYS)
        predicted = horizon_weight / (sum(working.values()) + horizon_weight)
        heaviest = max(working, key=working.get)
        share = sum(ch.lookup(k) == heaviest for k in KEYS) / len(KEYS)
        share_predicted = working[heaviest] / sum(working.values())
        results[horizon_weight] = (tracked, predicted, share, share_predicted)
        rows.append(
            [horizon_weight, f"{tracked:.4f}", f"{predicted:.4f}",
             f"{share:.4f}", f"{share_predicted:.4f}"]
        )
    return rows, results


def test_weighted_jet_tracking():
    rows, results = run_weighted_sweep()
    record(
        "Ablation -- weighted HRW under JET",
        format_table(
            ["horizon weight", "tracked", "predicted w(H)/w(W∪H)",
             "heaviest share", "predicted share"],
            rows,
        ),
    )
    for tracked, predicted, share, share_predicted in results.values():
        assert tracked == pytest.approx(predicted, rel=0.2)
        assert share == pytest.approx(share_predicted, rel=0.1)
