"""Ablation: table-based HRW row budget (copies per server).

Section 5: table CH needs "a large memory footprint" (more rows) for
good balance -- the design tension JET exploits, since a smaller CT
leaves more cache for the CH table.  Measures balance and the unsafe-row
fraction across row budgets.
"""

import pytest

from benchmarks.reporting import record
from repro.analysis import max_oversubscription
from repro.ch import TableHRWHash, rows_for
from repro.ch.properties import balance_counts, sample_keys
from repro.experiments.report import format_table

N, H_SIZE = 50, 5
WORKING = [f"s{i}" for i in range(N)]
HORIZON = [f"t{i}" for i in range(H_SIZE)]
KEYS = sample_keys(40_000, seed=77)
COPIES = (1, 10, 100, 300)


def run_row_sweep():
    rows = []
    oversub_by_copies = {}
    tr_by_copies = {}
    for copies in COPIES:
        ch = TableHRWHash(WORKING, HORIZON, rows=rows_for(N, copies=copies))
        oversub = max_oversubscription(balance_counts(ch, KEYS))
        tr = ch.tracked_row_fraction()
        oversub_by_copies[copies] = oversub
        tr_by_copies[copies] = tr
        rows.append([copies, ch.rows, f"{oversub:.3f}", f"{tr:.3f}"])
    return rows, oversub_by_copies, tr_by_copies


def test_table_rows_ablation():
    rows, oversub, tr = run_row_sweep()
    record(
        "Ablation -- table-HRW copies per server",
        format_table(["copies", "rows", "max oversub", "unsafe-row fraction"], rows),
    )
    # More rows => better balance (monotone within noise).
    assert oversub[300] < oversub[10]
    assert oversub[300] < oversub[1]
    # The unsafe-row fraction stays ~|H|/(|W|+|H|) regardless of sizing --
    # the one-Boolean-per-row overhead buys the same tracking economy.
    for copies in COPIES[1:]:
        assert tr[copies] == pytest.approx(H_SIZE / (N + H_SIZE), rel=0.35)
