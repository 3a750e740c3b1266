"""Section 6.2 benchmark: LB pool changes.

Asserts the paper's three claims: pool changes break PCC without state
synchronization (for JET and full CT alike), synchronization eliminates
the breakage, and JET's synchronized state is ~|H|/(|W|+|H|) of full CT's.
"""

from benchmarks.conftest import published


def test_section62_lb_pool_changes():
    rows = published("lbpool")
    by = {(r.mode, r.sync): r for r in rows}
    # Unsynced pool changes break connections -- JET and full CT alike.
    assert by[("jet", False)].pcc_violations > 0
    assert by[("jet", False)].pcc_violations == by[("full", False)].pcc_violations
    # Synchronization restores PCC.
    assert by[("jet", True)].pcc_violations == 0
    assert by[("full", True)].pcc_violations == 0
    # JET's sync bill is an order of magnitude smaller.
    ratio = by[("jet", True)].synced_entries / by[("full", True)].synced_entries
    assert ratio < 0.2
