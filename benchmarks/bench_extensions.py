"""Section 6 benchmark: batch backend changes and load-aware JET."""

import pytest

from benchmarks.conftest import published


@pytest.fixture(scope="module")
def section6():
    return published("extensions")


def test_section61_simultaneous_changes(section6):
    outcome, _rows = section6
    # JET must survive batch removals + batch horizon additions unscathed.
    assert outcome["pcc_violations"] == 0


def test_section63_load_aware_jet(section6):
    _outcome, rows = section6
    by = {r.mode: r for r in rows}
    # The paper's expectation: P2C saves >= ~50% of full CT's table...
    assert by["jet-p2c"].tracked_fraction <= 0.65
    # ... still costs more than plain JET ...
    assert by["jet-p2c"].tracked_fraction > by["jet"].tracked_fraction
    # ... and buys strictly better balance.
    assert by["jet-p2c"].max_oversubscription <= by["jet"].max_oversubscription
    # Bounded loads (Mirrokni et al., the other §6.3 direction): the
    # epsilon=0.1 cap is enforced at a fraction of P2C's tracking bill.
    assert by["jet-chbl"].max_oversubscription <= 1.1 + 0.02
    assert by["jet-chbl"].tracked_fraction < by["jet-p2c"].tracked_fraction
