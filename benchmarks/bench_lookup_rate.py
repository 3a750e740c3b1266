"""Lookup-rate micro-benchmarks (the "rate" axis of Tables 1-2 / Fig. 7).

Times the per-packet dispatch path of each LB configuration over a hot
key stream.  These are the Python analogue of the paper's pkt/sec
columns; absolute numbers are interpreter-bound (see EXPERIMENTS.md),
the *relative* JET-vs-full-CT effects of table size still show.

These use real pytest-benchmark rounds (they are microseconds-scale).
"""

from pathlib import Path

import numpy as np
import pytest

from benchmarks import reporting
from repro.ch import rows_for
from repro.ch.properties import sample_keys
from repro.core import make_ch, make_full_ct, make_jet

N, H_SIZE = 50, 5
WORKING = [f"s{i}" for i in range(N)]
HORIZON = [f"t{i}" for i in range(H_SIZE)]
KEYS = sample_keys(20_000, seed=101)
KEYS_ARR = np.array(KEYS, dtype=np.uint64)


def _ch_kwargs(family):
    if family == "table":
        return {"rows": rows_for(N)}
    if family == "anchor":
        return {"capacity": 2 * (N + H_SIZE)}
    return {}


def _drive(lb):
    get = lb.get_destination
    for k in KEYS:
        get(k)
    return lb


@pytest.mark.parametrize("family", ["hrw", "ring", "table", "anchor"])
def test_jet_lookup_rate(benchmark, family):
    lb = make_jet(family, WORKING, HORIZON, **_ch_kwargs(family))
    _drive(lb)  # warm the CT with the unsafe keys
    benchmark(_drive, lb)


@pytest.mark.parametrize("family", ["table", "anchor", "maglev"])
def test_full_ct_lookup_rate(benchmark, family):
    if family == "maglev":
        lb = make_full_ct(family, WORKING, table_size=65537)
    else:
        lb = make_full_ct(family, WORKING, HORIZON, **_ch_kwargs(family))
    _drive(lb)  # warm: every key tracked
    benchmark(_drive, lb)


def test_ct_miss_path_rate(benchmark):
    """JET's common case: CT miss followed by a CH computation."""
    lb = make_jet("table", WORKING, HORIZON, rows=rows_for(N))

    def misses():
        get = lb.get_destination
        for k in KEYS:
            get(k + 1)  # perturbed keys: never tracked (safe rows dominate)

    benchmark(misses)


def _make_ch(family):
    if family == "maglev":
        return make_ch(family, WORKING, table_size=65537)
    return make_ch(family, WORKING, HORIZON, **_ch_kwargs(family))


@pytest.mark.parametrize("family", ["hrw", "ring", "table", "anchor", "jump", "modulo"])
def test_ch_scalar_safety_rate(benchmark, family):
    """Scalar reference: one lookup_with_safety call per key."""
    ch = _make_ch(family)

    def scalar():
        lookup = ch.lookup_with_safety
        for k in KEYS:
            lookup(k)

    benchmark(scalar)


@pytest.mark.parametrize("family", ["hrw", "ring", "table", "anchor", "jump", "modulo"])
def test_ch_idx_safety_rate(benchmark, family):
    """Columnar dataplane: the same keys in one
    lookup_with_safety_batch_idx call -- every family carries a real
    numpy kernel (searchsorted gathers for ring, active-mask wandering
    for anchor, argmax weights for hrw, table gathers for table-HRW);
    the pairing with the scalar case above is what makes the speedup
    visible in the timing table."""
    ch = _make_ch(family)
    benchmark(ch.lookup_with_safety_batch_idx, KEYS_ARR)


def test_ch_scalar_maglev_rate(benchmark):
    """Scalar Maglev reference (no safety variant, Section 3.6)."""
    ch = _make_ch("maglev")

    def scalar():
        lookup = ch.lookup
        for k in KEYS:
            lookup(k)

    benchmark(scalar)


def test_ch_idx_maglev_rate(benchmark):
    """Maglev's index kernel: one fancy-indexed row gather per batch."""
    ch = _make_ch("maglev")
    benchmark(ch.lookup_batch_idx, KEYS_ARR)


@pytest.mark.parametrize("family", ["hrw", "ring", "table", "anchor"])
def test_jet_idx_dispatch_rate(benchmark, family):
    """Full LB columnar path: CT id probe + index CH kernel + batch insert."""
    lb = make_jet(family, WORKING, HORIZON, **_ch_kwargs(family))
    lb.get_destinations_batch_idx(KEYS_ARR)  # warm the CT with the unsafe keys
    benchmark(lb.get_destinations_batch_idx, KEYS_ARR)


def test_full_ct_maglev_idx_dispatch_rate(benchmark):
    """The PR 2 regression case: full-CT over Maglev rides the int32
    table kernel instead of paying batch bookkeeping for a scalar loop."""
    lb = make_full_ct("maglev", WORKING, table_size=65537)
    lb.get_destinations_batch_idx(KEYS_ARR)  # warm: every key tracked
    benchmark(lb.get_destinations_batch_idx, KEYS_ARR)


def test_dataplane_speedup_report(once, batch_sizes):
    """Run the throughput experiment's CH sweep and publish the
    machine-readable speedup artifact (BENCH_dataplane.json).  Pass
    ``--batch-sizes 256,10000`` to sweep batch sizes (one JSON row per
    family per size)."""
    from repro.experiments import throughput

    sizes = batch_sizes or [throughput.BATCH_SIZE]
    payload = once(throughput.run_throughput, "smoke", 1, sizes)
    path = Path(__file__).resolve().parents[1] / "BENCH_dataplane.json"
    throughput.write_json(payload, str(path))
    reporting.record("columnar dataplane speedups", throughput.format_report(payload))
