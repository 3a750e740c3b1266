"""The kernel sheet: each CH family and the unbounded CT, called directly.

Reported with ``replay-steady``.  It is the sheet ROADMAP's
tier-collapse and single-store-CT items are held to; its ``table`` and
``concury`` rows should track ``S.ch.kernel_ns_per_key`` of the traced
replay, which is how a reader checks the proxy budget against a direct
measurement.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import numpy as np

from repro.ct import UnboundedCT

from bench.metrics import SHEET_CT_SIZES, SHEET_FAMILIES
from bench.workloads import spec_for

BATCH = 32_768
SCALAR_KEYS = 2_048
REPEATS = 5


def _best_ns(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    """Fastest of a few calls: the kernel's cost with the least interference."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        best = min(best, time.perf_counter_ns() - start)
    return best


def _ch(family: str):
    spec = spec_for("concury") if family == "concury" else spec_for("stateless", family)
    return spec.build(0).ch


def measure(seed: int, scale: float = 1.0) -> Dict[str, float]:
    """Every sheet metric; ``scale`` < 1 shrinks the CT sizes for tests."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(1, 1 << 63, size=BATCH, dtype=np.uint64)
    scalar_keys = keys[:SCALAR_KEYS].tolist()
    values: Dict[str, float] = {}
    for family in SHEET_FAMILIES:
        ch = _ch(family)
        lookup = ch.lookup
        values[f"ch.{family}.idx_ns_per_key"] = (
            _best_ns(lambda: ch.lookup_batch_idx(keys)) / BATCH
        )
        values[f"ch.{family}.scalar_us_per_key"] = (
            _best_ns(lambda: [lookup(k) for k in scalar_keys], repeats=2)
            / SCALAR_KEYS / 1e3
        )
    for label, resident in SHEET_CT_SIZES:
        resident = max(BATCH, int(resident * scale))
        hit, miss, insert = [], [], []
        for _ in range(3):
            # A fresh table per repeat: an insert batch is only new once.
            ct = UnboundedCT()
            stored = rng.integers(1, 1 << 62, size=resident, dtype=np.uint64)
            ct.put_batch_idx(stored, np.zeros(resident, dtype=np.int32))
            ct.get_batch_idx(stored[:1])  # builds the probe structure
            present = rng.choice(stored, size=BATCH)
            absent = rng.integers(1 << 62, 1 << 63, size=BATCH, dtype=np.uint64)
            ids = np.ones(BATCH, dtype=np.int32)
            hit.append(_best_ns(lambda: ct.get_batch_idx(present), repeats=3))
            miss.append(_best_ns(lambda: ct.get_batch_idx(absent), repeats=3))
            insert.append(_best_ns(lambda: ct.put_batch_idx(absent, ids), repeats=1))
        prefix = f"ct.unbounded.{label}"
        values[f"{prefix}.probe_hit_ns_per_key"] = min(hit) / BATCH
        values[f"{prefix}.probe_miss_ns_per_key"] = min(miss) / BATCH
        values[f"{prefix}.insert_ns_per_key"] = min(insert) / BATCH
    return values
