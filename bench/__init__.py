"""The repo's benchmark: four workloads, packets per second end to end,
and a proxy-traced per-layer budget.  See ``bench/README.md``.

The package measures :mod:`repro` only from outside -- public functions,
public attributes -- and owns every file it needs (scenario, tests,
history); ``BENCHMARK.json`` at the repo root is its contract.
"""
