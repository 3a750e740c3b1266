"""Run compiled scenarios and judge them against their envelopes.

``run_scenario`` is the one entry point: compile the spec, run it
through ``run_engine`` (the sharded simulation driver: ``--workers`` only
changes process fan-out, the keyspace partition is pinned by the spec),
:func:`repro.obs.invariants.check` the merged registry against the
spec's envelope, and return a
:class:`ScenarioReport` carrying the result, the verdicts, and the
headroom left inside each bound.  ``repro simulate`` is ``run_engine``
alone: the same run without the judging.

Byte-stability contract: everything in the report except wall-clock
timing is a pure function of (spec, seed, shards) -- the
:func:`fingerprint` helper hashes exactly that reproducible surface, and
the test suite asserts it is invariant across worker counts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.obs import invariants
# Bound by name here: the benchmark's traced sim-churn pass times the
# judging by patching ``repro.scenarios.run.evaluate_and_export``.
from repro.obs.invariants import MonitorResult, evaluate_and_export
from repro.obs.registry import Registry
from repro.scenarios.compile import CompiledScenario, compile_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.shard.runner import simulate_sharded
from repro.sim.metrics import SimResult
from repro.sim.scenario import run_simulation


@dataclass
class ScenarioReport:
    """Outcome of one scenario run."""

    scenario: str
    mode: str
    seed: int
    shards: int
    workers: int
    result: SimResult
    monitors: List[MonitorResult] = field(default_factory=list)
    #: Headroom inside each envelope bound (negative = violated,
    #: None = the check skipped at this scale).
    margins: Dict[str, Optional[float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violations(self) -> List[MonitorResult]:
        return invariants.violations(self.monitors)

    def render(self) -> str:
        status = "OK" if self.ok else "ENVELOPE VIOLATED"
        lines = [
            f"scenario {self.scenario} [{self.mode}] seed={self.seed} "
            f"shards={self.shards} workers={self.workers}: {status}",
            f"  {self.result.summary()}",
            invariants.render(self.monitors),
        ]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "seed": self.seed,
            "shards": self.shards,
            "workers": self.workers,
            "ok": self.ok,
            "result": self.result.to_json(),
            "monitors": [m.to_json() for m in self.monitors],
            "margins": self.margins,
        }


def fingerprint(result: SimResult) -> str:
    """A stable serialization of a result's reproducible surface.

    Wall-clock timing is the one field allowed to differ between
    otherwise identical runs, so it is excluded; everything else must be
    byte-identical across worker counts and repeat runs.
    """
    payload = asdict(result)
    payload.pop("wall_seconds", None)
    return json.dumps(payload, sort_keys=True)


def run_engine(
    compiled: CompiledScenario,
    workers: int = 1,
    registry: Optional[Registry] = None,
) -> SimResult:
    """The engine call a compiled scenario describes: its pinned flow
    partition through the sharded driver (``workers`` is process fan-out
    only), or -- ``shards: 0`` -- one engine on the master seed."""
    config = compiled.config.with_(registry=registry)
    if compiled.shards == 0:
        return run_simulation(config)
    return simulate_sharded(config, n_workers=workers, n_shards=compiled.shards)


def run_compiled(
    compiled: CompiledScenario,
    workers: int = 1,
    registry: Optional[Registry] = None,
) -> ScenarioReport:
    """Run an already-compiled scenario and judge it against its envelope
    (the compile/run split lets callers time or inspect the two apart)."""
    spec = compiled.spec
    own = registry if registry is not None else Registry()
    result = run_engine(compiled, workers=workers, registry=own)
    verdicts = evaluate_and_export(own, t=spec.duration_s, envelope=spec.envelope)
    return ScenarioReport(
        scenario=spec.name,
        mode=spec.mode,
        seed=spec.seed,
        shards=compiled.shards,
        workers=workers,
        result=result,
        monitors=verdicts,
        margins=invariants.margins(verdicts),
    )


def run_scenario(
    spec: ScenarioSpec,
    workers: int = 1,
    seed: Optional[int] = None,
    mode: Optional[str] = None,
    duration_s: Optional[float] = None,
    registry: Optional[Registry] = None,
) -> ScenarioReport:
    """Compile and run one scenario.

    ``seed``/``mode``/``duration_s`` override the spec (sweeps and smoke
    runs re-parameterize scenarios without editing files) through
    :meth:`ScenarioSpec.with_`, i.e. *before* compilation.
    """
    spec = spec.with_(seed=seed, mode=mode, duration_s=duration_s)
    return run_compiled(compile_scenario(spec), workers=workers, registry=registry)
