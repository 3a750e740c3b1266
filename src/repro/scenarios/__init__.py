"""repro.scenarios: a declarative production scenario library.

A scenario is a named, versioned description of a production situation
-- fleet shape, workload, membership/chaos timeline -- plus an
*expected envelope* stating what the paper's theory predicts for it.
Specs (:mod:`.spec`) compile (:mod:`.compile`) into the existing
simulation stack unchanged; :mod:`.run` executes them and judges the
envelope, whose bounds :func:`repro.obs.invariants.check` reads as they
are; :mod:`.library` ships the named scenarios (``repro scenario list``).
"""

from repro.scenarios.compile import (
    CompiledScenario,
    build_fault_schedule,
    compile_scenario,
)
from repro.scenarios.library import (
    library_dir,
    load_all,
    load_scenario,
    scenario_names,
    scenario_path,
)
from repro.scenarios.run import (
    ScenarioReport,
    fingerprint,
    run_compiled,
    run_engine,
    run_scenario,
)
from repro.scenarios.spec import (
    ControlSpec,
    EnvelopeSpec,
    FleetSpec,
    ScenarioError,
    ScenarioSpec,
    TimelineEvent,
    WorkloadSpec,
    ZoneSpec,
    load_file,
    loads,
)

__all__ = [
    "CompiledScenario",
    "ControlSpec",
    "EnvelopeSpec",
    "FleetSpec",
    "ScenarioError",
    "ScenarioReport",
    "ScenarioSpec",
    "TimelineEvent",
    "WorkloadSpec",
    "ZoneSpec",
    "build_fault_schedule",
    "compile_scenario",
    "fingerprint",
    "library_dir",
    "load_all",
    "load_file",
    "load_scenario",
    "loads",
    "run_compiled",
    "run_engine",
    "run_scenario",
    "scenario_names",
    "scenario_path",
]
