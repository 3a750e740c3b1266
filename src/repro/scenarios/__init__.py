"""repro.scenarios: a declarative production scenario library.

A scenario is a named, versioned description of a production situation
-- fleet shape, workload, membership/chaos timeline -- plus an
*expected envelope* stating what the paper's theory predicts for it.
Specs (:mod:`.spec`) compile (:mod:`.compile`) into the existing
simulation stack unchanged; envelopes compile (:mod:`.envelope`) into
:mod:`repro.obs` invariant monitors; :mod:`.run` executes and judges;
:mod:`.library` ships the named scenarios (``repro scenario list``).
"""

from repro.scenarios.compile import (
    CompiledScenario,
    build_fault_schedule,
    compile_scenario,
)
from repro.scenarios.envelope import (
    BalanceCVMonitor,
    BreakageBoundMonitor,
    envelope_margins,
    envelope_monitors,
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
    "BalanceCVMonitor",
    "BreakageBoundMonitor",
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
    "envelope_margins",
    "envelope_monitors",
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
