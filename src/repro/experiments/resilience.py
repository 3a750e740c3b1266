"""Resilience sweep: PCC under adversarial churn (the :mod:`repro.faults`
chaos model).

Two measurements, both bit-reproducible for a fixed ``--seed``:

1. **Mixed-fault sweep** -- JET vs full CT vs stateless under an
   escalating :func:`~repro.faults.events.chaos_mix` (crashes, flaps,
   correlated rack failures, unannounced additions).  The paper's claim
   under test: JET's violations track full CT's while its table stays
   ~``|H|/(|W|+|H|)`` of full CT's (Theorem 4.2 should survive churn it
   was never advertised for).

2. **§2.3 contract check** -- an *unannounced-addition-only* schedule.
   The §2.3 operational contract says PCC is guaranteed only for
   additions announced through the horizon; for a server that bypasses
   it, consistent hashing re-steers each active connection with
   probability ``1/(|W|+1)``, and the untracked (``1 - |H|/(|W|+|H|)``)
   share of those breaks.  The engine records that prediction at each
   force-add; here we compare it with the measured violations.  Measured
   counts run *below* the prediction by an observation factor: a broken
   connection is only detected when it sends another packet before
   ending (right-censoring), so the expected measured/predicted ratio
   sits in a workload-dependent band (~0.3-0.8 for the Hadoop-style
   workload) rather than at 1.0.  Full CT stays at ~0 (it tracks
   everything); stateless is the upper envelope.

Every scenario uses the Table-HRW family: this repo's AnchorHash hands a
force-added server the top *horizon-region* bucket, whose keys JET has
already tracked -- an implementation quirk that makes anchor immune to
unannounced additions and therefore useless for measuring the contract
violation.  Table-HRW re-steers ~``1/(|W|+1)`` of the key space like any
plain consistent hash, which is the behaviour §2.3 reasons about.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ch import rows_for
from repro.experiments.report import Experiment, format_table, run_module
from repro.experiments.scales import base_config, scale_name
from repro.faults import FaultSchedule, chaos_mix
from repro.scenarios.spec import EnvelopeSpec
from repro.sim.scenario import run_simulation

MODES = ("jet", "full", "stateless")
FAULT_RATES_PER_MIN = (0.0, 5.0, 10.0, 20.0, 40.0)
#: Tracked-fraction tolerance for the *chaos* metrics artifact.  Theorem
#: 4.2's |H|/(|W|+|H|) expectation assumes a static backend; under the
#: heavy mixed-fault schedule more arrivals are unsafe (crashed servers
#: shrink W, re-admissions churn the horizon), so the observed fraction
#: legitimately drifts above the static expectation.  The strict 10%
#: acceptance bar applies to the churn-polite default simulation, not
#: this adversarial run.
CHAOS_TRACKED_TOLERANCE = 0.35
#: Unannounced additions per minute for the §2.3 contract scenario.
CONTRACT_ADD_RATE = 24.0


def _chaos_base(scale: Optional[str], seed: int):
    cfg = base_config(scale).with_(seed=seed, update_rate_per_min=0.0)
    return cfg.with_(ch_family="table", ch_kwargs={"rows": rows_for(cfg.n_servers)})


def _result_row(mode: str, fault_rate: float, result) -> Dict:
    return {
        "mode": mode,
        "fault_rate_per_min": fault_rate,
        "flows_started": result.flows_started,
        "pcc_violations": result.pcc_violations,
        "violations_under_fault": result.violations_under_fault,
        "inevitably_broken": result.inevitably_broken,
        "fault_events": result.fault_events,
        "crashes": result.crashes,
        "flaps": result.flaps,
        "correlated_failures": result.correlated_failures,
        "unannounced_additions": result.unannounced_additions,
        "probation_readmissions": result.probation_readmissions,
        "surprise_additions": result.surprise_additions,
        # Horizon-fidelity attribution: under chaos, crashed servers
        # overflow the bounded horizon and lose their announcement, so
        # their recoveries land as surprises -- recall < 1 quantifies
        # exactly how much of the exposure was late-announced rather
        # than contract-honouring churn.
        "horizon_precision": result.horizon_precision,
        "horizon_recall": result.horizon_recall,
        "peak_tracked": result.peak_tracked,
        "ct_peak_size": result.ct_peak_size,
    }


def run_resilience_sweep(
    scale: Optional[str] = None,
    seed: int = 0,
    fault_rates=FAULT_RATES_PER_MIN,
) -> List[Dict]:
    """JET / full / stateless under an escalating mixed-fault chaos load."""
    cfg = _chaos_base(scale, seed)
    rows: List[Dict] = []
    for fault_rate in fault_rates:
        schedule = chaos_mix(cfg.duration_s, fault_rate, seed=seed)
        chaos_cfg = cfg.with_(fault_schedule=schedule)
        for mode in MODES:
            result = run_simulation(chaos_cfg.with_(mode=mode))
            rows.append(_result_row(mode, fault_rate, result))
    return rows


def run_contract_check(scale: Optional[str] = None, seed: int = 0) -> Dict:
    """Unannounced-addition-only chaos vs the §2.3 breakage prediction."""
    cfg = _chaos_base(scale, seed)
    # Double the window so most additions land at steady-state occupancy
    # (predictions during ramp-up are tiny and noisy).
    cfg = cfg.with_(duration_s=2 * cfg.duration_s)
    cfg = cfg.with_(
        fault_schedule=FaultSchedule.generate(
            cfg.duration_s, seed=seed, unannounced_rate_per_min=CONTRACT_ADD_RATE
        ),
    )
    h_fraction = cfg.horizon_size / (cfg.n_servers + cfg.horizon_size)
    outcome: Dict = {
        "unannounced_rate_per_min": CONTRACT_ADD_RATE,
        "horizon_fraction": h_fraction,
        "modes": {},
    }
    for mode in MODES:
        result = run_simulation(cfg.with_(mode=mode))
        raw = result.predicted_unannounced_breakage
        adjusted = raw * (1.0 - h_fraction)  # tracked share is CT-protected
        outcome["modes"][mode] = {
            "unannounced_additions": result.unannounced_additions,
            # Every chaos add bypasses the horizon, so recall directly
            # attributes the contract violation: proper/(proper+surprise).
            "horizon_recall": result.horizon_recall,
            "pcc_violations": result.pcc_violations,
            "violations_under_fault": result.violations_under_fault,
            "predicted_breakage_raw": raw,
            "predicted_breakage_adjusted": adjusted,
            "measured_over_predicted": (
                result.pcc_violations / adjusted if adjusted else 0.0
            ),
        }
    return outcome


def run_tracking_economy(
    scale: Optional[str] = None, seed: int = 0, registry=None
) -> Dict:
    """CT occupancy, JET vs full, under heavy chaos: Theorem 4.2's
    |H|/(|W|+|H|) bound should survive adversarial churn.

    ``registry`` (a :class:`repro.obs.Registry`) instruments the JET run;
    the invariant monitors then check the same claim from telemetry.
    """
    cfg = _chaos_base(scale, seed)
    heavy = FAULT_RATES_PER_MIN[-1]
    schedule = chaos_mix(cfg.duration_s, heavy, seed=seed)
    chaos_cfg = cfg.with_(fault_schedule=schedule)
    jet = run_simulation(chaos_cfg.with_(mode="jet", registry=registry))
    full = run_simulation(chaos_cfg.with_(mode="full"))
    expected = cfg.horizon_size / (cfg.n_servers + cfg.horizon_size)

    def steady_mean(result) -> float:
        # Skip the ramp-up: tracked counts only settle once flows do.
        series = result.tracked_series[len(result.tracked_series) // 3:]
        return sum(series) / len(series) if series else 0.0

    jet_mean, full_mean = steady_mean(jet), steady_mean(full)
    return {
        "fault_rate_per_min": heavy,
        "jet_peak_tracked": jet.peak_tracked,
        "full_peak_tracked": full.peak_tracked,
        "jet_ct_peak_size": jet.ct_peak_size,
        "full_ct_peak_size": full.ct_peak_size,
        "jet_mean_tracked": jet_mean,
        "full_mean_tracked": full_mean,
        "tracked_ratio": jet_mean / full_mean if full_mean else 0.0,
        "expected_fraction": expected,
    }


def build_payload(
    scale: Optional[str] = None, seed: int = 0, registry=None
) -> Dict:
    """Everything the resilience figure needs, as a JSON-stable payload
    (no wall-clock fields, so identical seeds emit identical bytes)."""
    resolved = scale_name(scale)
    return {
        "experiment": "resilience",
        "scale": resolved,
        "seed": seed,
        "fault_rates_per_min": list(FAULT_RATES_PER_MIN),
        "sweep": run_resilience_sweep(resolved, seed=seed),
        "contract_check": run_contract_check(resolved, seed=seed),
        "tracking_economy": run_tracking_economy(resolved, seed=seed, registry=registry),
    }


def _tables(payload: Dict) -> str:
    economy = payload["tracking_economy"]
    return "\n".join([
        format_table(
            [
                "mode", "faults/min", "violations", "under fault", "inevitable",
                "probation", "peak tracked", "ct peak",
            ],
            [
                [
                    r["mode"], r["fault_rate_per_min"], r["pcc_violations"],
                    r["violations_under_fault"], r["inevitably_broken"],
                    r["probation_readmissions"], r["peak_tracked"],
                    r["ct_peak_size"],
                ]
                for r in payload["sweep"]
            ],
        ),
        f"\ntracking under heavy chaos: JET mean {economy['jet_mean_tracked']:.0f} "
        f"vs full {economy['full_mean_tracked']:.0f} "
        f"(ratio {economy['tracked_ratio']:.3f}, "
        f"|H|/(|W|+|H|) = {economy['expected_fraction']:.3f})",
        "\n§2.3 contract check (unannounced additions only):",
        format_table(
            ["mode", "adds", "violations", "predicted (adj.)", "measured/predicted"],
            [
                [
                    mode, m["unannounced_additions"], m["pcc_violations"],
                    m["predicted_breakage_adjusted"], m["measured_over_predicted"],
                ]
                for mode, m in payload["contract_check"]["modes"].items()
            ],
        ),
    ])


RESILIENCE = Experiment(
    name="resilience", stem="resilience",
    title="Resilience under chaos [scale={scale} seed={seed}]",
    # The registry instruments the tracking-economy JET run.
    run=build_payload, tables=_tables, payload=lambda payload: payload,
    envelope=EnvelopeSpec(tracked_fraction_tolerance=CHAOS_TRACKED_TOLERANCE),
)


if __name__ == "__main__":
    raise SystemExit(run_module(__spec__.name))
