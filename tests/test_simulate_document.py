"""``repro simulate`` is one run of one scenario document.

The flags lower to the document (:func:`repro.cli._flags_document`), the
document compiles to the ``SimulationConfig`` the flags used to build by
hand, ``--config-out`` writes the document and ``--config`` reads it back
with no flag to remember, and anything hostile in a document or a flag
value is one ``repro: error:`` line and exit code 2.
"""

import json

import pytest

from repro.cli import _flags_document, build_parser, main
from repro.faults import FaultSchedule
from repro.scenarios import ScenarioSpec, compile_scenario, fingerprint, run_engine
from repro.sim.distributions import Exponential, LogNormal
from repro.sim.scenario import SimulationConfig, run_simulation
from repro.sim.workload import RateProfile

PLAIN = ["--servers", "30", "--horizon", "3", "--rate", "200", "--duration", "10",
         "--update-rate", "10", "--ct-size", "50"]
CHAOS = ["--family", "table", "--servers", "40", "--horizon", "4", "--rate", "200",
         "--duration", "10", "--update-rate", "0", "--crash-rate", "6",
         "--flap-rate", "4", "--group-rate", "3", "--group-size", "4",
         "--unannounced-rate", "6", "--seed", "5"]
CONTROL = ["--control", "--servers", "20", "--horizon", "8", "--rate", "300",
           "--duration", "12", "--update-rate", "0", "--flow-duration", "3",
           "--flash-crowd", "4", "3", "2", "--lead-time", "4", "--seed", "3"]
TTL = ["--servers", "30", "--horizon", "3", "--rate", "200", "--duration", "10",
       "--ct-policy", "ttl", "--ct-ttl", "5", "--ct-size", "40", "--seed", "4"]
DOWNTIME = ["--servers", "30", "--horizon", "3", "--rate", "200", "--duration", "10",
            "--downtime", "3", "--probation-base", "2", "--crash-rate", "8",
            "--seed", "4"]


def hand_built_config(args) -> SimulationConfig:
    """The ``SimulationConfig(...)`` call ``cli._simulate`` made from its
    flags before they lowered to the document (kept here as the
    reference the lowering is checked against)."""
    rates = {
        "crash_rate_per_min": args.crash_rate,
        "flap_rate_per_min": args.flap_rate,
        "group_rate_per_min": args.group_rate,
        "unannounced_rate_per_min": args.unannounced_rate,
        "probe_loss_rate_per_min": args.probe_loss_rate,
        "stale_autoscaler_rate_per_min": args.stale_autoscaler_rate,
    }
    fault_schedule = None
    if any(rate > 0 for rate in rates.values()):
        fault_schedule = FaultSchedule.generate(
            args.duration, seed=args.seed, group_size=args.group_size, **rates
        )
    rate_profile = None
    if args.flash_crowd is not None:
        start, ramp, magnitude = args.flash_crowd
        rate_profile = RateProfile.flash_crowd(
            start=start, ramp_s=ramp, magnitude=magnitude, hold_s=args.flash_hold
        )
    return SimulationConfig(
        duration_s=args.duration,
        connection_rate=args.rate,
        n_servers=args.servers,
        horizon_size=args.horizon,
        update_rate_per_min=args.update_rate,
        ct_capacity=args.ct_size,
        ct_policy=args.ct_policy,
        ct_ttl=args.ct_ttl,
        mode=args.mode,
        ch_family=args.family,
        seed=args.seed,
        duration_dist=(
            Exponential(args.flow_duration) if args.flow_duration is not None else None
        ),
        downtime_dist=LogNormal(median=args.downtime, sigma=0.8),
        fault_schedule=fault_schedule,
        probation_base_s=args.probation_base,
        control=args.control,
        control_interval_s=args.control_interval,
        scale_lead_time_s=args.lead_time,
        forecast_precision=args.forecast_precision,
        forecast_recall=args.forecast_recall,
        autoscale_max=args.autoscale_max,
        probe_fail_threshold=args.probe_fail_threshold,
        probe_recover_threshold=args.probe_recover_threshold,
        probe_loss_probability=args.probe_loss,
        rate_profile=rate_profile,
    )


class TestFlagsLowerToTheDocument:
    @pytest.mark.parametrize(
        "flags", [PLAIN, CHAOS, CONTROL, TTL, DOWNTIME],
        ids=["plain", "chaos", "control", "ttl", "downtime"],
    )
    def test_same_run_as_the_hand_built_config(self, flags):
        args = build_parser().parse_args(["simulate", *flags])
        expected = hand_built_config(args)
        spec = ScenarioSpec.parse(_flags_document(args), "simulate")
        compiled = compile_scenario(spec)
        assert compiled.shards == 0  # no --workers/--shards: one engine
        if expected.fault_schedule is not None:
            assert list(compiled.config.fault_schedule) == list(expected.fault_schedule)
        assert fingerprint(run_engine(compiled)) == fingerprint(run_simulation(expected))

    def test_workers_pin_the_partition_they_implied(self):
        args = build_parser().parse_args(["simulate", "--workers", "3"])
        assert _flags_document(args)["shards"] == 3


def summary_line(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()[-1]


class TestConfigOutRoundTrip:
    @pytest.mark.parametrize(
        "flags", [PLAIN, PLAIN + ["--shards", "3"], CHAOS, CONTROL],
        ids=["unsharded", "shards3", "chaos", "control"],
    )
    def test_config_replays_with_no_extra_flag(self, flags, tmp_path, capsys):
        path = str(tmp_path / "d.json")
        first = summary_line(capsys, ["simulate", *flags, "--config-out", path])
        assert summary_line(capsys, ["simulate", "--config", path]) == first
        # The file is a scenario document: it parses, and is a fixpoint.
        written = json.loads(open(path).read())
        assert ScenarioSpec.parse(written).to_dict() == written

    def test_scenario_run_writes_the_overridden_document(self, tmp_path, capsys):
        path = str(tmp_path / "d.json")
        assert main(["scenario", "run", "zone-failure", "--seed", "9", "--duration",
                     "20", "--config-out", path]) == 0
        judged = capsys.readouterr().out
        written = json.loads(open(path).read())
        assert written["seed"] == 9 and written["duration_s"] == 20.0
        assert summary_line(capsys, ["simulate", "--config", path]) in judged


def write(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    return str(path)


GOOD = {
    "name": "t",
    "duration_s": 5,
    "fleet": {"servers": 8, "horizon": 2},
    "workload": {"connection_rate": 50},
}


def doc(**changes):
    return json.dumps({**GOOD, **changes})


#: (what goes in the file, a fragment the one error line must contain).
HOSTILE_DOCUMENTS = {
    "truncated": ('{"name": "t", "duration_s"', "invalid JSON"),
    "non-object-root": ("[1, 2]", "expected a table/object, got list"),
    "wrong-type": (doc(fleet={"servers": "many", "horizon": 2}),
                   ".fleet.servers: expected int, got str"),
    "unknown-field": (doc(flet={}), "unknown field(s) ['flet']"),
    "unknown-fault-field": (
        doc(timeline=[{"kind": "chaos", "crash_rate_per_min": 1, "blast": 2}]),
        ".timeline[0]: unknown field(s) ['blast']"),
    "unknown-ct-policy": (doc(ct_policy="bogus"), ".ct_policy: expected one of"),
    "unknown-ch-family": (doc(ch_family="bogus"), ".ch_family: expected one of"),
    "ttl-without-its-policy": (doc(ct_policy="fifo", ct_ttl=3),
                               '.ct_ttl: an idle timeout needs ct_policy "ttl"'),
    "negative-rate": (doc(workload={"connection_rate": -5}),
                      ".workload.connection_rate: must be positive, got -5"),
    "old-format": (json.dumps({"format": "repro-simulation-config/1", "n_servers": 3}),
                   "--config-out"),
    # Was: a traceback from the factory, exit code 1.
    "unbuildable-stack": (doc(mode="concury", ch_family="concury"),
                          ".ch_family: mode 'concury' places flowsets with one of"),
    # Was: accepted, and the weights silently dropped by AnchorHash.
    "unread-zone-weight": (
        doc(ch_family="anchor", fleet={"horizon": 2, "zones": [
            {"name": "big", "servers": 4, "weight": 3.0}, {"name": "std", "servers": 4}]}),
        ".fleet.zones[0].weight: ch_family 'anchor' cannot weight servers"),
    # Was: named "scenario 't'" instead of the file, unlike every other
    # field error of the document.
    "unknown-zone": (doc(timeline=[{"kind": "zone_failure", "at": 1, "zone": "nope"}]),
                     ".timeline[0].zone: unknown zone 'nope'"),
    # Distribution tables.  Were: ZeroDivisionError / AttributeError
    # tracebacks, a NaN mean that ran with no flows (exit 0), and a
    # negative weight that bent the mixture's CDF.
    "zero-mixture-weights": (
        doc(workload={"connection_rate": 50, "flow_size": {"kind": "mixture", "components": [
            [0, {"kind": "constant", "value": 2}], [0.0, {"kind": "constant", "value": 3}]]}}),
        ".workload.flow_size: bad distribution parameters: mixture weights must not all be zero"),
    "component-not-a-pair": (
        doc(workload={"connection_rate": 50, "flow_size": {"kind": "mixture", "components": [
            {"kind": "constant", "value": 2}]}}),
        ".workload.flow_size: bad distribution parameters: component 0 must be a [weight, table]"),
    "component-not-a-table": (
        doc(workload={"connection_rate": 50, "flow_size": {"kind": "mixture", "components": [
            [1, 5]]}}),
        ".workload.flow_size: bad distribution parameters: expected a distribution table, got 5"),
    "negative-mixture-weight": (
        doc(workload={"connection_rate": 50, "flow_duration": {"kind": "mixture", "components": [
            [-1, {"kind": "exponential", "mean": 1}], [2, {"kind": "exponential", "mean": 3}]]}}),
        ".workload.flow_duration: bad distribution parameters: component 0 weight must be "
        "non-negative, got -1"),
    "nan-mean": (
        doc(workload={"connection_rate": 50,
                      "flow_duration": {"kind": "exponential", "mean": float("nan")}}),
        ".workload.flow_duration: bad distribution parameters: mean must be finite, got nan"),
    "infinite-pareto-bound": (
        doc(workload={"connection_rate": 50, "flow_size": {
            "kind": "bounded_pareto", "alpha": 1.5, "minimum": 1, "maximum": float("inf")}}),
        ".workload.flow_size: bad distribution parameters: maximum must be finite, got inf"),
    "infinite-rate": (doc(workload={"connection_rate": float("inf")}),
                      ".workload.connection_rate: must be finite, got inf"),
    # Was: accepted, and run with the base above the 60 s probation cap
    # (with faults, a ValueError traceback from HealthMonitor).
    "probation-base-above-cap": (doc(probation_base_s=100),
                                 ".probation_base_s: must be in [0, 60.0]"),
    "nan-rate-profile": (
        doc(workload={"connection_rate": 50,
                      "rate_profile": {"kind": "diurnal", "period_s": float("nan")}}),
        ".workload.rate_profile: bad rate-profile parameters: period_s must be finite, got nan"),
}


def assert_clean_error(capsys, code, *fragments):
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("repro: error: "), line
    for fragment in fragments:
        assert fragment in line, line


class TestHostileInput:
    @pytest.mark.parametrize("case", sorted(HOSTILE_DOCUMENTS))
    @pytest.mark.parametrize(
        "argv", [["simulate", "--config"], ["scenario", "run", "--file"]],
        ids=["simulate", "scenario-run"],
    )
    def test_bad_document_is_one_error_line(self, case, argv, tmp_path, capsys):
        text, fragment = HOSTILE_DOCUMENTS[case]
        path = write(tmp_path, text)
        # A field path is prefixed with the file it came from.
        prefixed = path + fragment if fragment.startswith(".") else path
        assert_clean_error(capsys, main([*argv, path]), prefixed, fragment)

    def test_missing_file_and_directory(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert_clean_error(capsys, main(["simulate", "--config", missing]), missing)
        assert_clean_error(
            capsys, main(["simulate", "--config", str(tmp_path)]), str(tmp_path)
        )
        assert_clean_error(
            capsys, main(["scenario", "run", "--file", missing]), missing
        )

    def test_unknown_library_scenario(self, capsys):
        code = main(["scenario", "run", "no-such-name"])
        assert_clean_error(capsys, code, "scenario 'no-such-name': not in the library")

    @pytest.mark.parametrize("command", ["run", "show"])
    def test_scenario_with_neither_name_nor_file(self, command, capsys):
        # Was: SystemExit with the bare message, exit code 1.
        code = main(["scenario", command])
        assert_clean_error(capsys, code, "give a scenario name or --file PATH")

    @pytest.mark.parametrize(
        "flags, fragment",
        [
            (["--servers", "0"], "simulate.fleet.servers: must be positive, got 0"),
            (["--rate", "-5"], "simulate.workload.connection_rate: must be positive"),
            (["--control", "--probe-loss", "7"],
             "simulate.control.probe_loss_probability: must be in [0, 1]"),
            (["--control", "--forecast-recall", "2"],
             "simulate.control.forecast_recall: must be in [0, 1]"),
            (["--crash-rate", "-1"],
             "simulate.timeline[0].crash_rate_per_min: must be non-negative"),
            (["--downtime", "0"], "simulate.downtime: bad distribution parameters"),
            (["--shards", "-1"], ".shards: must be non-negative, got -1"),
            # Was: accepted, and printed what the run prints without it.
            (["--ct-ttl", "3"], 'simulate.ct_ttl: an idle timeout needs ct_policy "ttl"'),
            # Was: SystemExit with the bare message, exit code 1.
            (["--scenario", "churn-storm", "--config", "d.json"],
             "--scenario and --config are mutually exclusive"),
            # Was: a traceback from the factory, exit code 1.
            (["--mode", "concury", "--family", "concury", "--duration", "2"],
             "simulate.ch_family: mode 'concury' places flowsets with one of"),
            # Was: a ValueError traceback from HealthMonitor, exit code 1.
            (["--probation-base", "100", "--crash-rate", "30"],
             "simulate.probation_base_s: must be in [0, 60.0]"),
        ],
    )
    def test_flag_values_are_range_checked(self, flags, fragment, capsys):
        assert_clean_error(capsys, main(["simulate", *flags]), fragment)

    def test_scenario_run_override_is_checked(self, capsys):
        # Was: a traceback from the factory, exit code 1.
        code = main(["scenario", "run", "heterogeneous-fleet", "--mode", "concury",
                     "--duration", "2"])
        assert_clean_error(
            capsys, code, "scenario 'heterogeneous-fleet'.fleet.zones[0].weight: mode 'concury'"
        )

    def test_anything_else_still_raises(self):
        # Only user input is turned into an error line.
        with pytest.raises(ValueError, match="n_workers"):
            main(["simulate", "--duration", "2", "--workers", "0", "--shards", "2"])
