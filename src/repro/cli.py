"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiment``  publish one of the paper's tables/figures or beyond-paper
                checks (fig3, fig4, fig5, fig6, fig7, table1, table2,
                theory, extensions, lbpool, resilience, control-loop,
                frontier, all)
``simulate``    one event-driven run: explicit knobs (Section 5.1), a
                library scenario, or a saved scenario document
``scenario``    the declarative scenario library (list / show / run)
``trace``       generate / inspect / replay packet traces
``obs``         observability utilities (summarize a metrics artifact)
``version``     print package version

Examples::

    python -m repro experiment fig3 --scale smoke
    python -m repro simulate --mode jet --servers 120 --horizon 12 \
        --rate 1000 --duration 60 --update-rate 10 --ct-size 500
    python -m repro scenario run flash-crowd
    python -m repro simulate --scenario zone-failure --config-out run.json
    python -m repro simulate --config run.json
    python -m repro trace generate zipf --skew 1.1 --packets 500000 \
        --out /tmp/z11.npz
    python -m repro trace replay /tmp/z11.npz --family anchor --mode jet

``simulate --family`` / ``--mode`` and ``trace replay --family`` /
``--mode`` take the same names (:func:`repro.ch.family_choices`,
:func:`repro.core.factories.lb_mode_choices`), and a (mode, family) pair
builds on both or on neither: :func:`repro.core.factories.check_stack`
decides, and its refusal is the one error line below.

A simulation run has one serialised description, the scenario document
(:mod:`repro.scenarios.spec`): ``simulate``'s flags lower to one
(:func:`_flags_document`), ``--scenario`` and ``--config`` load one, all
three compile and run through the same call, and ``--config-out`` writes
the document back.  A malformed document or an out-of-range flag value is
a :class:`~repro.scenarios.ScenarioError`; :func:`main` prints it (and an
``OSError`` on a path the user named) as ``repro: error: <field path>:
<message>`` and returns 2, argparse's code.  ``trace generate`` and ``trace
replay`` report an out-of-range number, ``trace replay`` a fleet its
stack refuses to build, and ``trace info`` and ``trace replay`` a file
that is not a trace archive they can read
(:class:`~repro.traces.TraceFormatError`) the same way.  Nothing else is
caught.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _open_metrics(args: argparse.Namespace):
    """(registry, exporter) for ``--metrics-out``, or (None, None)."""
    if not getattr(args, "metrics_out", None):
        return None, None
    from repro.obs import JsonlExporter, Registry

    registry = Registry()
    exporter = JsonlExporter(args.metrics_out)
    registry.attach_exporter(exporter)
    return registry, exporter


def _close_metrics(registry, exporter, t: float = 0.0) -> None:
    """Final snapshot + invariants + Prometheus sibling, then report."""
    from repro.obs import evaluate_and_export, render, violations

    results = evaluate_and_export(registry, t=t, exporter=exporter)
    print("invariant monitors:")
    print(render(results))
    violated = violations(results)
    if violated:
        print(f"{len(violated)} invariant violation(s)")


def _experiment(args: argparse.Namespace) -> int:
    from repro.experiments.report import EXPERIMENTS, load, publish, takers

    # ``all`` passes each entry what it takes; one --metrics-out artifact
    # is one run's, so it needs one (instrumented) name.
    takes = ("seed",) if args.name == "all" else EXPERIMENTS[args.name][1]
    for what, flag, value in (
        ("seed", "--seed", args.seed), ("metrics", "--metrics-out", args.metrics_out),
    ):
        if value is not None and what not in takes:
            return _error(
                f"experiment {args.name} does not take {flag} (only {takers(what)} do)"
            )
    for name in EXPERIMENTS if args.name == "all" else [args.name]:
        publish(load(name), args.scale, args.seed or 0, args.metrics_out)
    return 0


def _resolve_scenario_spec(args: argparse.Namespace):
    """The spec named by ``--scenario NAME`` or a ``--file PATH``."""
    from repro.scenarios import ScenarioError, load_file, load_scenario

    if getattr(args, "file", None):
        return load_file(args.file)
    if not getattr(args, "name", None):
        raise ScenarioError("scenario", "give a scenario name or --file PATH")
    return load_scenario(args.name)


def _write_document(spec, path: Optional[str]) -> None:
    """``--config-out``: the effective scenario document, for ``--config``."""
    if not path:
        return
    with open(path, "w") as handle:
        json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"config: {path}")


def _flags_document(args: argparse.Namespace) -> dict:
    """The scenario document ``simulate``'s explicit knobs describe."""
    workload = {"connection_rate": args.rate}
    if args.flow_duration is not None:
        workload["flow_duration"] = {"kind": "exponential", "mean": args.flow_duration}
    if args.flash_crowd is not None:
        start, ramp, magnitude = args.flash_crowd
        workload["rate_profile"] = {
            "kind": "flash_crowd", "start": start, "ramp_s": ramp,
            "magnitude": magnitude, "hold_s": args.flash_hold,
        }
    elif args.diurnal is not None:
        workload["rate_profile"] = {
            "kind": "diurnal", "period_s": args.diurnal,
            "amplitude": args.diurnal_amplitude,
        }
    document = {
        "name": "simulate",
        "seed": args.seed,
        "duration_s": args.duration,
        "mode": args.mode,
        "ch_family": args.family,
        "ct_capacity": args.ct_size,
        "ct_policy": args.ct_policy,
        "ct_ttl": args.ct_ttl,
        "update_rate_per_min": args.update_rate,
        "downtime": {"kind": "lognormal", "median": args.downtime, "sigma": 0.8},
        "probation_base_s": args.probation_base,
        # No --workers/--shards: one engine on the master seed.
        "shards": args.workers if args.workers > 1 else 0,
        "fleet": {"servers": args.servers, "horizon": args.horizon},
        "workload": workload,
    }
    chaos = {
        f"{kind}_rate_per_min": rate
        for kind, rate in (
            ("crash", args.crash_rate), ("flap", args.flap_rate),
            ("group", args.group_rate), ("unannounced", args.unannounced_rate),
            ("probe_loss", args.probe_loss_rate),
            ("stale_autoscaler", args.stale_autoscaler_rate),
        )
        if rate
    }
    if chaos:
        document["timeline"] = [{"kind": "chaos", "group_size": args.group_size, **chaos}]
    if args.control:
        document["control"] = {
            "interval_s": args.control_interval,
            "lead_time_s": args.lead_time,
            "autoscale_max": args.autoscale_max,
            "forecast_precision": args.forecast_precision,
            "forecast_recall": args.forecast_recall,
            "probe_fail_threshold": args.probe_fail_threshold,
            "probe_recover_threshold": args.probe_recover_threshold,
            "probe_loss_probability": args.probe_loss,
        }
    return document


def _simulate(args: argparse.Namespace) -> int:
    """One run of the document the flags, ``--scenario NAME`` or ``--config
    PATH`` name, through the plain engine call (no envelope judging --
    that is ``repro scenario run``)."""
    from repro.scenarios import (
        ScenarioSpec, compile_scenario, load_file, load_scenario, run_engine,
    )

    if args.scenario and args.config:
        return _error("--scenario and --config are mutually exclusive")
    if args.scenario:
        spec = load_scenario(args.scenario)
    elif args.config:
        spec = load_file(args.config)
    else:
        spec = ScenarioSpec.parse(_flags_document(args), "simulate")
    spec = spec.with_(shards=args.shards)  # a run option; the document pins it
    _write_document(spec, args.config_out)
    registry, exporter = _open_metrics(args)
    result = run_engine(compile_scenario(spec), workers=args.workers, registry=registry)
    print(result.summary())
    if registry is not None:
        _close_metrics(registry, exporter, t=spec.duration_s)
    return 0


def _scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import compile_scenario, load_all, run_scenario

    if args.scenario_command == "list":
        for name, spec in load_all().items():
            marker = f" [{spec.mode}]" if spec.mode != "jet" else ""
            print(f"{name}{marker}: {spec.description}")
        return 0

    if args.scenario_command == "show":
        spec = _resolve_scenario_spec(args)
        compiled = compile_scenario(spec)
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        schedule = compiled.config.fault_schedule
        print(
            f"# compiles to: {compiled.config.n_servers} servers, "
            f"horizon {compiled.config.horizon_size}, "
            f"{len(schedule) if schedule is not None else 0} fault events, "
            f"{compiled.shards} shards"
            + (", closed-loop control" if compiled.config.control else "")
        )
        return 0

    # run
    spec = _resolve_scenario_spec(args).with_(
        seed=args.seed, mode=args.mode, duration_s=args.duration
    )
    _write_document(spec, args.config_out)
    registry, exporter = _open_metrics(args)
    report = run_scenario(spec, workers=args.workers, registry=registry)
    if exporter is not None:
        exporter.finish(registry)
    print(report.render())
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
        print(f"report: {args.json_out}")
    return 0 if report.ok else 1


def _trace(args: argparse.Namespace) -> int:
    from repro.traces import (
        load_trace, ny18_like, replay_batch, save_trace, uni1_like, zipf_trace,
    )

    if args.trace_command == "generate":
        for flag, value, bad, rule in (
            ("--packets", args.packets, args.packets < 1, ">= 1"),
            ("--population", args.population,
             args.population is not None and args.population < 1, ">= 1"),
            ("--skew", args.skew, not args.skew >= 0, ">= 0"),
            ("--trace-scale", args.trace_scale, not args.trace_scale > 0, "> 0"),
        ):
            if bad:
                return _error(f"{flag} must be {rule}, got {value}")
        if args.kind == "zipf":
            population = args.population
            if population is None:
                population = max(1, args.packets // 4)
            trace = zipf_trace(
                args.skew, n_packets=args.packets, population=population, seed=args.seed,
            )
        elif args.kind == "uni1":
            trace = uni1_like(scale=args.trace_scale, seed=args.seed)
        else:
            trace = ny18_like(scale=args.trace_scale, seed=args.seed)
        print(trace.describe())
        if args.out:
            save_trace(trace, args.out, compressed=not args.uncompressed)
            print(f"saved to {args.out}")
        return 0

    if args.trace_command == "info":
        trace = load_trace(args.path)
        print(trace.describe())
        histogram = sorted(trace.size_histogram().items())
        print(f"size histogram (first 10 of {len(histogram)}): {histogram[:10]}")
        return 0

    # replay
    from repro.shard import BalancerSpec, replay_sharded

    for flag, value, least in (
        ("--workers", args.workers, 1), ("--shards", args.shards, 1),
        ("--servers", args.servers, 1), ("--horizon", args.horizon, 0),
    ):
        if value is not None and value < least:
            return _error(f"{flag} must be >= {least}, got {value}")
    single = args.workers == 1 and args.shards is None
    try:
        spec = BalancerSpec.fleet(
            mode=args.mode,
            family=args.family,
            n_servers=args.servers,
            horizon_size=args.horizon,
            seed=args.seed,
        )
        # The call's one build, before any fork: a fleet the stack
        # refuses is the user's input, not a bug.
        stack = spec.build(0) if single else spec.builder()
    except ValueError as exc:
        return _error(str(exc))
    registry, exporter = _open_metrics(args)
    with load_trace(args.path, mmap=args.mmap) as trace:
        if single:
            outcome = replay_batch(trace, stack, metrics=registry)
            print(outcome.row())
            elapsed = outcome.wall_seconds
        else:
            sharded = replay_sharded(
                trace,
                stack,
                n_workers=args.workers,
                n_shards=args.shards,
                metrics=registry,
            )
            print(sharded.row())
            elapsed = sharded.end_to_end_seconds
    if registry is not None:
        _close_metrics(registry, exporter, t=elapsed)
    return 0


def _obs(args: argparse.Namespace) -> int:
    from repro.obs.summarize import main as summarize_main

    argv = [args.path]
    if args.strict:
        argv.append("--strict")
    return summarize_main(argv)


def _add_metrics_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write a JSONL metrics time series here "
                             "(plus a Prometheus .prom sibling)")


def build_parser() -> argparse.ArgumentParser:
    # Choices come from the registries, not hand-kept lists: registering
    # a CH family or LB mode is all it takes to appear in --family/--mode.
    from repro.ch import family_choices
    from repro.core.factories import lb_mode_choices
    from repro.ct import CT_POLICIES
    from repro.experiments.report import EXPERIMENTS, takers

    parser = argparse.ArgumentParser(
        prog="repro",
        description="JET (CoNEXT 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a paper table/figure")
    exp.add_argument("name", choices=[*EXPERIMENTS, "all"])
    exp.add_argument("--scale", choices=["smoke", "default", "paper"], default=None)
    exp.add_argument("--seed", type=int, default=None,
                     help=f"run seed, default 0 ({takers('seed')})")
    exp.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="JSONL metrics artifact of the instrumented runs, "
                          f"plus a Prometheus .prom sibling ({takers('metrics')})")
    exp.set_defaults(func=_experiment)

    sim = sub.add_parser("simulate", help="run one event-driven simulation")
    sim.add_argument("--scenario", default=None, metavar="NAME",
                     help="run a library scenario (ignores the explicit "
                          "knobs below; see 'repro scenario list')")
    sim.add_argument("--config", default=None, metavar="PATH",
                     help="run a scenario document, e.g. one saved with "
                          "--config-out (byte-identical reproduction; "
                          "ignores the explicit knobs below)")
    sim.add_argument("--config-out", default=None, metavar="PATH",
                     help="write the run's scenario document (what the "
                          "flags, --scenario or --config describe) as JSON")
    sim.add_argument("--mode", choices=lb_mode_choices(), default="jet",
                     help="LB wrapper; with --mode concury, --family names "
                          "the inner control-plane CH")
    sim.add_argument("--family", default="anchor", choices=family_choices())
    sim.add_argument("--servers", type=int, default=100)
    sim.add_argument("--horizon", type=int, default=10)
    sim.add_argument("--rate", type=float, default=1000.0,
                     help="nominal concurrent connections")
    sim.add_argument("--duration", type=float, default=60.0)
    sim.add_argument("--update-rate", type=float, default=10.0,
                     help="server removals per minute")
    sim.add_argument("--downtime", type=float, default=10.0,
                     help="median server downtime (seconds)")
    sim.add_argument("--ct-size", type=int, default=None)
    sim.add_argument("--ct-policy", choices=CT_POLICIES, default="lru")
    sim.add_argument("--ct-ttl", type=float, default=None)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--workers", type=int, default=1,
                     help="worker processes; flows are sharded, the "
                          "membership schedule replicates to every shard")
    sim.add_argument("--shards", type=int, default=None,
                     help="flow shards (default: what the document pins; "
                          "for the explicit knobs, --workers, or one "
                          "unsharded engine when that is 1)")
    # Chaos knobs (repro.faults) -- all default off.
    sim.add_argument("--crash-rate", type=float, default=0.0,
                     help="chaos crashes per minute")
    sim.add_argument("--flap-rate", type=float, default=0.0,
                     help="flap storms per minute")
    sim.add_argument("--group-rate", type=float, default=0.0,
                     help="correlated-group failures per minute")
    sim.add_argument("--group-size", type=int, default=3,
                     help="servers lost per correlated failure")
    sim.add_argument("--unannounced-rate", type=float, default=0.0,
                     help="unannounced (horizon-bypassing) additions per minute")
    sim.add_argument("--probation-base", type=float, default=1.0,
                     help="base probation backoff for repeat failures, 0 to 60 (s)")
    # Closed-loop control plane (repro.control) -- default off.
    sim.add_argument("--control", action="store_true",
                     help="run the closed loop: health-probed membership "
                          "plus an autoscaler whose pending launches ARE "
                          "the JET horizon")
    sim.add_argument("--control-interval", type=float, default=0.5,
                     help="control tick / probe interval (s)")
    sim.add_argument("--lead-time", type=float, default=5.0,
                     help="autoscaler launch lead time (s); also the "
                          "window a horizon announcement anticipates")
    sim.add_argument("--forecast-precision", type=float, default=1.0,
                     help="P(an announcement is real); below 1.0 the "
                          "autoscaler also emits phantom announcements")
    sim.add_argument("--forecast-recall", type=float, default=1.0,
                     help="P(a real launch was announced); below 1.0 some "
                          "joins arrive unannounced (surprise additions)")
    sim.add_argument("--autoscale-max", type=int, default=8,
                     help="cap on autoscaled servers beyond the baseline")
    sim.add_argument("--probe-fail-threshold", type=int, default=3,
                     help="consecutive failed probes before eviction")
    sim.add_argument("--probe-recover-threshold", type=int, default=2,
                     help="consecutive good probes before readmission")
    sim.add_argument("--probe-loss", type=float, default=0.0,
                     help="baseline probe loss probability")
    # Control-plane chaos (needs --control to have any effect).
    sim.add_argument("--probe-loss-rate", type=float, default=0.0,
                     help="probe-loss fault windows per minute")
    sim.add_argument("--stale-autoscaler-rate", type=float, default=0.0,
                     help="stale-autoscaler-signal windows per minute")
    # Time-varying workload.
    sim.add_argument("--flash-crowd", type=float, nargs=3, default=None,
                     metavar=("START", "RAMP", "MAGNITUDE"),
                     help="flash-crowd rate profile: ramp to MAGNITUDE x "
                          "baseline over RAMP seconds starting at START")
    sim.add_argument("--flash-hold", type=float, default=10.0,
                     help="seconds the flash crowd holds its peak")
    sim.add_argument("--diurnal", type=float, default=None, metavar="PERIOD",
                     help="diurnal sine rate profile with this period (s)")
    sim.add_argument("--diurnal-amplitude", type=float, default=0.5)
    sim.add_argument("--flow-duration", type=float, default=None,
                     help="mean of an exponential flow-duration dist "
                          "(default: the paper's Hadoop distribution)")
    _add_metrics_args(sim)
    sim.set_defaults(func=_simulate)

    scen = sub.add_parser("scenario", help="declarative scenario library")
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)

    scen_sub.add_parser("list", help="list library scenarios")

    def _add_scenario_source(p):
        p.add_argument("name", nargs="?", default=None,
                       help="library scenario name (see 'scenario list')")
        p.add_argument("--file", default=None, metavar="PATH",
                       help="load the spec from a .json/.toml file instead")

    show = scen_sub.add_parser("show", help="print a spec and its compilation")
    _add_scenario_source(show)

    run = scen_sub.add_parser(
        "run", help="compile, run, and judge a scenario against its envelope"
    )
    _add_scenario_source(run)
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes; the spec pins the shard "
                          "partition, so results are worker-invariant")
    run.add_argument("--seed", type=int, default=None,
                     help="override the spec's seed")
    run.add_argument("--mode", default=None,
                     help="override the spec's LB mode (e.g. full, concury)")
    run.add_argument("--duration", type=float, default=None,
                     help="override the spec's duration (seconds)")
    run.add_argument("--config-out", default=None, metavar="PATH",
                     help="write the effective scenario document (overrides "
                          "applied) as JSON, for 'simulate --config'")
    run.add_argument("--json-out", default=None, metavar="PATH",
                     help="write the full scenario report as JSON")
    _add_metrics_args(run)
    scen.set_defaults(func=_scenario)

    trace = sub.add_parser("trace", help="generate / inspect / replay traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    gen = trace_sub.add_parser("generate")
    gen.add_argument("kind", choices=["zipf", "uni1", "ny18"])
    gen.add_argument("--skew", type=float, default=1.0)
    gen.add_argument("--packets", type=int, default=1_000_000)
    gen.add_argument("--population", type=int, default=None)
    gen.add_argument("--trace-scale", type=float, default=0.05)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.add_argument("--uncompressed", action="store_true",
                     help="write an uncompressed archive (memmap-loadable "
                          "with replay --mmap)")

    info = trace_sub.add_parser("info")
    info.add_argument("path")

    rep = trace_sub.add_parser("replay")
    rep.add_argument("path")
    rep.add_argument("--family", default="anchor", choices=family_choices())
    rep.add_argument("--mode", choices=lb_mode_choices(), default="jet",
                     help="LB wrapper; with --mode concury, --family names "
                          "the inner control-plane CH")
    rep.add_argument("--servers", type=int, default=50)
    rep.add_argument("--horizon", type=int, default=5)
    rep.add_argument("--seed", type=int, default=0,
                     help="master seed; per-shard seeds derive from it")
    rep.add_argument("--workers", type=int, default=1,
                     help="worker processes for the sharded dataplane")
    rep.add_argument("--shards", type=int, default=None,
                     help="keyspace shards (default: --workers); fixing it "
                          "decouples the partition from the process count")
    rep.add_argument("--mmap", action="store_true",
                     help="memory-map the trace instead of loading it "
                          "(uncompressed archives only)")
    _add_metrics_args(rep)
    trace.set_defaults(func=_trace)

    obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    osum = obs_sub.add_parser("summarize", help="summarize a JSONL metrics artifact")
    osum.add_argument("path", help="metrics JSONL file written by --metrics-out")
    osum.add_argument("--strict", action="store_true",
                      help="exit 1 on any recorded invariant violation "
                           "or when no snapshot is final")
    obs.set_defaults(func=_obs)

    ver = sub.add_parser("version", help="print the package version")
    ver.set_defaults(func=lambda _args: (print(__import__("repro").__version__), 0)[1])

    return parser


def _error(message: str) -> int:
    """User input, not a bug: one line and argparse's exit code."""
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    from repro.scenarios import ScenarioError
    from repro.traces import TraceFormatError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, TraceFormatError) as exc:
        return _error(str(exc))
    except OSError as exc:
        if exc.filename is None:  # not about a path the user named
            raise
        return _error(f"{exc.filename}: {exc.strerror}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
