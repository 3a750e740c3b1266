"""CLI tests (direct invocation of repro.cli.main)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.mode == "jet"
        assert args.family == "anchor"
        # Chaos is opt-in: every fault rate defaults to zero.
        assert args.crash_rate == args.flap_rate == 0.0
        assert args.group_rate == args.unannounced_rate == 0.0

    def test_resilience_is_a_known_experiment(self):
        args = build_parser().parse_args(["experiment", "resilience", "--seed", "4"])
        assert args.name == "resilience"
        assert args.seed == 4


class TestCommands:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_simulate_runs(self, capsys):
        code = main(
            [
                "simulate", "--servers", "20", "--horizon", "2",
                "--rate", "100", "--duration", "5", "--update-rate", "6",
                "--downtime", "2",
            ]
        )
        assert code == 0
        assert "PCC violations" in capsys.readouterr().out

    def test_simulate_ttl_policy(self, capsys):
        code = main(
            [
                "simulate", "--servers", "20", "--horizon", "2",
                "--rate", "100", "--duration", "5", "--ct-policy", "ttl",
                "--ct-ttl", "3",
            ]
        )
        assert code == 0

    def test_simulate_with_chaos(self, capsys):
        code = main(
            [
                "simulate", "--family", "table", "--servers", "20",
                "--horizon", "2", "--rate", "100", "--duration", "8",
                "--update-rate", "0", "--crash-rate", "10",
                "--unannounced-rate", "10", "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults=" in out

    def test_trace_generate_info_replay_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "t.npz")
        assert (
            main(
                [
                    "trace", "generate", "zipf", "--skew", "1.0",
                    "--packets", "20000", "--out", out,
                ]
            )
            == 0
        )
        assert main(["trace", "info", out]) == 0
        assert (
            main(
                [
                    "trace", "replay", out, "--family", "anchor",
                    "--mode", "jet", "--servers", "10", "--horizon", "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "tracked=" in output

    def test_trace_replay_sharded_matches_single(self, tmp_path, capsys):
        out = str(tmp_path / "t.npz")
        main(["trace", "generate", "zipf", "--packets", "20000", "--out", out])
        base = ["trace", "replay", out, "--family", "table", "--mode", "jet",
                "--servers", "10", "--horizon", "2"]
        assert main(base) == 0
        single = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        sharded = capsys.readouterr().out
        assert "shards=2 workers=2" in sharded
        # Same tracked/violations figures as the single-process replay.
        for token in single.split():
            if token.startswith(("tracked=", "violations=", "oversub=")):
                assert token in sharded

    def test_trace_replay_jet_p2c(self, tmp_path, capsys):
        # --mode offers every registry name; the shard recipe must build
        # each (was: ValueError "unknown mode 'jet-p2c'").  SYN-aware, so
        # the scalar loop runs; stable across --workers for fixed shards.
        out = str(tmp_path / "t.npz")
        main(["trace", "generate", "zipf", "--packets", "20000", "--out", out])
        capsys.readouterr()
        base = ["trace", "replay", out, "--family", "table", "--mode", "jet-p2c",
                "--servers", "10", "--horizon", "2"]

        def figures(argv):
            assert main(argv) == 0
            return [
                token for token in capsys.readouterr().out.split()
                if token.startswith(("tracked=", "violations=", "oversub="))
            ]

        single = figures(base)
        assert len(single) == 3 and "violations=0" in single
        assert "tracked=0" not in single  # off-CH placements are tracked
        one = figures(base + ["--workers", "1", "--shards", "2"])
        assert figures(base + ["--workers", "2", "--shards", "2"]) == one
        assert main(base[:3] + ["--family", "maglev", "--mode", "jet-p2c"]) == 2
        assert "maglev has no horizon" in capsys.readouterr().err

    def test_trace_replay_default_is_columnar_and_matches_scalar(
        self, tmp_path, capsys, monkeypatch
    ):
        import importlib

        from repro.shard import BalancerSpec
        from repro.traces import load_trace, replay

        # The package re-exports the function under the module's name.
        replay_module = importlib.import_module("repro.traces.replay")
        out = str(tmp_path / "t.npz")
        main(["trace", "generate", "zipf", "--packets", "20000", "--out", out])
        capsys.readouterr()
        columnar_runs = []
        columnar = replay_module._replay_columnar
        monkeypatch.setattr(
            replay_module,
            "_replay_columnar",
            lambda *args: columnar_runs.append(1) or columnar(*args),
        )
        assert main(["trace", "replay", out, "--family", "table", "--mode", "full",
                     "--servers", "10", "--horizon", "2"]) == 0
        printed = capsys.readouterr().out
        assert columnar_runs == [1]
        spec = BalancerSpec.fleet(
            mode="full", family="table", n_servers=10, horizon_size=2, seed=0
        )
        with load_trace(out) as trace:
            scalar = replay(trace, spec.build(0))
        for token in scalar.row().split():
            if token.startswith(("tracked=", "violations=", "oversub=")):
                assert token in printed

    def test_simulate_sharded_runs(self, capsys):
        code = main(
            [
                "simulate", "--servers", "20", "--horizon", "2",
                "--rate", "100", "--duration", "5", "--update-rate", "6",
                "--workers", "2",
            ]
        )
        assert code == 0
        assert "flows=" in capsys.readouterr().out

    def test_trace_replay_maglev_full(self, tmp_path, capsys):
        out = str(tmp_path / "t.npz")
        main(["trace", "generate", "zipf", "--packets", "10000", "--out", out])
        assert (
            main(["trace", "replay", out, "--family", "maglev", "--mode", "full"])
            == 0
        )

    def test_experiment_theory_smoke(self, capsys):
        assert main(["experiment", "theory"]) == 0
        assert "Theorem 4.2" in capsys.readouterr().out


#: ``trace replay`` flags a user can get wrong -> the one error line.
HOSTILE_REPLAY_FLAGS = {
    "zero-workers": (["--workers", "0"], "--workers must be >= 1, got 0"),
    "zero-shards": (["--shards", "0"], "--shards must be >= 1, got 0"),
    "zero-servers": (["--servers", "0"], "--servers must be >= 1, got 0"),
    "negative-horizon": (["--horizon", "-1"], "--horizon must be >= 0, got -1"),
    "jet-maglev": (["--family", "maglev"], "maglev has no horizon"),
    "sharded-jet-maglev": (["--family", "maglev", "--workers", "2"],
                           "maglev has no horizon"),
    "concury-in-concury": (["--mode", "concury", "--family", "concury"],
                           "mode 'concury' places flowsets with one of"),
}


class TestHostileReplayFlags:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("trace") / "t.npz")
        assert main(["trace", "generate", "zipf", "--packets", "2000", "--out", path]) == 0
        return path

    @pytest.mark.parametrize("case", sorted(HOSTILE_REPLAY_FLAGS))
    def test_one_error_line_and_exit_2(self, case, trace_path, capsys):
        flags, fragment = HOSTILE_REPLAY_FLAGS[case]
        capsys.readouterr()
        code = main(["trace", "replay", trace_path, *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: error: ") and fragment in line, line


#: ``trace generate`` arguments a user can get wrong -> the one error line.
HOSTILE_GENERATE_FLAGS = {
    "zero-packets": (["zipf", "--packets", "0"], "--packets must be >= 1, got 0"),
    "negative-skew": (["zipf", "--skew", "-1"], "--skew must be >= 0, got -1.0"),
    "zero-population": (["zipf", "--packets", "100", "--population", "0"],
                        "--population must be >= 1, got 0"),
    "zero-trace-scale": (["uni1", "--trace-scale", "0"],
                         "--trace-scale must be > 0, got 0.0"),
    "negative-trace-scale": (["ny18", "--trace-scale", "-1"],
                             "--trace-scale must be > 0, got -1.0"),
}


class TestHostileGenerateFlags:
    @pytest.mark.parametrize("case", sorted(HOSTILE_GENERATE_FLAGS))
    def test_one_error_line_and_exit_2(self, case, tmp_path, capsys):
        flags, fragment = HOSTILE_GENERATE_FLAGS[case]
        out = tmp_path / "t.npz"
        code = main(["trace", "generate", *flags, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: error: ") and fragment in line, line
        assert not out.exists()

    def test_tiny_zipf_gets_one_flow(self, capsys):
        assert main(["trace", "generate", "zipf", "--packets", "3"]) == 0
        assert "1 flows" in capsys.readouterr().out
