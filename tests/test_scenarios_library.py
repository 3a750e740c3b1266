"""The shipped scenario library, the matrix experiment, and the CLI verbs.

Every library scenario must load strictly, carry a non-trivial envelope,
and pass that envelope at its shipped scale -- the library is executable
documentation, so a scenario that fails its own envelope is a bug in one
or the other.  The matrix/bench plumbing (``bench_section`` ->
``counted.check``) is exercised on synthetic payloads so regressions in
the gate itself fail fast.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.counted import check
from repro.experiments.scenario_matrix import bench_section, run_matrix
from repro.scenarios import (
    ScenarioError,
    load_all,
    load_scenario,
    run_compiled,
    run_scenario,
    scenario_names,
    scenario_path,
)

LIBRARY = load_all()


class TestLibraryShape:
    def test_at_least_six_scenarios(self):
        assert len(LIBRARY) >= 6

    def test_names_match_file_stems(self):
        for name in scenario_names():
            assert load_scenario(name).name == name

    def test_unknown_name_lists_available(self):
        with pytest.raises(ScenarioError) as err:
            scenario_path("no-such-scenario")
        assert "flash-crowd" in str(err.value)

    def test_every_scenario_has_description_and_envelope(self):
        for name, spec in LIBRARY.items():
            assert spec.description, name
            assert spec.envelope.bounds(), f"{name} ships without an envelope"

    def test_library_covers_the_production_situations(self):
        names = set(LIBRARY)
        assert {
            "flash-crowd",
            "rolling-deploy",
            "zone-failure",
            "multi-region-failover",
            "churn-storm",
            "heterogeneous-fleet",
        } <= names

    def test_shards_pinned_for_worker_invariance(self):
        for name, spec in LIBRARY.items():
            assert spec.shards >= 1, name


class TestLibraryEnvelopes:
    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_scenario_meets_its_own_envelope(self, name):
        report = run_scenario(LIBRARY[name])
        assert report.ok, report.render()


class TestMatrixBenchPlumbing:
    """``bench_section`` -> ``counted.check``: the equality gate, on a
    synthetic payload so a regression in the gate itself fails fast."""

    MATRIX = {
        "experiment": "scenario_matrix",
        "scale": "smoke",
        "scenarios": {
            "s1": {
                "native_mode": "jet",
                "seed": 1,
                "ok": True,
                "modes": {
                    "jet": {"ok": True, "margins": {"tracked_fraction": 0.2}},
                    "full": {"ok": True, "margins": {}},
                },
            }
        },
        "ok": True,
    }

    @classmethod
    def payload(cls, scale="smoke"):
        return copy.deepcopy(
            {"scale": scale, "scenarios": bench_section(cls.MATRIX)}
        )

    def test_bench_section_keeps_native_row_only(self):
        assert bench_section(self.MATRIX) == {
            "s1": {"ok": True, "margins": {"tracked_fraction": 0.2}}
        }

    def test_check_against_flags_envelope_violation(self):
        fresh = self.payload()
        fresh["scenarios"]["s1"]["ok"] = False
        # Flagged on its own account, with nothing recorded to compare to.
        assert check(fresh, {}) == ["scenarios.s1: native-mode envelope violated"]

    def test_check_against_flags_margin_collapse(self):
        # Any change of a margin, in either direction, not only a collapse.
        for margin in (0.05, 0.2 * (1 + 1e-6), 0.4, None):
            fresh = self.payload()
            fresh["scenarios"]["s1"]["margins"]["tracked_fraction"] = margin
            (failure,) = check(fresh, self.payload())
            assert failure.startswith("scenarios.s1.margins.tracked_fraction: ")
        fresh = self.payload()
        fresh["scenarios"]["s1"]["margins"]["tracked_fraction"] = 0.2 * (1 + 1e-12)
        assert check(fresh, self.payload()) == []

    def test_check_against_ignores_scale_mismatch_and_none_margins(self):
        fresh = self.payload("smoke")
        fresh["scenarios"]["s1"]["margins"]["tracked_fraction"] = 0.0001
        assert check(fresh, self.payload("paper")) == []
        fresh["scenarios"]["s1"]["margins"]["tracked_fraction"] = None
        assert check(fresh, copy.deepcopy(fresh)) == []


class TestMatrixSkips:
    """A comparison mode is skipped only when its stack cannot be built
    (a ``ValueError`` from the factory, the same for any ``workers``); an
    engine bug under a non-gating mode fails the run, it is not a skip."""

    @staticmethod
    def only(monkeypatch, name):
        import repro.scenarios

        monkeypatch.setattr(repro.scenarios, "load_all", lambda: {name: LIBRARY[name]})

    def test_inexpressible_mode_records_a_skip(self, monkeypatch):
        self.only(monkeypatch, "heterogeneous-fleet")  # weighted zones: no Concury
        payload = run_matrix("smoke", workers=2)
        archive = Path(__file__).resolve().parent.parent / "results" / "scenarios.json"
        committed = json.loads(archive.read_text())
        modes = payload["scenarios"]["heterogeneous-fleet"]["modes"]
        assert modes["concury"]["skipped"] and payload["ok"]
        assert modes == committed["scenarios"]["heterogeneous-fleet"]["modes"]

    def test_engine_error_propagates(self, monkeypatch):
        import repro.scenarios

        self.only(monkeypatch, "zone-failure")

        def run(compiled, **kwargs):
            if compiled.spec.mode == "full":
                raise TypeError("engine bug")
            return run_compiled(compiled, **kwargs)

        monkeypatch.setattr(repro.scenarios, "run_compiled", run)
        with pytest.raises(TypeError, match="engine bug"):
            run_matrix("smoke")


class TestScenarioCLI:
    def test_list_names_every_scenario(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_show_prints_spec_and_compilation(self, capsys):
        assert main(["scenario", "show", "zone-failure"]) == 0
        out = capsys.readouterr().out
        assert '"name": "zone-failure"' in out
        assert "# compiles to:" in out and "fault events" in out

    def test_run_judges_and_reports(self, tmp_path, capsys):
        json_out = str(tmp_path / "report.json")
        code = main(
            ["scenario", "run", "zone-failure", "--json-out", json_out]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "OK" in out
        payload = json.loads(open(json_out).read())
        assert payload["scenario"] == "zone-failure" and payload["ok"]

    def test_run_from_file_with_overrides(self, tmp_path, capsys):
        spec = {
            "name": "mini",
            "duration_s": 6,
            "fleet": {"servers": 10, "horizon": 2},
            "workload": {"connection_rate": 60},
        }
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(spec))
        code = main(
            ["scenario", "run", "--file", str(path), "--mode", "full", "--seed", "9"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[full]" in out and "seed=9" in out

    def test_run_without_source_is_an_error(self, capsys):
        # User input like any other: one ``repro: error:`` line, exit 2
        # (it used to be a bare SystemExit message with exit code 1).
        assert main(["scenario", "run"]) == 2
        assert capsys.readouterr().err.startswith("repro: error: ")

    def test_simulate_scenario_and_config_roundtrip(self, tmp_path, capsys):
        config_out = str(tmp_path / "cfg.json")
        assert (
            main(["simulate", "--scenario", "zone-failure", "--config-out", config_out])
            == 0
        )
        first = capsys.readouterr().out
        # The document carries the spec's pinned partition: no flag to
        # remember at replay.
        assert main(["simulate", "--config", config_out]) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_simulate_source_flags_are_exclusive(self, capsys):
        code = main(["simulate", "--scenario", "zone-failure", "--config", "x.json"])
        assert code == 2
        assert capsys.readouterr().err.startswith("repro: error: ")
