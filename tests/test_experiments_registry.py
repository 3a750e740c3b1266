"""The experiment registry and its one publisher (``experiments/report.py``).

``repro experiment``, every module's ``__main__`` and ``benchmarks/`` all
go through the name -> module table, :func:`load` and :func:`publish`;
these tests pin that wiring, the exact stdout / archive shape of
``publish``, and the CLI's flag checks.
"""

import ast
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.experiments import report
from repro.experiments.report import (
    EXPERIMENTS, INSTRUMENTED, SCALED, Experiment, format_table, load, publish,
)
from repro.obs import PCCAccountingMonitor, load_jsonl

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(report, "RESULTS_DIR", tmp_path / "results")
    return tmp_path / "results"


def _experiment_choices():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    name = next(a for a in sub.choices["experiment"]._actions if a.dest == "name")
    return list(name.choices)


class TestTable:
    def test_parser_choices_are_the_table(self):
        assert _experiment_choices() == [*EXPERIMENTS, "all"]

    def test_cli_spells_no_experiment_name(self):
        tree = ast.parse((ROOT / "src/repro/cli.py").read_text())
        docstring = ast.get_docstring(tree, clean=False)
        literals = {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        } - {docstring}
        assert not literals & set(EXPERIMENTS)

    def test_every_name_loads_its_entry(self):
        for name, (_module, takes) in EXPERIMENTS.items():
            entry = load(name)
            assert (entry.name, entry.takes) == (name, takes)

    def test_build_parser_imports_no_experiment_module(self):
        code = (
            "import sys; from repro.cli import build_parser; build_parser(); "
            "print(*(m for m in sys.modules if m.startswith('repro.experiments.')))"
        )
        imported = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        ).stdout.split()
        assert "repro.experiments.report" in imported
        entry_modules = {f"repro.experiments.{module}" for module, _ in EXPERIMENTS.values()}
        assert not entry_modules & set(imported)

    def test_docs_list_every_name(self):
        readme = (ROOT / "README.md").read_text()
        block = readme[readme.index("## Reproducing the paper"):]
        block = block[:block.index("```", block.index("```bash") + 1)]
        for name in EXPERIMENTS:
            assert re.search(rf"repro experiment {name}\b", block), name
        assert all(name in cli.__doc__ for name in EXPERIMENTS)


def _stub(**overrides):
    fields = dict(
        name="stub", stem="stub", takes=SCALED,
        title="Stub -- a table [scale={scale}]",
        run=lambda scale: [["x", 1.5], ["y", 2]],
        tables=lambda rows: format_table(["key", "value"], rows) + "\nnote",
        payload=lambda rows: {"rows": rows},
    )
    return Experiment(**{**fields, **overrides})


class TestPublish:
    def test_stdout_and_archive(self, results_dir, capsys):
        publish(_stub(), "smoke")
        assert capsys.readouterr().out == (
            "=============================\n"
            "Stub -- a table [scale=smoke]\n"
            "=============================\n"
            "key  value\n"
            "---  -----\n"
            "  x  1.500\n"
            "  y      2\n"
            "note\n"
        )
        assert json.loads((results_dir / "stub.json").read_text()) == {
            "scale": "smoke", "rows": [["x", 1.5], ["y", 2]],
        }

    def test_entry_is_passed_only_what_it_takes(self, results_dir, capsys):
        publish(_stub(takes=(), title="Plain", run=lambda: []), "smoke", seed=7)
        assert capsys.readouterr().out.startswith("========\nPlain\n========\n")
        assert json.loads((results_dir / "stub.json").read_text()) == {"rows": []}

    def test_instrumented_entry(self, results_dir, tmp_path, capsys):
        seen = {}

        def run(scale, seed, registry):
            seen.update(scale=scale, seed=seed)
            registry.counter("stub_total", "a counter").inc()
            return {"experiment": "stub", "scale": scale, "seed": seed}

        entry = _stub(
            takes=INSTRUMENTED, title="Stub [scale={scale} seed={seed}]", run=run,
            tables=lambda payload: "body", payload=lambda payload: payload,
            monitors=[PCCAccountingMonitor()],
        )
        metrics = tmp_path / "m.jsonl"
        publish(entry, "smoke", seed=3, metrics_out=str(metrics))
        out = capsys.readouterr().out.splitlines()
        assert seen == {"scale": "smoke", "seed": 3}
        assert out[1] == "Stub [scale=smoke seed=3]"
        assert out[3:6] == ["body", "", f"metrics: {metrics} (prometheus: {tmp_path / 'm.prom'})"]
        assert out[6] == "" and "pcc_accounting" in out[7]
        document = json.loads((results_dir / "stub.json").read_text())
        # The result's own header stays first; the verdicts are appended.
        assert list(document) == ["experiment", "scale", "seed", "invariants"]
        final = load_jsonl(metrics)[-1]
        assert final["final"] is True and final["invariants"] == document["invariants"]
        assert "stub_total 1" in (tmp_path / "m.prom").read_text()

        # Same document without --metrics-out, and no metrics line.
        publish(entry, "smoke", seed=3)
        assert "metrics:" not in capsys.readouterr().out
        assert json.loads((results_dir / "stub.json").read_text()) == document


class TestRealEntries:
    @pytest.mark.parametrize("name", ["fig6", "extensions"])
    def test_archive_has_the_committed_keys(self, name, results_dir, capsys):
        entry = load(name)
        publish(entry, "smoke")
        fresh = json.loads((results_dir / f"{entry.stem}.json").read_text())
        committed = json.loads((ROOT / "results" / f"{entry.stem}.json").read_text())
        assert list(fresh) == list(committed)

    # runpy warns that the module under test is already imported; here it is.
    @pytest.mark.filterwarnings("ignore:.*found in sys.modules:RuntimeWarning")
    def test_module_main_is_the_cli_command(self, results_dir, capsys, monkeypatch):
        assert cli.main(["experiment", "fig6", "--scale", "smoke"]) == 0
        through_cli = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["fig6", "--scale", "smoke"])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("repro.experiments.fig6", run_name="__main__")
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == through_cli
        assert through_cli.startswith("=") and "Figure 6b" in through_cli


class TestFlagChecks:
    @pytest.mark.parametrize("flag", [["--seed", "5"], ["--metrics-out", "m.jsonl"]])
    def test_flag_an_entry_does_not_take(self, flag, capsys, monkeypatch):
        monkeypatch.setattr(report, "publish", lambda *a, **k: pytest.fail("ran"))
        assert cli.main(["experiment", "fig3", *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro: error: experiment fig3 does not take {flag[0]} "
            "(only resilience, control-loop do)\n"
        )

    def test_metrics_out_with_all(self, capsys, monkeypatch):
        monkeypatch.setattr(report, "publish", lambda *a, **k: pytest.fail("ran"))
        assert cli.main(["experiment", "all", "--metrics-out", "m.jsonl"]) == 2
        assert capsys.readouterr().err.startswith(
            "repro: error: experiment all does not take --metrics-out"
        )

    def test_all_passes_each_entry_what_it_takes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            report, "publish",
            lambda entry, scale, seed, metrics_out: calls.append((entry.name, scale, seed)),
        )
        assert cli.main(["experiment", "all", "--scale", "smoke", "--seed", "4"]) == 0
        assert calls == [(name, "smoke", 4) for name in EXPERIMENTS]
