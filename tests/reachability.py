"""Which ``src/repro`` functions no documented command reaches.

Drives, in one process under :mod:`cProfile` (forked shard workers
included), every way the repository is meant to be run:

- each ``python -m repro`` / ``repro`` command in the fenced blocks of
  README.md and docs/*.md, in order (an ``experiment`` command without
  ``--scale`` is left to README's ``experiment all --scale smoke``, which
  runs every entry through the same publisher), and both ``python``
  blocks;
- the commands the verification notes (SKILL.md) and the CI workflow name:
  the instrumented experiments and their strict summaries, ``trace
  replay --mmap`` for every mode x family at 1 and 2 workers, the chaos,
  closed-loop and CT-policy ``simulate`` runs, and the hostile inputs
  that must end in one ``repro: error:`` line;
- ``python -m repro.experiments.counted`` (the frontier, sharding and
  scenario-matrix experiments) and one ``python -m
  repro.experiments.<module>`` entry;
- pcap input: a capture written by ``write_pcap``, read by
  ``trace_from_pcap`` and replayed;
- every script in examples/, ``pytest benchmarks`` at smoke scale, and
  ``python3 -m bench`` for every workload at ``--scale tiny``, untraced
  and traced.

Then it prints every function defined under ``src/repro`` that none of
them called, as ``path:first-last qualified.name``, and their count.
Abstract methods are not listed.  A command that raises stops the run.

Run from anywhere (~7 min on 2 vCPUs; writes to a temporary directory
and to bench/out/ only)::

    python tests/reachability.py
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import os
import re
import runpy
import shlex
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

# Commands SKILL.md and the CI workflow name beyond the fenced doc blocks.
NAMED_COMMANDS = [
    "simulate --mode concury --family table --servers 20 --horizon 2 --rate 200 --duration 10 --seed 3",
    "simulate --mode jet --family table --servers 40 --horizon 4 --rate 200 --duration 10 "
    "--update-rate 0 --crash-rate 6 --unannounced-rate 6 --seed 3",
    "simulate --mode jet --family ring --servers 40 --horizon 4 --rate 200 --duration 20 "
    "--update-rate 0 --crash-rate 12 --flap-rate 12 --unannounced-rate 12 --seed 3",
    "simulate --mode jet --family table --servers 40 --horizon 4 --rate 200 --duration 10 "
    "--update-rate 0 --group-rate 6 --group-size 3 --seed 3",
    "simulate --control --servers 20 --horizon 8 --rate 300 --duration 30 --update-rate 0 "
    "--flow-duration 3 --flash-crowd 8 4 2 --lead-time 9 --seed 3",
    "simulate --control --servers 20 --horizon 4 --rate 200 --duration 20 --diurnal 10 "
    "--probe-loss-rate 30 --stale-autoscaler-rate 30 --forecast-precision 0.8 --seed 3",
    "simulate --mode jet --servers 20 --horizon 2 --rate 200 --duration 10 --workers 2 "
    "--metrics-out shard_sim.jsonl --seed 3",
    "scenario run flash-crowd --workers 2 --metrics-out scenario_run.jsonl",
    "obs summarize scenario_run.jsonl --strict",
    "experiment resilience --scale smoke --seed 1 --metrics-out resilience_metrics.jsonl",
    "obs summarize resilience_metrics.jsonl --strict",
    "experiment control-loop --scale smoke --seed 1 --metrics-out control_metrics.jsonl",
    "obs summarize control_metrics.jsonl --strict",
    "experiment frontier --scale smoke",
    "trace generate uni1 --trace-scale 0.002 --out uni1.npz",
    "trace generate ny18 --trace-scale 0.002 --out ny18.npz",
    "trace info uni1.npz",
    "version",
    "simulate --help",
]

HOSTILE = [
    "simulate --config truncated.json", "simulate --config nonexistent.json",
    "simulate --servers 0", "simulate --ct-ttl 3", "trace generate zipf --packets 0",
    "trace generate zipf --skew -1", "trace generate zipf --packets 100 --population 0",
    "trace generate uni1 --trace-scale 0", "trace generate ny18 --trace-scale -1",
    "simulate --scenario zone-failure --config run.json", "scenario run",
    "trace replay hostile.npz --workers 0", "trace replay hostile.npz --shards 0",
    "trace replay hostile.npz --servers 0", "trace replay hostile.npz --horizon -1",
    "trace replay hostile.npz --family maglev",
    "trace replay hostile.npz --family maglev --workers 2",
    "trace replay hostile.npz --mode concury --family concury",
    "simulate --mode concury --family concury --servers 10 --horizon 2 --rate 50 --duration 2",
    "scenario run heterogeneous-fleet --mode concury --duration 2",
    "simulate --config zero_weights.json", "simulate --config not_a_pair.json",
    "simulate --config negative_weight.json", "scenario run --file nan_mean.json",
]

# The CI workflow's hostile scenario documents: distribution tables that
# once crashed or ran with no flows.
_HEAD = ('{"name": "t", "duration_s": 5, "fleet": {"servers": 8, "horizon": 2}, '
         '"workload": {"connection_rate": 50, ')
HOSTILE_DOCUMENTS = {
    "zero_weights.json": '"flow_size": {"kind": "mixture", "components": [[0, {"kind": "constant", '
                         '"value": 2}], [0, {"kind": "constant", "value": 3}]]}}}',
    "not_a_pair.json": '"flow_size": {"kind": "mixture", "components": [{"kind": "constant", '
                       '"value": 2}]}}}',
    "negative_weight.json": '"flow_size": {"kind": "mixture", "components": [[-1, {"kind": '
                            '"constant", "value": 2}], [2, {"kind": "constant", "value": 3}]]}}}',
    "nan_mean.json": '"flow_duration": {"kind": "exponential", "mean": NaN}}}',
}


def defined():
    """``(file, first line) -> (qualified name, last line)`` of every def.

    The first line is what ``co_firstlineno`` reports: the first
    decorator's line for a decorated function.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                decorators = [ast.unparse(d) for d in child.decorator_list]
                if not any(d.endswith("abstractmethod") for d in decorators):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = (name, child.end_lineno)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), str(path), "")
    return found


def fenced_commands(path: Path):
    """The ``repro`` command lines of a markdown file's fenced blocks."""
    commands, block, pending = [], False, ""
    for line in path.read_text().splitlines():
        if line.startswith("```"):
            block = not block
            continue
        if not block:
            continue
        line = pending + line.split("#")[0].strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        match = re.match(r"(?:python -m )?repro (\S.*)", line)
        if match:
            commands.append(match.group(1).replace("/tmp/", ""))
    return commands


def python_blocks(path: Path):
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


class Reachability:
    def __init__(self, work: Path):
        self.work = work
        self.profiler = cProfile.Profile()
        self.children = work / "children"
        self.children.mkdir()
        self._main = os.getpid()
        self._exit = os._exit
        os._exit = self._exit_with_harvest  # forked workers leave through it

    def _exit_with_harvest(self, code):
        if os.getpid() != self._main:
            self.profiler.disable()
            lines = (f"{f}\t{n}" for f, n in self.harvest())
            (self.children / str(os.getpid())).write_text("\n".join(lines))
        self._exit(code)

    def harvest(self):
        return {
            (entry.code.co_filename, entry.code.co_firstlineno)
            for entry in self.profiler.getstats()
            if not isinstance(entry.code, str)
        }

    def called(self):
        seen = self.harvest()
        for child in self.children.iterdir():
            for line in child.read_text().splitlines():
                filename, first = line.rsplit("\t", 1)
                seen.add((filename, int(first)))
        return seen

    def cli(self, command: str, codes=(0,)):
        from repro.cli import main

        try:
            code = main(shlex.split(command))
        except SystemExit as exc:  # argparse's exit, --help
            code = exc.code
        if code not in codes:
            raise RuntimeError(f"repro {command}: exit {code}, expected {codes}")

    def script(self, path: Path, *argv, module=None):
        saved = sys.argv
        sys.argv = [str(path), *argv]
        try:
            if module:
                runpy.run_module(module, run_name="__main__")
            else:
                runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise RuntimeError(f"{path}: exit {exc.code}") from None
        finally:
            sys.argv = saved

    def run(self):
        docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
        for doc in docs:
            for command in fenced_commands(doc):
                if command.startswith("experiment") and "--scale" not in command:
                    continue
                # A what-if scenario may miss the envelope: exit 1 is a verdict.
                self.cli(command, codes=(0, 1) if command.startswith("scenario run") else (0,))
            for block in python_blocks(doc):
                exec(compile(block, str(doc), "exec"), {"__name__": "__doc_snippet__"})

        for command in NAMED_COMMANDS:
            self.cli(command)
        from repro.ch import family_choices
        from repro.core.factories import lb_mode_choices
        from repro.ct import CT_POLICIES

        for policy in CT_POLICIES:
            ttl = " --ct-ttl 2" if policy == "ttl" else ""
            self.cli(f"simulate --mode full --servers 20 --horizon 2 --rate 200 --duration 10 "
                     f"--ct-size 64 --ct-policy {policy}{ttl} --seed 3")
        self.cli("trace generate zipf --skew 1.0 --packets 20000 --uncompressed --out family.npz")
        for family in family_choices():
            for mode in lb_mode_choices():
                for workers in (1, 2):
                    self.cli(f"trace replay family.npz --family {family} --mode {mode} "
                             f"--servers 10 --horizon 2 --workers {workers} --mmap", codes=(0, 2))
        (self.work / "truncated.json").write_text("{")
        for name, tail in HOSTILE_DOCUMENTS.items():
            (self.work / name).write_text(_HEAD + tail)
        self.cli("trace generate zipf --packets 2000 --out hostile.npz")
        for command in HOSTILE:
            self.cli(command, codes=(2,))

        from repro.experiments import counted

        shutil.copy(ROOT / "BENCH_dataplane.json", self.work)
        counted.main(["--workers", "2", "--metrics-out", "scenario_metrics.jsonl"])
        self.cli("obs summarize scenario_metrics.jsonl --strict")
        with warnings.catch_warnings():  # runpy: the module is imported already
            warnings.simplefilter("ignore", RuntimeWarning)
            self.script(PACKAGE / "experiments" / "fig6.py", "--scale", "smoke",
                        module="repro.experiments.fig6")

        self.pcap_input()
        for example in sorted((ROOT / "examples").glob("*.py")):
            self.script(example)

        import pytest

        if pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "benchmarks")]) != 0:
            raise RuntimeError("pytest benchmarks failed")
        sys.path.insert(0, str(ROOT))
        from bench.run import main as bench

        for workload in ("replay-steady", "replay-churn", "replay-sharded", "sim-churn"):
            for trace in ("0", "1"):
                argv = ["--workload", workload, "--scale", "tiny", "--seconds", "2", "--trace", trace]
                # Under the profiler a traced run's self times can miss its
                # wall by the 1 % its budget check allows: exit 1 is timing.
                if bench(argv) not in ((0, 1) if trace == "1" else (0,)):
                    raise RuntimeError(f"bench {' '.join(argv)} failed")

    def pcap_input(self):
        from repro import make_jet, replay
        from repro.net import FiveTuple, build_ethernet, write_pcap
        from repro.net.pcap import LINKTYPE_RAW_IPV4
        from repro.net.parse import build_ipv4
        from repro.traces import trace_from_pcap

        flows = [FiveTuple(0x0A000001 + i, 0xC0000201, 40000 + i, 443) for i in range(50)]
        frames = [(0.001 * i, build_ethernet(flows[i % 50])) for i in range(400)]
        write_pcap(self.work / "capture.pcap", frames + [(1.0, b"\x00" * 20)])
        raw = [(0.001 * i, build_ipv4(flows[i % 50])) for i in range(100)]
        write_pcap(self.work / "raw.pcap", raw, linktype=LINKTYPE_RAW_IPV4)
        for capture in ("capture.pcap", "raw.pcap"):
            trace, _ = trace_from_pcap(self.work / capture)
            replay(trace, make_jet("anchor", [f"s{i}" for i in range(10)], ["h0"]))


def main() -> int:
    sys.path.insert(0, str(SRC))
    work = Path(tempfile.mkdtemp(prefix="reachability-"))
    os.environ["REPRO_RESULTS_DIR"] = str(work / "results")
    os.environ["REPRO_SCALE"] = "smoke"
    cwd = os.getcwd()
    probe = Reachability(work)
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            probe.profiler.enable()
            try:
                probe.run()
            finally:
                probe.profiler.disable()
        called = probe.called()
        forked = len(list(probe.children.iterdir()))
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    functions = defined()
    missed = [
        (path, first, name, last)
        for (path, first), (name, last) in sorted(functions.items())
        if (path, first) not in called
    ]
    for path, first, name, last in missed:
        print(f"{Path(path).relative_to(ROOT)}:{first}-{last} {name}")
    print(f"{len(missed)} of {len(functions)} functions unreached, "
          f"{sum(last - first + 1 for _, first, _, last in missed)} lines "
          f"({forked} forked workers harvested)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
