"""The counted-results gate (``python -m repro.experiments.counted``).

One smoke-scale run of the three counted experiments is shared by the
module: it must reproduce the committed ``BENCH_dataplane.json`` exactly,
and the gate must name the key when any one committed value is edited.
"""

import copy
import json
import re
from pathlib import Path

import pytest

from repro.experiments import counted

COMMITTED = Path(__file__).resolve().parents[1] / counted.BENCH_FILE


@pytest.fixture(scope="module")
def committed():
    return json.loads(COMMITTED.read_text())


@pytest.fixture(scope="module")
def run(committed):
    return counted.run_counted(committed["scale"])


@pytest.fixture
def fresh(run):
    return copy.deepcopy(run[0])


def _keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


class TestCommittedFile:
    def test_reproduces_exactly(self, fresh, committed):
        assert counted.check(fresh, committed) == []

    def test_holds_no_timing(self, committed):
        timing = re.compile(r"_pps|_seconds|_per_s$|speedup|wall")
        assert [key for key in _keys(committed) if timing.search(key)] == []

    def test_connection_independence_is_concury_alone(self, committed):
        # full CT sits on one power-of-two table at 1x and 2x population:
        # equal bytes, twice the entries -- not independent.
        rows = {row["balancer"]: row for row in committed["showdown"]["memory"]}
        full = rows["full-ct-table"]
        assert full["tracked_connections_2x_population"] > full["tracked_connections"]
        assert {name for name, row in rows.items() if row["connection_independent"]} == {
            "concury-table"
        }


class TestGateNamesTheKey:
    def test_integer(self, fresh, committed):
        edited = copy.deepcopy(committed)
        edited["showdown"]["pcc_churn"][2]["pcc_violations"] += 1
        (failure,) = counted.check(fresh, edited)
        assert failure.startswith("showdown.pcc_churn[2].pcc_violations: ")

    def test_float(self, fresh, committed):
        edited = copy.deepcopy(committed)
        edited["sharding"]["rows"][0]["jet"]["ct_bytes_per_shard"] *= 1 + 1e-6
        (failure,) = counted.check(fresh, edited)
        assert failure.startswith("sharding.rows[0].jet.ct_bytes_per_shard: ")

    def test_bool_and_missing_and_extra_keys(self, fresh, committed):
        edited = copy.deepcopy(committed)
        edited["scenarios"]["zone-failure"]["ok"] = 1  # an int is not a bool
        del edited["showdown"]["concury_updates"]["patches"]
        edited["sharding"]["speedup"] = 2.25
        assert [f.split(":")[0] for f in counted.check(fresh, edited)] == [
            "scenarios.zone-failure.ok",
            "sharding.speedup",
            "showdown.concury_updates.patches",
        ]


class TestCommandLine:
    @pytest.fixture
    def workdir(self, run, tmp_path, monkeypatch):
        """A directory holding the committed file, with the (slow) run
        replaced by the module's shared one."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(counted, "run_counted", lambda *args: copy.deepcopy(run))
        (tmp_path / counted.BENCH_FILE).write_text(COMMITTED.read_text())
        return tmp_path

    def test_check_passes_on_the_committed_file(self, workdir, capsys):
        counted.main([])
        assert "every counted value reproduces" in capsys.readouterr().out

    def test_hand_edit_exits_nonzero_naming_the_key(self, workdir, capsys):
        path = workdir / counted.BENCH_FILE
        path.write_text(
            path.read_text().replace('"rebuilds": 1', '"rebuilds": 2')
        )
        with pytest.raises(SystemExit) as exit_info:
            counted.main([])
        assert exit_info.value.code == 1
        assert "showdown.concury_updates.rebuilds" in capsys.readouterr().err

    def test_write_regenerates_byte_identically(self, workdir):
        path = workdir / counted.BENCH_FILE
        path.write_text("{}")
        counted.main(["--write"])
        assert path.read_text() == COMMITTED.read_text()

    def test_other_scale_compares_nothing(self, workdir, run, monkeypatch, capsys):
        payload, matrix = copy.deepcopy(run)
        payload["scale"] = "default"
        payload["showdown"]["memory"][0]["state_bytes"] += 1
        monkeypatch.setattr(counted, "run_counted", lambda *args: (payload, matrix))
        counted.main(["--scale", "default"])
        assert "nothing compared" in capsys.readouterr().out
