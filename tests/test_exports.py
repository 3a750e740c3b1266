"""Every name a package exports resolves, so a deletion that leaves a
dangling re-export fails here rather than in a user's ``from repro.x import``."""

import importlib

import pytest

PACKAGES = ["repro"] + [
    f"repro.{name}"
    for name in ("core", "ch", "ct", "net", "analysis", "hashing", "traces", "sim",
                 "shard", "obs", "faults", "control", "scenarios")
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "a name is listed twice"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it does not define: {missing}"
