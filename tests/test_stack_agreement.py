"""Every entry point builds the same stacks: one agreement test.

``repro.core.factories.check_stack`` is the one decision on which (mode,
family) pairs exist, and every entry point takes the same names
(``family_choices()`` x ``lb_mode_choices()``).  So for every pair the
three ways a user reaches a stack -- the shard recipe
(``BalancerSpec``), a scenario document (parse -> compile ->
``build_balancer``) and ``repro trace replay`` -- either all build or
all refuse with the same one message; and where they build, the shard
recipe and the simulator's builder, given the same names and kwargs,
dispatch alike, on the columnar path.
"""

import argparse

import pytest

from repro.ch import family_choices
from repro.ch.properties import sample_keys
from repro.cli import build_parser, main
from repro.core.factories import lb_mode_choices
from repro.scenarios import ScenarioError, ScenarioSpec, compile_scenario
from repro.shard import BalancerSpec
from repro.sim.scenario import build_balancer

N_SERVERS, HORIZON = 8, 2
KEYS = sample_keys(1000, seed=17)
#: CH kwargs both builders get, so neither fills in a default of its own.
CH_KWARGS = {"table": {"rows": 127}, "anchor": {"capacity": 40}, "maglev": {"table_size": 251}}
PAIRS = [(mode, family) for mode in lb_mode_choices() for family in family_choices()]


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("trace") / "t.npz")
    assert main(["trace", "generate", "zipf", "--packets", "2000", "--out", path]) == 0
    return path


def document(mode, family):
    return {
        "name": "agree",
        "duration_s": 5,
        "mode": mode,
        "ch_family": family,
        "ch_kwargs": CH_KWARGS.get(family, {}),
        "fleet": {"servers": N_SERVERS, "horizon": HORIZON},
        "workload": {"connection_rate": 50},
    }


def refusal(build):
    """The refusal message ``build()`` raises, or None if it builds."""
    try:
        build()
    except ScenarioError as exc:
        return str(exc)[len(exc.path) + 2:]
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("mode,family", PAIRS)
def test_every_entry_point_agrees(mode, family, trace_path, capsys):
    built = []
    spec_says = refusal(
        lambda: built.append(BalancerSpec.fleet(mode, family, N_SERVERS, HORIZON).build(0))
    )
    document_says = refusal(
        lambda: build_balancer(
            compile_scenario(ScenarioSpec.parse(document(mode, family))).config
        )
    )
    capsys.readouterr()
    code = main(["trace", "replay", trace_path, "--mode", mode, "--family", family,
                 "--servers", str(N_SERVERS), "--horizon", str(HORIZON)])
    captured = capsys.readouterr()
    if spec_says is None:
        assert document_says is None
        assert code == 0 and captured.err == ""
        assert_same_dispatch(mode, family)
        # Over the default unbounded CT every stack but the SYN-gated
        # placement runs columnar: no family is left on the scalar loop.
        assert built[0].columnar_effective == (mode not in ("jet-p2c", "p2c"))
        return
    assert document_says == spec_says
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"repro: error: {spec_says}"]


def assert_same_dispatch(mode, family):
    """``BalancerSpec.build`` and ``build_balancer`` with one set of names
    and kwargs answer every key alike."""
    config = compile_scenario(ScenarioSpec.parse(document(mode, family))).config
    simulated, working, standby = build_balancer(config)
    recipe = BalancerSpec(
        mode=mode, family=family, working=tuple(working), horizon=tuple(standby),
        seed=config.seed, ch_kwargs=tuple(sorted(config.ch_kwargs.items())),
    ).build(0)
    assert type(recipe) is type(simulated)
    assert [recipe.get_destination(k) for k in KEYS] == [
        simulated.get_destination(k) for k in KEYS
    ]


def _options(parser, *command):
    """dest -> choices of one (sub)command's options."""
    for name in command:
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[name]
    return {action.dest: action.choices for action in parser._actions}


@pytest.mark.parametrize("command", [("simulate",), ("trace", "replay")])
def test_both_commands_take_the_one_list(command):
    options = _options(build_parser(), *command)
    assert list(options["family"]) == family_choices()
    assert list(options["mode"]) == lb_mode_choices()


@pytest.mark.parametrize(
    "field,names", [("ch_family", family_choices()), ("mode", lb_mode_choices())]
)
def test_the_document_takes_the_one_list(field, names):
    with pytest.raises(ScenarioError, match="expected one of") as caught:
        ScenarioSpec.parse({**document("jet", "table"), field: "bogus"})
    assert f"expected one of {names}," in str(caught.value)
