"""The tracking policy is the only difference between JET, full CT and
the stateless hash -- a first instalment of ROADMAP's oracle item.

One CH configuration, one key population, one event script, three
balancers: while membership is static they agree packet for packet and
JET's table is exactly full CT's restricted to the keys
``lookup_with_safety`` calls unsafe; under announced events (remove,
re-add from the horizon) JET's table stays a sub-mapping of full CT's
and neither ever returns a removed server.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ch import HRWHash
from repro.ch.properties import sample_keys
from repro.core import FullCTLoadBalancer, JETLoadBalancer, StatelessLoadBalancer

WORKING = [f"s{i}" for i in range(8)]
HORIZON = ["h0", "h1"]
KEYS = sample_keys(64, seed=23)

#: A step is a packet of one of the keys, or a toggle of one server:
#: remove it if it is working (it joins the horizon), else re-add it.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("packet"), st.integers(0, len(KEYS) - 1)),
        st.tuples(st.just("toggle"), st.integers(0, len(WORKING) - 2)),
    ),
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(script=steps)
def test_policy_is_the_only_difference(script):
    jet, full, stateless = (
        cls(HRWHash(WORKING, HORIZON))
        for cls in (JETLoadBalancer, FullCTLoadBalancer, StatelessLoadBalancer)
    )
    oracle = HRWHash(WORKING, HORIZON)  # the CH alone, driven in lockstep
    static, seen = True, set()
    for kind, index in script:
        if kind == "toggle":
            static, name = False, WORKING[index]
            op = "remove_working" if name in oracle.working else "add_working"
            for lb in (jet, full, stateless):
                getattr(lb, f"{op}_server")(name)
            getattr(oracle, op)(name)
        else:
            key = KEYS[index]
            seen.add(key)
            destination = jet.get_destination(key)
            assert destination == full.get_destination(key)
            assert destination in oracle.working  # never a removed server
            assert stateless.get_destination(key) == oracle.lookup(key)
            if static:
                assert destination == oracle.lookup(key)
        tracked, everything = jet.tracked_items(), full.tracked_items()
        assert tracked.items() <= everything.items()
        if static:
            assert set(everything) == seen
            assert set(tracked) == {k for k in seen if oracle.lookup_with_safety(k)[1]}
