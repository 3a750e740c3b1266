#!/usr/bin/env python3
"""Heterogeneous backends: JET over weighted consistent hashing.

Real pools mix server generations; the LB weights its dispatching so a
2x machine takes 2x the connections. JET composes with weighted
rendezvous hashing unchanged -- the safety test is the same one-line
score comparison -- and the tracking probability generalizes to
weight(H) / weight(W ∪ H).  A weight is a property of a server:
``HRWHash`` takes them as ``weights={name: weight}``.

Run:  python examples/heterogeneous_backends.py
"""

from repro import HRWHash, JETLoadBalancer
from repro.hashing.mix import splitmix64

# Three server generations: small (1x), medium (2x), large (4x).
FLEET = {
    **{f"gen1-{i}": 1.0 for i in range(6)},
    **{f"gen2-{i}": 2.0 for i in range(4)},
    **{f"gen3-{i}": 4.0 for i in range(2)},
}
STANDBY = {"standby-large": 4.0}


def main() -> None:
    ch = HRWHash(FLEET, STANDBY, weights={**FLEET, **STANDBY})
    lb = JETLoadBalancer(ch)

    keys, state = [], 11
    for _ in range(40_000):
        state = splitmix64(state)
        keys.append(state)
    placement = {k: lb.get_destination(k) for k in keys}

    total_weight = sum(FLEET.values())
    counts = {}
    for destination in placement.values():
        counts[destination] = counts.get(destination, 0) + 1

    print(f"{'server':>14} {'weight':>6} {'share':>8} {'expected':>9}")
    for name in sorted(FLEET, key=lambda n: (-FLEET[n], n))[:6]:
        share = counts.get(name, 0) / len(keys)
        print(f"{name:>14} {FLEET[name]:>6.1f} {share:>8.2%} "
              f"{FLEET[name] / total_weight:>9.2%}")

    tracked = lb.tracked_connections / len(keys)
    expected = 4.0 / (total_weight + 4.0)
    print(f"\ntracked: {tracked:.2%} (theory w(H)/w(W∪H) = {expected:.2%})")

    # The standby 4x machine comes online: PCC must hold.
    lb.add_working_server("standby-large")
    moved = sum(lb.get_destination(k) != d for k, d in placement.items())
    print(f"after adding the standby 4x server: {moved} connections moved (expect 0)")


if __name__ == "__main__":
    main()
