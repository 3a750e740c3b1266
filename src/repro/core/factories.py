"""Convenience constructors for the paper's LB configurations.

The fused pseudo-codes of the paper map onto (CH family, LB wrapper) pairs:

=============  =======================================  ==================
Paper          Factory call                             Composition
=============  =======================================  ==================
Algorithm 2    ``make_jet("hrw", ...)``                 JET + HRWHash
Algorithm 3    ``make_jet("ring", ...)``                JET + RingHash
Algorithm 4    ``make_jet("table", ...)``               JET + TableHRWHash
Algorithm 5    ``make_jet("anchor", ...)``              JET + AnchorHash
Section 3.6    ``make_full_ct("maglev", ...)``          FullCT + MaglevHash
=============  =======================================  ==================
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.ch import FAMILIES, HorizonConsistentHash
from repro.ch.concury import INNER_FAMILIES
from repro.core.concury import ConcuryLoadBalancer
from repro.core.full_ct import FullCTLoadBalancer
from repro.core.interfaces import LoadBalancer, Name
from repro.core.jet import JETLoadBalancer, TrackingLoadBalancer
from repro.core.load_aware import PowerOfTwoJET
from repro.core.stateless import StatelessLoadBalancer
from repro.ct.base import ConnectionTracker


def _family_class(family: str):
    cls = FAMILIES.get(family)
    if cls is None:
        raise ValueError(f"unknown CH family {family!r}; choose from {sorted(FAMILIES)}")
    return cls


def make_ch(family: str, working: Iterable[Name], horizon: Iterable[Name] = (), **kwargs):
    """Build a CH module by family name (any of ``repro.ch.FAMILIES``).

    A horizon-less family (Maglev, paper Section 3.6) is built without
    the horizon.  Extra kwargs reach the CH constructor (e.g.
    ``rows=...``, ``virtual_nodes=...``, ``capacity=...``,
    ``table_size=...``).
    """
    cls = _family_class(family)
    if not issubclass(cls, HorizonConsistentHash):
        return cls(working=working, **kwargs)
    return cls(working=working, horizon=horizon, **kwargs)


#: The one place a mode name becomes a stack (mode -> balancer class):
#: CLI ``--mode`` choices, :class:`repro.shard.BalancerSpec`, the
#: simulator's ``build_balancer`` and the scenario parser all go through
#: it, so a wrapper registered here shows up everywhere at once.
LB_MODES = {
    "jet": JETLoadBalancer,
    "full": FullCTLoadBalancer,
    "stateless": StatelessLoadBalancer,
    "concury": ConcuryLoadBalancer,
    "jet-p2c": PowerOfTwoJET,
}

#: Legacy spellings a saved config or scenario file may still carry;
#: resolved here and nowhere else.
LB_MODE_ALIASES = {"p2c": "jet-p2c"}


def lb_mode_choices():
    """Sorted LB mode names, aliases last: the one list every entry point
    accepts."""
    return sorted(LB_MODES) + sorted(LB_MODE_ALIASES)


def lb_class(mode: str):
    """The balancer class a mode name (or alias) builds."""
    cls = LB_MODES.get(LB_MODE_ALIASES.get(mode, mode))
    if cls is None:
        raise ValueError(f"unknown LB mode {mode!r}; choose from {lb_mode_choices()}")
    return cls


def check_stack(mode: str, family: str, weighted: bool = False) -> None:
    """Raise ``ValueError`` unless (``mode``, ``family``) builds -- with
    per-server ``weighted`` capacities if set.  The three rules:

    - a horizon-less family (Maglev: its rows flip, Section 3.6) cannot
      serve a mode that asks the CH for safety;
    - under ``concury`` the family names the inner CH placing flowsets,
      which must be one of ``INNER_FAMILIES``;
    - weights go to a family that ``takes_weights`` and to ``jet-p2c``
      (as occupancy normalisers); Concury's flowset map reads none.
    """
    cls, ch_cls = lb_class(mode), _family_class(family)
    if cls.needs_horizon and not issubclass(ch_cls, HorizonConsistentHash):
        raise ValueError(f"{family} has no horizon; use mode='full' or 'stateless'")
    if cls is ConcuryLoadBalancer and family not in INNER_FAMILIES:
        raise ValueError(
            f"mode 'concury' places flowsets with one of {sorted(INNER_FAMILIES)}, "
            f"not {family!r}"
        )
    if not weighted:
        return
    if cls is ConcuryLoadBalancer:
        raise ValueError("mode 'concury' cannot weight servers (its flowset map has no capacities)")
    if not ch_cls.takes_weights and cls is not PowerOfTwoJET:
        weighing = sorted(name for name, c in FAMILIES.items() if c.takes_weights)
        raise ValueError(
            f"ch_family {family!r} cannot weight servers ({' and '.join(weighing)} "
            "can; mode 'jet-p2c' normalises occupancy by weight)"
        )


def make_lb(
    mode: str,
    family: str,
    working: Iterable[Name],
    horizon: Iterable[Name] = (),
    ct: Optional[ConnectionTracker] = None,
    weights=None,
    master_seed: int = 0,
    **ch_kwargs,
) -> LoadBalancer:
    """Build any (mode, family) LB composition :func:`check_stack` admits.

    The caller describes the whole stack and each layer takes what it
    uses: the CT (``ct``, e.g. from :func:`repro.ct.make_ct`; unbounded
    when None) goes to the tracking modes; ``weights`` (``{name:
    weight}``, absent names 1.0) to a family that takes weights and to
    ``jet-p2c``; ``master_seed`` (what a sharded or simulated run
    derives every other seed from) to the ``concury`` map.  Other kwargs
    reach the CH.
    """
    check_stack(mode, family, weighted=bool(weights))
    cls = lb_class(mode)
    if weights and _family_class(family).takes_weights:
        ch_kwargs["weights"] = weights
    if cls is ConcuryLoadBalancer:
        # ``family`` names the *inner* control-plane CH deciding flowset
        # placement; the dataplane is the Othello flowset map.
        family, ch_kwargs = "concury", {"seed": master_seed, **ch_kwargs, "inner": family}
    ch = make_ch(family, working, horizon, **ch_kwargs)
    if not issubclass(cls, TrackingLoadBalancer):
        return cls(ch)
    if cls is PowerOfTwoJET:
        return cls(ch, ct, weights=weights)
    return cls(ch, ct)


def make_jet(
    family: str,
    working: Iterable[Name],
    horizon: Iterable[Name],
    ct: Optional[ConnectionTracker] = None,
    **ch_kwargs,
) -> JETLoadBalancer:
    """Build a JET load balancer (Algorithms 1-5) for a CH family."""
    return make_lb("jet", family, working, horizon, ct, **ch_kwargs)


def make_full_ct(
    family: str,
    working: Iterable[Name],
    horizon: Iterable[Name] = (),
    ct: Optional[ConnectionTracker] = None,
    **ch_kwargs,
) -> FullCTLoadBalancer:
    """Build a full-CT baseline LB.

    Passing a ``horizon`` (ignored by the tracking logic) keeps the CH state
    machine identical to a paired JET run, which Proposition 4.1 requires.
    """
    return make_lb("full", family, working, horizon, ct, **ch_kwargs)
