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

from repro.ch import EXTENSION_FAMILIES, JET_FAMILIES, MaglevHash
from repro.core.concury import ConcuryLoadBalancer
from repro.core.full_ct import FullCTLoadBalancer
from repro.core.interfaces import LoadBalancer, Name
from repro.core.jet import JETLoadBalancer, TrackingLoadBalancer
from repro.core.load_aware import PowerOfTwoJET
from repro.core.stateless import StatelessLoadBalancer
from repro.ct.base import ConnectionTracker


def make_ch(family: str, working: Iterable[Name], horizon: Iterable[Name] = (), **kwargs):
    """Build a CH module by family name ("hrw", "ring", "table", "anchor",
    "maglev", plus the "jump"/"modulo" extensions and the heterogeneous
    "weighted-hrw"/"weighted-ring" variants, which accept ``{name:
    weight}`` mappings for ``working``/``horizon``).  Extra kwargs reach
    the CH constructor (e.g. ``rows=...``, ``virtual_nodes=...``,
    ``capacity=...``, ``table_size=...``)."""
    if family == "maglev":
        if horizon:
            raise ValueError("MaglevHash cannot take a horizon (paper Section 3.6)")
        return MaglevHash(working, **kwargs)
    if family in ("weighted-hrw", "weighted-ring"):
        # Special-cased like maglev rather than registered: the weighted
        # variants take server-spec mappings and have no batch kernels,
        # so they stay out of the family-sweep registries.
        from repro.ch.weighted import WeightedHRWHash, WeightedRingHash

        cls = WeightedHRWHash if family == "weighted-hrw" else WeightedRingHash
        return cls(working=working, horizon=horizon, **kwargs)
    cls = JET_FAMILIES.get(family) or EXTENSION_FAMILIES.get(family)
    if cls is None:
        raise ValueError(
            f"unknown CH family {family!r}; choose from "
            f"{sorted(JET_FAMILIES) + sorted(EXTENSION_FAMILIES) + ['maglev']}"
        )
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

#: Legacy spellings a saved config or scenario file may still carry
#: (also offered by ``simulate --mode``); resolved here and nowhere else.
LB_MODE_ALIASES = {"p2c": "jet-p2c"}


def lb_mode_choices(aliases: bool = False):
    """Sorted LB mode names for CLI ``choices=`` lists."""
    return sorted(LB_MODES) + (sorted(LB_MODE_ALIASES) if aliases else [])


def lb_class(mode: str):
    """The balancer class a mode name (or alias) builds."""
    cls = LB_MODES.get(LB_MODE_ALIASES.get(mode, mode))
    if cls is None:
        raise ValueError(f"unknown LB mode {mode!r}; choose from {lb_mode_choices()}")
    return cls


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
    """Build any registered (mode, family) LB composition.

    The caller describes the whole stack and each mode takes what it
    uses: the CT (``ct``, e.g. from :func:`repro.ct.make_ct`; unbounded
    when None) goes to the tracking modes, ``weights`` to the load-aware
    one, and ``master_seed`` (what a sharded or simulated run derives every
    other seed from) to the ``concury`` map.  Other kwargs reach the CH.
    """
    cls = lb_class(mode)
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


def make_concury(
    family: str,
    working: Iterable[Name],
    horizon: Iterable[Name] = (),
    seed: int = 0,
    flowsets: Optional[int] = None,
    **ch_kwargs,
) -> ConcuryLoadBalancer:
    """Build a Concury LB: Othello flowset dataplane, ``family`` as the
    *inner* control-plane CH deciding flowset placement."""
    return make_lb(
        "concury", family, working, horizon, master_seed=seed, flowsets=flowsets, **ch_kwargs
    )
