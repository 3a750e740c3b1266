"""Declarative, picklable descriptions of balancers and membership events.

A shard never shares a live balancer with another (that would defeat
the whole point); it gets its own, described by a :class:`BalancerSpec`.
Every shard's balancer is the same pure function of the spec --
identical whichever worker process holds it, with its own empty CT --
and ``builder()`` hands out copies of one build.  The spec does not know
the modes: the name goes to :func:`repro.core.factories.make_lb`, the
one mode -> stack map.

:class:`MembershipEvent` is the picklable form of a control-plane
backend change keyed by packet index; the sharded runner fans every
event out to every shard's balancer (each shard owns a full replica of
the membership state machine, only the flows are partitioned).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from repro.core.factories import check_stack, make_lb
from repro.core.interfaces import LoadBalancer, Name
from repro.ct import make_ct

#: op name -> LoadBalancer method applied to the named server.
_OPS = (
    "add_working",
    "remove_working",
    "force_add_working",
    "add_horizon",
    "remove_horizon",
)


@dataclass(frozen=True)
class MembershipEvent:
    """One backend change at a packet index, replicated to every shard."""

    packet_index: int
    op: str
    name: Name

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown membership op {self.op!r}; one of {_OPS}")

    def apply(self, balancer: LoadBalancer) -> None:
        getattr(balancer, f"{self.op}_server")(self.name)


@dataclass(frozen=True)
class BalancerSpec:
    """Everything needed to rebuild one balancer stack in any process."""

    mode: str = "jet"  # any name of repro.core.factories.LB_MODES
    family: str = "table"
    working: Tuple[Name, ...] = ()
    horizon: Tuple[Name, ...] = ()
    #: None for an unbounded CT, else an LRU CT's capacity.
    ct_capacity: Optional[int] = None
    #: Master seed (the Concury map's).
    seed: int = 0
    #: CH constructor kwargs as sorted items (kept hashable/picklable).
    ch_kwargs: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        check_stack(self.mode, self.family)

    @classmethod
    def fleet(
        cls,
        mode: str = "jet",
        family: str = "table",
        n_servers: int = 50,
        horizon_size: int = 5,
        ct_capacity: Optional[int] = None,
        seed: int = 0,
        **ch_kwargs,
    ) -> "BalancerSpec":
        """The CLI's conventional fleet: servers ``s0..``, horizon ``h0..``.

        Fills in the per-family constructor kwargs the CLI would (table
        rows, anchor capacity); which stacks build is ``check_stack``'s
        call, asked when the spec is made.
        """
        working = tuple(f"s{i}" for i in range(n_servers))
        horizon = tuple(f"h{i}" for i in range(horizon_size))
        if family == "table" and "rows" not in ch_kwargs:
            from repro.ch import rows_for

            ch_kwargs["rows"] = rows_for(n_servers)
        if family == "anchor" and "capacity" not in ch_kwargs:
            ch_kwargs["capacity"] = 2 * (n_servers + horizon_size)
        return cls(
            mode=mode,
            family=family,
            working=working,
            horizon=horizon,
            ct_capacity=ct_capacity,
            seed=seed,
            ch_kwargs=tuple(sorted(ch_kwargs.items())),
        )

    def build(self, shard_id: int = 0) -> LoadBalancer:
        """Construct this balancer for one shard.  Every shard's comes out
        the same (the Concury map is seeded by the master seed alone),
        which the merged-equals-single-process contract requires."""
        return make_lb(
            self.mode, self.family, list(self.working), list(self.horizon),
            ct=make_ct(self.ct_capacity), master_seed=self.seed, **dict(self.ch_kwargs),
        )

    def builder(self) -> Callable[[int], LoadBalancer]:
        """``build`` for the shards of one call, at the cost of one build.

        The stack is built and pickled once, here; each call unpickles a
        copy, its CT as empty and its own as ``build``'s.  The CH tables
        and the Concury Othello map are numpy arrays, so a copy is a
        memory copy: well under a millisecond, against a table-HRW or
        Concury build of tens.  Nothing outlives the returned function: a
        second call builds again.
        """
        image = pickle.dumps(self.build(0), pickle.HIGHEST_PROTOCOL)
        return lambda shard_id: pickle.loads(image)
