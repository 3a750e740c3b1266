"""Declarative, picklable descriptions of balancers and membership events.

A shard never shares a live balancer with another (that would defeat
the whole point); it gets its own, described by a :class:`BalancerSpec`.
``build(shard_id)`` derives every RNG seed through
:func:`~repro.shard.partition.shard_seed`, so a shard's balancer is a
pure function of (spec, shard id) -- identical whichever worker process
holds it -- and ``builder()`` hands out exactly those balancers as
copies of one build.  The spec does not know the modes: the name goes
to :func:`repro.core.factories.make_lb`, the one mode -> stack map.

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
from repro.shard.partition import shard_seed

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
    ct_capacity: Optional[int] = None
    ct_policy: str = "lru"
    #: Master seed; per-shard CT seeds derive from it via shard_seed.
    seed: int = 0
    #: CH constructor kwargs as sorted items (kept hashable/picklable).
    ch_kwargs: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        check_stack(self.mode, self.family)
        if self.ct_policy == "ttl":
            raise ValueError(
                'ct_policy "ttl" needs a clock and a replay has none: the table would '
                "expire entries by wall time, so its contents would depend on the machine"
            )

    @classmethod
    def fleet(
        cls,
        mode: str = "jet",
        family: str = "table",
        n_servers: int = 50,
        horizon_size: int = 5,
        ct_capacity: Optional[int] = None,
        ct_policy: str = "lru",
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
            ct_policy=ct_policy,
            seed=seed,
            ch_kwargs=tuple(sorted(ch_kwargs.items())),
        )

    def build(self, shard_id: int = 0) -> LoadBalancer:
        """Construct this balancer for one shard, seeds shard-derived.

        The CT's randomness is shard-local; a CT-less stack (the Concury
        map is seeded by the master seed alone) comes out identical in
        every shard, which the merged-equals-single-process contract
        requires.
        """
        return make_lb(
            self.mode, self.family, list(self.working), list(self.horizon),
            ct=self._ct(shard_id), master_seed=self.seed, **dict(self.ch_kwargs),
        )

    def builder(self) -> Callable[[int], LoadBalancer]:
        """``build`` for the shards of one call, at the cost of one build.

        Everything but the CT is the same in every shard, so the stack is
        built and pickled once, here; each call unpickles a copy and
        gives it the shard's own CT, the one ``build(shard_id)`` makes.
        The CH tables and the Concury Othello map are numpy arrays, so a
        copy is a memory copy: well under a millisecond, against a
        table-HRW or Concury build of tens.  Nothing outlives the
        returned function: a second call builds again.
        """
        image = pickle.dumps(self.build(0), pickle.HIGHEST_PROTOCOL)

        def build(shard_id: int) -> LoadBalancer:
            balancer = pickle.loads(image)
            if hasattr(balancer, "ct"):
                balancer.ct = self._ct(shard_id)
            return balancer

        return build

    def _ct(self, shard_id: int):
        return make_ct(self.ct_capacity, self.ct_policy, seed=shard_seed(self.seed, shard_id))
