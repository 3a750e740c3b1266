"""Consistent hashing algorithms, all implemented from scratch.

JET-pluggable (implement :class:`~repro.ch.base.HorizonConsistentHash`):

- :class:`HRWHash` -- rendezvous hashing (Section 3.2);
- :class:`RingHash` -- ring with virtual nodes (Section 3.3);
- :class:`TableHRWHash` -- table-based HRW (Section 3.4);
- :class:`AnchorHash` -- AnchorHash (Section 3.5);
- :class:`JumpHash` -- jump hashing (extension; horizon is a stack);
- :class:`ModuloHash` -- the Section 2.4 strawman (not consistent);
- :class:`ConcuryHash` -- Concury-style Othello perfect mapping over
  flowsets (extension; O(1) dataplane, control-plane mutation).

:class:`HRWHash` and :class:`RingHash` also take per-server capacities
(``weights={name: weight}``, absent names 1.0): a weight is a property of
a server, not a family of its own (``takes_weights``).

Full-CT only (implements plain :class:`~repro.ch.base.ConsistentHash`):

- :class:`MaglevHash` -- cannot be JET-integrated because of row flips
  (Section 3.6).
"""

from repro.ch.base import (
    BackendError,
    ConsistentHash,
    HorizonConsistentHash,
    Name,
)
from repro.ch.hrw import HRWHash
from repro.ch.ring import RingHash
from repro.ch.table_hrw import TableHRWHash, rows_for
from repro.ch.anchor import AnchorBuckets, AnchorHash
from repro.ch.maglev import MaglevHash
from repro.ch.jump import JumpHash, jump_bucket, v_jump_bucket
from repro.ch.modulo import ModuloHash
from repro.ch.concury import ConcuryHash

#: JET-compatible CH families evaluated in the paper, by name.
JET_FAMILIES = {
    "hrw": HRWHash,
    "ring": RingHash,
    "table": TableHRWHash,
    "anchor": AnchorHash,
}

#: Horizon-aware extension families beyond the paper's four (Jump with a
#: stack horizon; the §2.4 mod-N strawman).  They satisfy the same
#: interface -- including the batch lookup contract -- and are covered by
#: the batch-vs-scalar differential tests.
EXTENSION_FAMILIES = {
    "jump": JumpHash,
    "modulo": ModuloHash,
    "concury": ConcuryHash,
}

#: Every CH family by name: what each ``--family`` flag and a scenario's
#: ``ch_family`` accept.  Which (mode, family) pairs build, and how, is
#: :func:`repro.core.factories.check_stack`'s decision.
FAMILIES = {
    **JET_FAMILIES,
    **EXTENSION_FAMILIES,
    "maglev": MaglevHash,
}


def family_choices():
    """Sorted CH family names: the one list every entry point accepts."""
    return sorted(FAMILIES)


__all__ = [
    "BackendError",
    "ConsistentHash",
    "HorizonConsistentHash",
    "Name",
    "HRWHash",
    "RingHash",
    "TableHRWHash",
    "rows_for",
    "AnchorHash",
    "AnchorBuckets",
    "MaglevHash",
    "JumpHash",
    "jump_bucket",
    "v_jump_bucket",
    "ModuloHash",
    "ConcuryHash",
    "JET_FAMILIES",
    "EXTENSION_FAMILIES",
    "FAMILIES",
    "family_choices",
]
