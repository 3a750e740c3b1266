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

Full-CT only (implements plain :class:`~repro.ch.base.ConsistentHash`):

- :class:`MaglevHash` -- cannot be JET-integrated because of row flips
  (Section 3.6).
"""

from repro.ch.base import (
    BackendError,
    ConsistentHash,
    HorizonConsistentHash,
    Name,
    has_index_kernel,
)
from repro.ch.hrw import HRWHash
from repro.ch.ring import RingHash
from repro.ch.table_hrw import ScalarTableHRW, TableHRWHash, rows_for
from repro.ch.anchor import AnchorBuckets, AnchorHash
from repro.ch.maglev import MaglevHash
from repro.ch.jump import JumpHash, jump_bucket, v_jump_bucket
from repro.ch.modulo import ModuloHash
from repro.ch.concury import ConcuryHash
from repro.ch.weighted import WeightedHRWHash, WeightedRingHash

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


def family_choices(jet_only: bool = False, maglev: bool = False, weighted: bool = False):
    """Sorted CH family names for CLI ``choices=`` lists.

    The single source of truth is the registries above: a new family
    registered there appears in every ``--family`` flag automatically.
    ``jet_only`` restricts to the paper's horizon-pluggable four;
    ``maglev`` appends the full-CT-only MaglevHash and
    ``weighted`` the two server-spec variants ``make_ch`` special-cases
    (what a scenario document's ``ch_family`` may name).
    """
    names = sorted(JET_FAMILIES)
    if not jet_only:
        names += sorted(EXTENSION_FAMILIES)
    if maglev:
        names.append("maglev")
    if weighted:
        names += ["weighted-hrw", "weighted-ring"]
    return names

__all__ = [
    "BackendError",
    "ConsistentHash",
    "HorizonConsistentHash",
    "Name",
    "has_index_kernel",
    "HRWHash",
    "RingHash",
    "TableHRWHash",
    "ScalarTableHRW",
    "rows_for",
    "AnchorHash",
    "AnchorBuckets",
    "MaglevHash",
    "JumpHash",
    "jump_bucket",
    "v_jump_bucket",
    "ModuloHash",
    "ConcuryHash",
    "WeightedHRWHash",
    "WeightedRingHash",
    "JET_FAMILIES",
    "EXTENSION_FAMILIES",
    "family_choices",
]
