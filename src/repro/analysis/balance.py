"""Balance metrics.

The paper's balance measure (Section 5.1): *maximum oversubscription* --
connections at the most loaded server divided by the average number of
connections per active server.  1.0 is a perfect connection balance
(which, as footnote 6 notes, is still not perfect *load* balance when
flow sizes differ).
"""

from __future__ import annotations

from typing import Hashable, Mapping


def max_oversubscription(loads: Mapping[Hashable, int], active_servers: int = None) -> float:
    """Max-loaded server divided by the mean over active servers."""
    if not loads:
        return 0.0
    n = active_servers if active_servers is not None else len(loads)
    if n <= 0:
        return 0.0
    total = sum(loads.values())
    if total == 0:
        return 0.0
    return max(loads.values()) / (total / n)

