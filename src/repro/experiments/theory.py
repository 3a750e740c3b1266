"""Empirical validation of Section 4's theoretical guarantees.

- **Theorem 4.2**: a new connection is tracked with probability
  α/(α+1), α = |H|/|W| -- measured per CH family over an α grid.
- **Theorem 4.3**: the tracked count concentrates below |K|·γ/(1+γ)
  with exponentially decaying excess probability (Hoeffding) -- measured
  as the empirical exceedance frequency vs the bound.
- **Theorem 4.4 / Property 1**: safe connections never move under any
  horizon admission order/prefix -- randomized order checks per family.
- **Proposition 4.1**: JET and full CT dispatch identically (same CH,
  same events, same packets), hence balance identically.
- **Section 2.4**: the mod-N strawman makes an expected ≈ 1 - 1/N of
  connections unsafe per change, motivating consistent hashing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.ch import JET_FAMILIES, ModuloHash
from repro.ch.properties import check_prefix_safety, check_property1, sample_keys
from repro.core.full_ct import FullCTLoadBalancer
from repro.core.jet import JETLoadBalancer
from repro.experiments.report import Experiment, banner, format_table, run_module


def _family_factory(family: str, working: List, horizon: List) -> Callable:
    cls = JET_FAMILIES[family]
    kwargs = {}
    if family == "anchor":
        kwargs["capacity"] = 2 * (len(working) + len(horizon)) + 8
    elif family == "table":
        kwargs["rows"] = 8209
    elif family == "ring":
        kwargs["virtual_nodes"] = 50
    return lambda: cls(working=working, horizon=horizon, **kwargs)


# ----------------------------------------------------------- Theorem 4.2
def tracking_probability(
    families: Sequence[str] = ("hrw", "ring", "table", "anchor"),
    alphas: Sequence[float] = (0.05, 0.1, 0.2, 0.5),
    n_working: int = 40,
    n_keys: int = 20_000,
    seed: int = 17,
) -> List[Tuple[str, float, float, float]]:
    """Rows of (family, alpha, measured tracking prob, predicted)."""
    keys = sample_keys(n_keys, seed=seed)
    rows = []
    for family in families:
        for alpha in alphas:
            h = max(1, round(alpha * n_working))
            working = [f"w{i}" for i in range(n_working)]
            horizon = [f"h{i}" for i in range(h)]
            ch = _family_factory(family, working, horizon)()
            tracked = sum(ch.lookup_with_safety(k)[1] for k in keys)
            measured = tracked / n_keys
            predicted = h / (n_working + h)
            rows.append((family, h / n_working, measured, predicted))
    return rows


# ----------------------------------------------------------- Theorem 4.3
@dataclass
class ConcentrationResult:
    keys_per_trial: int
    gamma: float
    bound_mean: float
    trials: int
    exceed_by_t: List[Tuple[int, float, float]]  # (t, empirical, hoeffding)


def concentration(
    family: str = "anchor",
    n_working: int = 40,
    n_horizon: int = 4,
    keys_per_trial: int = 2_000,
    trials: int = 200,
    seed: int = 23,
) -> ConcentrationResult:
    """Empirical P(tracked > |K|γ/(1+γ) + t) vs exp(-2t²/|K|)."""
    working = [f"w{i}" for i in range(n_working)]
    horizon = [f"h{i}" for i in range(n_horizon)]
    ch = _family_factory(family, working, horizon)()
    gamma = n_horizon / n_working
    mean_bound = keys_per_trial * gamma / (1 + gamma)
    counts = []
    for trial in range(trials):
        keys = sample_keys(keys_per_trial, seed=seed + 1000 * trial + 1)
        counts.append(sum(ch.lookup_with_safety(k)[1] for k in keys))
    thresholds = [
        int(0.5 * math.sqrt(keys_per_trial)),
        int(1.0 * math.sqrt(keys_per_trial)),
        int(2.0 * math.sqrt(keys_per_trial)),
    ]
    exceed = []
    for t in thresholds:
        empirical = sum(c > mean_bound + t for c in counts) / trials
        hoeffding = math.exp(-2 * t * t / keys_per_trial)
        exceed.append((t, empirical, hoeffding))
    return ConcentrationResult(keys_per_trial, gamma, mean_bound, trials, exceed)


# --------------------------------------------- Theorem 4.4 / Property 1
def order_invariance(
    families: Sequence[str] = ("hrw", "ring", "table", "anchor"),
    n_working: int = 24,
    n_horizon: int = 5,
    n_keys: int = 3_000,
    seed: int = 31,
) -> Dict[str, Tuple[bool, bool]]:
    """(Property 1 holds, prefix safety holds) per family."""
    keys = sample_keys(n_keys, seed=seed)
    working = [f"w{i}" for i in range(n_working)]
    horizon = [f"h{i}" for i in range(n_horizon)]
    outcome = {}
    for family in families:
        factory = _family_factory(family, working, horizon)
        outcome[family] = (
            check_property1(factory, keys, rng=random.Random(seed)),
            check_prefix_safety(factory, keys, rng=random.Random(seed + 1)),
        )
    return outcome


# ------------------------------------------------------ Proposition 4.1
def paired_dispatching(
    family: str = "anchor",
    n_working: int = 30,
    n_horizon: int = 3,
    n_keys: int = 4_000,
    n_events: int = 20,
    seed: int = 41,
) -> Tuple[int, int]:
    """Drive a JET LB and a full-CT LB through identical packets and
    backend events; return (compared packets, disagreements).  Theorem
    guarantee: zero disagreements (no connections break here because every
    key is re-dispatched each round and both LBs track/CH identically)."""
    working = [f"w{i}" for i in range(n_working)]
    horizon = [f"h{i}" for i in range(n_horizon)]
    jet = JETLoadBalancer(_family_factory(family, working, horizon)())
    full = FullCTLoadBalancer(_family_factory(family, working, horizon)())
    keys = sample_keys(n_keys, seed=seed)
    rng = random.Random(seed)
    broken: set = set()
    truth: Dict[int, str] = {}
    compared = disagreements = 0
    for round_index in range(n_events):
        for k in keys:
            a = jet.get_destination(k)
            b = full.get_destination(k)
            compared += 1
            if k in broken:
                continue
            if a != b:
                disagreements += 1
            first = truth.setdefault(k, a)
            if a != first:
                broken.add(k)
        # One backend change per round, mirrored to both LBs.
        if rng.random() < 0.5 and len(jet.ch.horizon) > 0:
            target = sorted(jet.ch.horizon, key=str)[0]
            jet.add_working_server(target)
            full.add_working_server(target)
        elif len(jet.working) > 2:
            target = sorted(jet.working, key=str)[rng.randrange(len(jet.working))]
            jet.remove_working_server(target)
            full.remove_working_server(target)
            broken.update(k for k, d in truth.items() if d == target)
    return compared, disagreements


# ----------------------------------------------------------- Section 2.4
def modn_unsafe_fraction(
    n_servers: int = 50, n_keys: int = 10_000, seed: int = 53
) -> Tuple[float, float]:
    """(measured unsafe fraction on one addition, predicted 1 - 1/(N+1))."""
    keys = sample_keys(n_keys, seed=seed)
    working = [f"w{i}" for i in range(n_servers)]
    ch = ModuloHash(working, horizon=["h0"])
    before = {k: ch.lookup(k) for k in keys}
    ch.add_working("h0")
    moved = sum(ch.lookup(k) != before[k] for k in keys)
    return moved / n_keys, 1 - 1 / (n_servers + 1)


def _tables(result: Tuple) -> str:
    rows, conc, invariance, prop41, modn = result
    return "\n".join([
        format_table(
            ["family", "alpha", "measured", "predicted"],
            [[f, f"{a:.3f}", f"{m:.4f}", f"{p:.4f}"] for f, a, m, p in rows],
        ),
        banner("Theorem 4.3 -- concentration of the tracked count"),
        f"gamma={conc.gamma:.3f}, bound mean={conc.bound_mean:.1f} over "
        f"{conc.keys_per_trial} keys, {conc.trials} trials",
        format_table(
            ["t", "empirical P(X > mean+t)", "Hoeffding bound"],
            [[t, f"{e:.4f}", f"{h:.4f}"] for t, e, h in conc.exceed_by_t],
        ),
        banner("Theorem 4.4 / Property 1 -- order invariance"),
        format_table(
            ["family", "property 1", "prefix safety"],
            [[f, str(p1), str(pref)] for f, (p1, pref) in invariance.items()],
        ),
        banner("Proposition 4.1 -- identical dispatching JET vs full CT"),
        "compared packets: {}, disagreements: {}".format(*prop41),
        banner("Section 2.4 -- mod-N strawman unsafe fraction"),
        "measured: {:.4f}  predicted ~1-1/N: {:.4f}".format(*modn),
    ])


def _payload(result: Tuple) -> Dict:
    rows, conc, invariance, (compared, disagreements), (measured, predicted) = result
    return {
        "tracking_probability": rows,
        "concentration": {
            "gamma": conc.gamma,
            "bound_mean": conc.bound_mean,
            "exceedance": conc.exceed_by_t,
        },
        "order_invariance": {k: list(v) for k, v in invariance.items()},
        "prop41": {"compared": compared, "disagreements": disagreements},
        "modn": {"measured": measured, "predicted": predicted},
    }


THEORY = Experiment(
    name="theory", stem="theory", takes=(),
    title="Theorem 4.2 -- tracking probability = alpha/(alpha+1)",
    # Every check above at its default parameters, in the order above.
    run=lambda: (tracking_probability(), concentration(), order_invariance(),
                 paired_dispatching(), modn_unsafe_fraction()),
    tables=_tables, payload=_payload,
)


if __name__ == "__main__":
    raise SystemExit(run_module(__spec__.name))
