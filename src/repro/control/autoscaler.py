"""Predictive autoscaler whose pending additions *are* JET's horizon.

JET's §2.3 contract says the dataplane knows the horizon set H -- the
servers about to join W -- ahead of time.  In a real deployment nothing
hands H down from above: it is the autoscaler's launch queue.  A scale-out
decision starts a server booting (``lead_time_s`` of warm-up), and during
exactly that window the server's identity can sit in H, so JET tracks the
connections its arrival could move.  The autoscaler therefore *is* the
horizon oracle, and its forecast quality bounds JET's consistency:

- a **missed** addition (the scaler failed to predict, or the announcement
  was lost) joins W as a *surprise* (``force_add_working_server``) and its
  PCC exposure is unprotected;
- a **phantom** announcement (predicted growth that never materialised)
  wastes tracking: flows are tracked against an addition that never
  happens.

:class:`HorizonScorecard` reports exactly this as precision / recall over
announcements vs realized additions.  :class:`Autoscaler` produces the
decisions: it watches a load gauge (mean active flows per working server),
extrapolates it ``lead_time_s`` ahead over a sliding window, and plans
against high/low watermarks with hysteresis (cooldown + distinct up/down
thresholds) so noise doesn't thrash the backend set.

Forecast degradation is explicit and seeded: ``forecast_recall`` is the
probability a genuine scale-out is announced into H (below 1.0, some
joins become surprises); ``forecast_precision`` injects phantom
announcements at rate ``(1 - precision)`` per genuine one.  Sweeping both
is how ``experiments/control_loop.py`` maps forecast quality onto tracked
fraction and PCC breakage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.hashing.mix import splitmix64

#: Scale out when the forecast load passes this multiple of the target.
HIGH_WATERMARK = 1.25
#: Scale in when the forecast load falls below this multiple of the target.
LOW_WATERMARK = 0.5
#: Load samples the least-squares forecast fits.
FORECAST_WINDOW = 8
#: Most servers one decision launches or retires.
MAX_STEP = 2


@dataclass
class HorizonScorecard:
    """Precision/recall of horizon announcements vs realized additions.

    An announcement is **matched** when the announced server later joins
    W; **phantom** when it expires unrealized; an addition is **missed**
    when the server joined W without ever being announced.  Announcements
    still pending at evaluation time are excluded (they are not yet
    right or wrong).
    """

    matched: int = 0
    phantom: int = 0
    missed: int = 0

    @property
    def precision(self) -> Optional[float]:
        judged = self.matched + self.phantom
        return self.matched / judged if judged else None

    @property
    def recall(self) -> Optional[float]:
        realized = self.matched + self.missed
        return self.matched / realized if realized else None


@dataclass(frozen=True)
class ScaleDecision:
    """One autoscaler action, emitted by :meth:`Autoscaler.plan`."""

    kind: str           # "launch" | "retire"
    count: int
    #: How many of ``count`` launches carry an announcement (the rest are
    #: recall misses whose joins land as surprises).  Per-launch draws,
    #: so sweeping ``forecast_recall`` moves this smoothly.
    announced: int
    phantoms: int = 0   # extra announcements that will never realize


class Autoscaler:
    """Watermark autoscaler with linear load forecasting and hysteresis."""

    def __init__(
        self,
        target_load: float = 8.0,
        lead_time_s: float = 5.0,
        cooldown_s: float = 10.0,
        forecast_precision: float = 1.0,
        forecast_recall: float = 1.0,
        seed: int = 0,
    ):
        if target_load <= 0:
            raise ValueError("target_load must be positive")
        if not 0.0 <= forecast_precision <= 1.0:
            raise ValueError("forecast_precision must be in [0, 1]")
        if not 0.0 <= forecast_recall <= 1.0:
            raise ValueError("forecast_recall must be in [0, 1]")
        self.target_load = target_load
        self.lead_time_s = lead_time_s
        self.cooldown_s = cooldown_s
        self.forecast_precision = forecast_precision
        self.forecast_recall = forecast_recall
        self._rng = random.Random(splitmix64(seed ^ 0x5CA1_E0DD))
        self._samples: List[Tuple[float, float]] = []  # (t, load/server)
        self._last_action_at = float("-inf")
        #: While set, observe() discards fresh samples (stale-autoscaler
        #: chaos): plans keep extrapolating a frozen signal.
        self._frozen_until: Optional[float] = None
        self.scale_outs = 0
        self.scale_ins = 0

    # ------------------------------------------------------------ sensing
    def freeze(self, until: float) -> None:
        """Chaos hook: the load signal stops updating until ``until``."""
        self._frozen_until = until

    def observe(self, now: float, active_flows: int, working: int) -> None:
        """Feed one load sample (mean active flows per working server)."""
        if self._frozen_until is not None:
            if now < self._frozen_until:
                return
            self._frozen_until = None
        load = active_flows / working if working else float(active_flows)
        self._samples.append((now, load))
        if len(self._samples) > FORECAST_WINDOW:
            del self._samples[0]

    def forecast(self, now: float) -> Optional[float]:
        """Least-squares linear extrapolation ``lead_time_s`` ahead."""
        if len(self._samples) < 2:
            return self._samples[-1][1] if self._samples else None
        ts = [t for t, _ in self._samples]
        ys = [y for _, y in self._samples]
        n = len(ts)
        mt = sum(ts) / n
        my = sum(ys) / n
        var = sum((t - mt) ** 2 for t in ts)
        if var == 0:
            return ys[-1]
        slope = sum((t - mt) * (y - my) for t, y in zip(ts, ys)) / var
        return my + slope * (now + self.lead_time_s - mt)

    # ----------------------------------------------------------- planning
    def plan(self, now: float, working: int) -> Optional[ScaleDecision]:
        """Decide whether to launch or retire servers.

        Returns ``None`` inside the cooldown window, with an unusable
        forecast, or while load sits between the watermarks (hysteresis
        band).  A ``launch`` decision carries the seeded forecast-quality
        draws: ``announced=False`` models a recall miss, ``phantoms > 0``
        models precision misses.
        """
        if now - self._last_action_at < self.cooldown_s:
            return None
        predicted = self.forecast(now)
        if predicted is None or working <= 0:
            return None
        # predicted is load *per server*; the server count that brings it
        # back to target is current_total_load / target_load.
        desired = predicted * working / self.target_load
        if predicted > HIGH_WATERMARK * self.target_load:
            want = min(MAX_STEP, max(1, round(desired) - working))
            self._last_action_at = now
            self.scale_outs += 1
            announced = sum(
                1
                for _ in range(want)
                if self._rng.random() < self.forecast_recall
            )
            phantoms = 0
            if self.forecast_precision < 1.0:
                # precision = matched / (matched + phantom): each genuine
                # announcement drags (1-p)/p expected phantoms with it.
                odds = (1.0 - self.forecast_precision) / self.forecast_precision
                whole = int(odds)
                for _ in range(announced):
                    phantoms += whole + (
                        1 if self._rng.random() < odds - whole else 0
                    )
            return ScaleDecision("launch", want, announced, phantoms)
        if predicted < LOW_WATERMARK * self.target_load and working > 1:
            want = min(MAX_STEP, working - 1)
            self._last_action_at = now
            self.scale_ins += 1
            return ScaleDecision("retire", want, announced=0)
        return None
