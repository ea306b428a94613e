"""Per-link load forecasters behind one protocol.

Section 5 of the paper stops at *reactive* control: the epoch
controller only reacts after demand has already arrived (or left),
which is exactly one epoch too late on both edges of a burst.  A
:class:`Forecaster` closes that gap: every epoch it ingests the
demand a control group actually offered (Gb/s) and returns a forecast
of the *next* epoch's demand, which the predictive controller
(:mod:`repro.predict.controller`) provisions for.

Design rules every forecaster obeys:

- **Pure and deterministic** — state is only what ``update`` folds in;
  no RNG, no wall clock, no global state.  The same observation
  sequence always yields the same forecast sequence, so predictive runs
  cache and replay bit-identically through the sweep harness.
- **Per-key state** — one forecaster instance serves every control
  group, keyed the same way the stateful rate policies key their state,
  so group count never changes forecaster behaviour.
- **Non-negative output** — demand forecasts are clamped at zero
  (a trend model extrapolating a steep ramp-down would otherwise go
  negative); the controller clamps the top end to the rate ladder.

The module registry (:data:`FORECASTERS` / :func:`build_forecaster`)
maps spec-level names to zero-argument factories, mirroring the policy
registry in :mod:`repro.experiments.runner`.
"""

from __future__ import annotations

import collections
import math
from typing import Callable, Deque, Dict, Protocol, Tuple


class Forecaster(Protocol):
    """Forecasts one control group's next-epoch demand."""

    def update(self, group_key: object, observed_gbps: float) -> float:
        """Ingest one epoch's observed demand; return the next forecast.

        Args:
            group_key: Stable identity of the control group.
            observed_gbps: Demand (Gb/s) the group offered over the
                epoch just ended.

        Returns:
            Forecast demand (Gb/s, non-negative) for the next epoch.
        """
        ...


def _check_observed(observed_gbps: float) -> None:
    if observed_gbps < 0.0 or math.isnan(observed_gbps):
        raise ValueError(
            f"observed demand must be non-negative, got {observed_gbps}")


class LastValueForecaster:
    """Tomorrow looks exactly like today.

    Returns the observation unchanged (bitwise — no arithmetic touches
    it), which is what makes the predictive controller with this
    forecaster and zero headroom reproduce the reactive controller's
    decisions exactly (``tests/test_predict_controller.py``).
    """

    def update(self, group_key: object, observed_gbps: float) -> float:
        """Ingest one epoch's demand; see :class:`Forecaster`."""
        _check_observed(observed_gbps)
        return observed_gbps

    def __repr__(self) -> str:
        return "LastValueForecaster()"


class EwmaForecaster:
    """Exponentially weighted moving average of demand.

    The first observation initializes the average, so a constant series
    forecasts that constant from the very first epoch.  Low ``alpha``
    smooths bursts away (good for energy, slow to ramp); high ``alpha``
    approaches last-value.
    """

    def __init__(self, alpha: float = 0.4):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._smoothed: Dict[object, float] = {}

    def update(self, group_key: object, observed_gbps: float) -> float:
        """Ingest one epoch's demand; see :class:`Forecaster`."""
        _check_observed(observed_gbps)
        previous = self._smoothed.get(group_key, observed_gbps)
        value = self.alpha * observed_gbps + (1.0 - self.alpha) * previous
        self._smoothed[group_key] = value
        return value

    def __repr__(self) -> str:
        return f"EwmaForecaster(alpha={self.alpha})"


class HoltWintersForecaster:
    """Holt's double-exponential smoothing: level plus linear trend.

    Tracks a smoothed level and a smoothed per-epoch trend; the
    forecast is ``level + trend``, clamped at zero.  The trend term is
    what lets this forecaster ramp a link *up before* a building burst
    arrives and *down while* it decays — the paper's "more aggressive"
    predictive policy sketched in Section 5.2.  (No seasonal term: at
    epoch timescales datacenter traffic has bursts, not seasons.)
    """

    def __init__(self, alpha: float = 0.5, beta: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        self.alpha = alpha
        self.beta = beta
        self._state: Dict[object, Tuple[float, float]] = {}

    def update(self, group_key: object, observed_gbps: float) -> float:
        """Ingest one epoch's demand; see :class:`Forecaster`."""
        _check_observed(observed_gbps)
        state = self._state.get(group_key)
        if state is None:
            level, trend = observed_gbps, 0.0
        else:
            prev_level, prev_trend = state
            level = (self.alpha * observed_gbps
                     + (1.0 - self.alpha) * (prev_level + prev_trend))
            trend = (self.beta * (level - prev_level)
                     + (1.0 - self.beta) * prev_trend)
        self._state[group_key] = (level, trend)
        return max(0.0, level + trend)

    def __repr__(self) -> str:
        return (f"HoltWintersForecaster(alpha={self.alpha}, "
                f"beta={self.beta})")


class SlidingQuantileForecaster:
    """Upper quantile of a sliding demand window — the bursty-trace
    forecaster.

    ON/OFF traffic defeats mean-tracking forecasters: the mean sits far
    below burst demand, so EWMA-provisioned links saturate on every ON
    phase.  Provisioning to an upper quantile of the recent window
    instead keeps capacity for the bursts the window has seen, while a
    long OFF stretch ages them out and lets the rate drop.

    The quantile is the deterministic nearest-rank statistic of the
    sorted window (no interpolation — forecasts are always values that
    were actually observed, hence trivially bounded by the window max).
    """

    def __init__(self, window: int = 16, quantile: float = 0.9):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0.0 < quantile <= 1.0:
            raise ValueError(
                f"quantile must be in (0, 1], got {quantile}")
        self.window = window
        self.quantile = quantile
        self._windows: Dict[object, Deque[float]] = {}

    def update(self, group_key: object, observed_gbps: float) -> float:
        """Ingest one epoch's demand; see :class:`Forecaster`."""
        _check_observed(observed_gbps)
        window = self._windows.get(group_key)
        if window is None:
            window = collections.deque(maxlen=self.window)
            self._windows[group_key] = window
        window.append(observed_gbps)
        ordered = sorted(window)
        rank = max(1, math.ceil(self.quantile * len(ordered)))
        return ordered[rank - 1]

    def __repr__(self) -> str:
        return (f"SlidingQuantileForecaster(window={self.window}, "
                f"quantile={self.quantile})")


#: Spec-level name -> zero-argument factory (the defaults the
#: ``predictive`` experiment and CLI sweep compare).
FORECASTERS: Dict[str, Callable[[], Forecaster]] = {
    "last_value": LastValueForecaster,
    "ewma": EwmaForecaster,
    "holt_winters": HoltWintersForecaster,
    "quantile": SlidingQuantileForecaster,
}


def build_forecaster(name: str) -> Forecaster:
    """Construct a registered forecaster by name.

    Raises:
        ValueError: For names outside :data:`FORECASTERS`.
    """
    try:
        factory = FORECASTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown forecaster {name!r}; known forecasters: "
            f"{', '.join(sorted(FORECASTERS))}") from None
    return factory()
