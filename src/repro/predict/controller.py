"""The predictive epoch controller: provision for forecast demand.

The reactive controller of Section 3.3 sets each epoch's rate from the
*previous* epoch's utilization, so it is structurally one epoch late:
a burst's first epoch runs under-provisioned (latency) and its last
epoch runs over-provisioned (energy).  The
:class:`PredictiveEpochController` replaces the trailing observation
with a forecast of the *next* epoch's demand from a pluggable
:class:`~repro.predict.forecasters.Forecaster`, padded by a
configurable ``headroom`` fraction and clamped to the rate ladder by
the policy as usual.

Everything else — epoch cadence, control groups, the powered-off skip,
drain/reactivation and the decision audit — is inherited from
:class:`~repro.core.controller.EpochController`; only
``_decide_group`` is overridden.

Two properties the tests pin down:

- **Reactive equivalence**: with the last-value forecaster and zero
  headroom the forecast equals the observation bitwise, the controller
  detects the forecast as *inactive* and passes the sensor estimate
  through untouched (no ``(u * r) / r`` round-trip), so every decision
  — rate, reason, counters — reproduces the reactive controller
  bit-for-bit.
- **Attribution**: when the forecast *is* active and changes the
  outcome relative to what raw utilization alone would have done, the
  decision reason becomes one of the forecast codes
  (``forecast_ramp_up`` / ``forecast_hold`` / ``forecast_miss``), so
  the decision log separates prediction-driven reconfigurations from
  ordinary threshold crossings.

Every scored forecast (from the second epoch on) also feeds the
:class:`~repro.predict.regret.ForecastAccountant`, whose error
distributions end up on the run summary.
"""

from __future__ import annotations

from typing import Optional

from repro.core.controller import EpochController
from repro.core.grouping import ChannelGroup
from repro.core.sensors import GroupReading
from repro.obs.decisions import (
    DecisionLog,
    FORECAST_HOLD,
    FORECAST_MISS,
    FORECAST_RAMP_UP,
    classify_reason,
)
from repro.predict.forecasters import Forecaster, LastValueForecaster
from repro.predict.regret import ForecastAccountant


class PredictiveEpochController(EpochController):
    """Epoch controller whose policy sees forecast demand, not trailing.

    Args:
        network: The fabric to control (see
            :class:`~repro.core.controller.EpochController`).
        forecaster: Next-epoch demand forecaster shared across groups
            (per-group state lives inside it, keyed by group name).
            Defaults to last-value, i.e. reactive behaviour.
        headroom: Extra fractional capacity provisioned above the
            forecast (``0.25`` provisions for 125% of predicted
            demand).  Trades energy for forecast-miss tolerance.
        **kwargs: Forwarded to :class:`EpochController` (policy,
            config, groups, sensor, decision_log, name).
    """

    def __init__(self, network, forecaster: Optional[Forecaster] = None,
                 headroom: float = 0.0, name: str = "predict", **kwargs):
        if headroom < 0.0:
            raise ValueError(f"headroom must be >= 0, got {headroom}")
        super().__init__(network, name=name, **kwargs)
        self.forecaster = (forecaster if forecaster is not None
                           else LastValueForecaster())
        self.headroom = headroom
        self.accountant = ForecastAccountant()
        #: Forecast issued last epoch, awaiting its observation.
        self._pending: dict = {}
        self.forecast_ramp_ups = 0
        self.forecast_holds = 0
        self.forecast_misses = 0

    def _decide_group(self, group: ChannelGroup, reading: GroupReading,
                      ladder, now: float,
                      log: Optional[DecisionLog]) -> None:
        raw = self.sensor.estimate(group, reading)
        current = group.current_rate
        observed = raw * current  # demand in Gb/s

        # Score last epoch's forecast against what actually arrived.
        pending = self._pending.get(group.name)
        missed = False
        if pending is not None:
            provisioned = pending * (1.0 + self.headroom)
            self.accountant.observe(group.name, predicted=pending,
                                    observed=observed,
                                    provisioned=provisioned)
            missed = observed > provisioned

        predicted = self.forecaster.update(group.name, observed)
        self._pending[group.name] = predicted

        # The forecast is "active" only when it actually deviates from
        # the trailing observation (or headroom pads it).  An inactive
        # forecast passes the sensor estimate through *untouched*: the
        # scaled form below is mathematically identity but a float
        # round-trip, and reactive equivalence must be bitwise.
        active = predicted != observed or self.headroom != 0.0
        if not active:
            estimate = raw
        elif observed > 0.0:
            estimate = raw * (predicted / observed) * (1.0 + self.headroom)
        else:
            estimate = predicted * (1.0 + self.headroom) / current

        new_rate = self.policy.decide(group, current, estimate, ladder)
        changed = group.set_rate(new_rate, self.config.reactivation_ns)
        if changed:
            self.reconfigurations += 1

        reason = classify_reason(current, new_rate, changed, estimate,
                                 ladder, self.policy)
        if active:
            reason = self._attribute_forecast(reason, current, new_rate,
                                              changed, raw, missed, ladder)

        if log is not None:
            log.record(now, self.name, group.name, group.channel_names,
                       current, new_rate, reason, changed, estimate,
                       reading.utilization, reading.queue_fraction,
                       reading.credit_stalls,
                       self.config.reactivation_ns if changed else 0.0,
                       forecast_gbps=predicted, observed_gbps=observed)

    def predict_summary(self) -> dict:
        """JSON-safe digest stamped onto the run summary."""
        return {
            "mode": "predict",
            "forecaster": repr(self.forecaster),
            "headroom": self.headroom,
            "forecast_ramp_ups": self.forecast_ramp_ups,
            "forecast_holds": self.forecast_holds,
            "forecast_misses": self.forecast_misses,
            "errors": self.accountant.to_dict(),
        }

    def _attribute_forecast(self, reason: str, current: float,
                            new_rate: float, changed: bool, raw: float,
                            missed: bool, ladder) -> str:
        """Re-attribute a decision to the forecast where it drove it.

        Compares the actual outcome against what the *raw* (trailing)
        estimate alone would have asked for, using the same threshold
        attributes :func:`classify_reason` inspects.  Decisions the raw
        estimate would have made identically keep their reactive codes.
        """
        target = getattr(self.policy, "target_utilization", None)
        high = getattr(self.policy, "high", target)
        low = getattr(self.policy, "low", target)
        if changed and new_rate > current:
            if missed:
                self.forecast_misses += 1
                return FORECAST_MISS
            if high is not None and raw <= high:
                self.forecast_ramp_ups += 1
                return FORECAST_RAMP_UP
        elif (not changed and new_rate == current
              and current != ladder.min_rate
              and low is not None and raw < low):
            self.forecast_holds += 1
            return FORECAST_HOLD
        return reason
