"""Rate-decision policies.

A policy answers one question at every epoch boundary, per control group:
given the group's utilization over the epoch just ended (busy fraction at
the *current* rate) and the current rate, what rate should the next epoch
run at?

The paper's heuristic (Section 3.3) uses utilization as its only input:

    "We set a target utilization for each link, and if the actual
    utilization is less than the target, we detune the speed of the link
    to half the current rate, down to the minimum.  If the utilization
    exceeds the target, then the link rate is doubled up to the maximum."

Section 5.2 sketches better heuristics, which we also implement: jumping
straight to the extremes for bursty traffic (:class:`AggressivePolicy`),
a guard band against meta-instability (:class:`HysteresisPolicy`), and a
"more complex predictive model" (:class:`PredictivePolicy`).
"""

from __future__ import annotations

from typing import Dict, Protocol

from repro.power.link_rates import RateLadder


class RatePolicy(Protocol):
    """Decides the next rate for a control group."""

    def decide(self, group_key: object, current_rate: float,
               utilization: float, ladder: RateLadder) -> float:
        """Return the rate for the next epoch.

        Args:
            group_key: Stable identity of the control group (policies
                with per-group state key it).
            current_rate: Rate (Gb/s) the group ran at during the epoch.
            utilization: Busy fraction in [0, 1+] at ``current_rate``.
            ladder: The legal rate ladder.
        """
        ...


def _check_target(target_utilization: float) -> None:
    if not 0.0 < target_utilization <= 1.0:
        raise ValueError(
            f"target must be in (0, 1], got {target_utilization}")


def _check_utilization(utilization: float) -> None:
    if utilization < 0:
        raise ValueError(f"utilization cannot be negative: {utilization}")


class ThresholdPolicy:
    """The paper's heuristic: one target, halve below it, double above it."""

    def __init__(self, target_utilization: float = 0.5):
        _check_target(target_utilization)
        self.target_utilization = target_utilization

    def decide(self, group_key: object, current_rate: float,
               utilization: float, ladder: RateLadder) -> float:
        """Return the next-epoch rate for the group; see RatePolicy."""
        _check_utilization(utilization)
        if utilization > self.target_utilization:
            return ladder.step_up(current_rate)
        if utilization < self.target_utilization:
            return ladder.step_down(current_rate)
        return current_rate

    def __repr__(self) -> str:
        return f"ThresholdPolicy(target={self.target_utilization})"


class HysteresisPolicy:
    """Threshold policy with a dead band to damp meta-instability.

    The paper warns that reconfiguring too eagerly risks "meta-instability
    arising from too-frequent reconfiguration"; a (low, high) band holds
    the rate whenever utilization falls between the two thresholds.
    """

    def __init__(self, low: float = 0.25, high: float = 0.75):
        if not 0.0 <= low < high <= 1.0:
            raise ValueError(f"need 0 <= low < high <= 1, got ({low}, {high})")
        self.low = low
        self.high = high

    def decide(self, group_key: object, current_rate: float,
               utilization: float, ladder: RateLadder) -> float:
        """Return the next-epoch rate for the group; see RatePolicy."""
        _check_utilization(utilization)
        if utilization > self.high:
            return ladder.step_up(current_rate)
        if utilization < self.low:
            return ladder.step_down(current_rate)
        return current_rate

    def __repr__(self) -> str:
        return f"HysteresisPolicy(low={self.low}, high={self.high})"


class AggressivePolicy:
    """Section 5.2: jump straight to the lowest or highest mode.

    "With bursty workloads, it may be advantageous to immediately tune
    links to either their lowest or highest performance mode without
    going through the intermediate steps."
    """

    def __init__(self, target_utilization: float = 0.5):
        _check_target(target_utilization)
        self.target_utilization = target_utilization

    def decide(self, group_key: object, current_rate: float,
               utilization: float, ladder: RateLadder) -> float:
        """Return the next-epoch rate for the group; see RatePolicy."""
        _check_utilization(utilization)
        if utilization > self.target_utilization:
            return ladder.max_rate
        if utilization < self.target_utilization:
            return ladder.min_rate
        return current_rate

    def __repr__(self) -> str:
        return f"AggressivePolicy(target={self.target_utilization})"


class DemandLadderPolicy:
    """Jump straight to the slowest rate whose capacity covers demand.

    Where :class:`ThresholdPolicy` walks the ladder one rung per epoch,
    this policy converts the estimate into absolute demand
    (``estimate x current_rate``) and selects, in a single epoch, the
    slowest ladder rate that keeps that demand at or under the target
    utilization.  Stateless and memoryless — the natural *actuator* for
    the forecasting controllers of :mod:`repro.predict`, whose
    forecasters already provide the smoothing; pairing it with a raw
    utilization estimate instead gives a multi-step reactive ablation.
    """

    def __init__(self, target_utilization: float = 0.5):
        _check_target(target_utilization)
        self.target_utilization = target_utilization

    def decide(self, group_key: object, current_rate: float,
               utilization: float, ladder: RateLadder) -> float:
        """Return the next-epoch rate for the group; see RatePolicy."""
        _check_utilization(utilization)
        return ladder.slowest_covering(utilization * current_rate,
                                       self.target_utilization)

    def __repr__(self) -> str:
        return f"DemandLadderPolicy(target={self.target_utilization})"


class PredictivePolicy:
    """Section 5.2's "more complex predictive models": EWMA demand tracking.

    Maintains an exponentially weighted moving average of each group's
    *absolute* bandwidth demand (utilization x current rate) and selects
    the slowest rate that keeps predicted demand under the target
    utilization — so a group can drop several steps in one epoch and
    recover instantly when a burst returns.
    """

    def __init__(self, target_utilization: float = 0.5, alpha: float = 0.5):
        _check_target(target_utilization)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.target_utilization = target_utilization
        self.alpha = alpha
        self._demand_gbps: Dict[object, float] = {}

    def decide(self, group_key: object, current_rate: float,
               utilization: float, ladder: RateLadder) -> float:
        """Return the next-epoch rate for the group; see RatePolicy."""
        _check_utilization(utilization)
        observed = utilization * current_rate
        previous = self._demand_gbps.get(group_key, observed)
        predicted = self.alpha * observed + (1.0 - self.alpha) * previous
        self._demand_gbps[group_key] = predicted
        return ladder.slowest_covering(predicted, self.target_utilization)

    def __repr__(self) -> str:
        return (f"PredictivePolicy(target={self.target_utilization}, "
                f"alpha={self.alpha})")
