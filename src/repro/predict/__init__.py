"""repro.predict — predictive rate control for the FBFLY fabric.

The paper's Section 5.2 sketches "more aggressive" rate policies; this
package builds the full predictive control plane around that idea:

- :mod:`repro.predict.forecasters` — pluggable per-link demand
  forecasters (last-value, EWMA, Holt's trend, sliding-window
  quantile) behind one :class:`~repro.predict.forecasters.Forecaster`
  protocol.
- :mod:`repro.predict.controller` — the
  :class:`~repro.predict.controller.PredictiveEpochController`, which
  drives the rate ladder from next-epoch forecasts plus headroom
  instead of the trailing epoch's utilization.
- :mod:`repro.predict.oracle` — the clairvoyant two-pass
  :class:`~repro.predict.oracle.OracleController`: a per-trace lower
  bound on link power (how well perfect prediction would have done).
- :mod:`repro.predict.regret` — forecast-error ledgers and
  energy/latency regret of any controller against the oracle and the
  full-rate baseline.

Importing this package registers the ``"predict"`` and ``"oracle"``
control modes with :mod:`repro.core.registry`, which is how
``SimulationSpec(control="predict", forecaster="ewma", ...)`` reaches
these controllers through the ordinary run/cache/sweep machinery (the
runner imports this package lazily the first time it meets an
unregistered control mode).
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.core.registry import (
    control_mode_registered,
    register_control_mode,
)

__getattr__, __dir__ = lazy_exports(__name__, {
    ".controller": ("PredictiveEpochController",),
    ".forecasters": ("FORECASTERS", "EwmaForecaster", "Forecaster",
                     "HoltWintersForecaster", "LastValueForecaster",
                     "SlidingQuantileForecaster", "build_forecaster"),
    ".oracle": ("OracleController", "measure_demand"),
    ".regret": ("ERROR_BUCKETS_GBPS", "ForecastAccountant",
                "ForecastErrorStats", "RegretReport", "RegretRow",
                "build_report", "energy_regret", "latency_regret"),
})

CONTROL_PREDICT = "predict"
CONTROL_ORACLE = "oracle"


def _build_predictive(network, spec, decision_log):
    """Control-mode builder for ``control="predict"`` specs."""
    from repro.core.controller import ControllerConfig
    from repro.predict.controller import PredictiveEpochController
    from repro.predict.forecasters import build_forecaster

    return PredictiveEpochController(
        network,
        forecaster=build_forecaster(spec.forecaster or "last_value"),
        headroom=spec.headroom,
        policy=spec.build_policy(),
        config=ControllerConfig.from_spec(spec),
        decision_log=decision_log,
    )


def _build_oracle(network, spec, decision_log):
    """Control-mode builder for ``control="oracle"`` specs.

    Runs the measurement pass (a second full-rate simulation of the
    same spec) inline, so an oracle run costs roughly two runs.
    """
    from repro.core.controller import ControllerConfig
    from repro.predict.oracle import OracleController, measure_demand

    return OracleController(
        network,
        schedule=measure_demand(spec),
        headroom=spec.headroom,
        config=ControllerConfig.from_spec(spec),
        decision_log=decision_log,
    )


if not control_mode_registered(CONTROL_PREDICT):
    register_control_mode(CONTROL_PREDICT, _build_predictive)
if not control_mode_registered(CONTROL_ORACLE):
    register_control_mode(CONTROL_ORACLE, _build_oracle)

__all__ = [
    "CONTROL_PREDICT",
    "CONTROL_ORACLE",
    "Forecaster",
    "LastValueForecaster",
    "EwmaForecaster",
    "HoltWintersForecaster",
    "SlidingQuantileForecaster",
    "FORECASTERS",
    "build_forecaster",
    "PredictiveEpochController",
    "OracleController",
    "measure_demand",
    "ForecastAccountant",
    "ForecastErrorStats",
    "ERROR_BUCKETS_GBPS",
    "RegretReport",
    "RegretRow",
    "build_report",
    "energy_regret",
    "latency_regret",
]
