"""One-stop telemetry bundle for an in-process simulation run.

:class:`Telemetry` groups the observation instruments — metrics
registry + probe, decision log, optional power monitor —
so :func:`repro.experiments.runner.run_simulation` can attach all of
them with one call::

    from repro.obs.session import Telemetry

    telemetry = Telemetry.full(power_period_ns=10_000.0)
    summary = run_simulation(spec, telemetry=telemetry)
    print(telemetry.registry.format_text())
    print(telemetry.decision_log.format_line())

Attaching telemetry never perturbs the simulation.  Probes are fully
passive (no events, no RNG), so a probe-only bundle yields a summary
bit-identical to an unobserved run; the optional power monitor samples
through daemon events, whose firing shows up in the engine's event
counter but changes no simulated outcome
(``tests/test_obs_overhead.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.decisions import DecisionLog
from repro.obs.instrument import FabricProbe
from repro.obs.metrics import MetricsRegistry


class Telemetry:
    """Instruments to attach to one run.

    Args:
        registry: Metrics namespace; a probe is wired when provided.
        decision_log: Controller audit log; defaults to an unbounded
            log so trace export sees every transition.
        power_period_ns: When set, attach a
            :class:`~repro.sim.monitors.PowerMonitor` on this period.
        power_model: Channel power model for the power monitor
            (default: the measured Figure 5 curve).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 decision_log: Optional[DecisionLog] = None,
                 power_period_ns: Optional[float] = None,
                 power_model=None):
        self.registry = registry
        self.decision_log = (decision_log if decision_log is not None
                             else DecisionLog(max_records=None))
        self.power_period_ns = power_period_ns
        self.power_model = power_model
        self.probe: Optional[FabricProbe] = None
        self.power_monitor = None
        self.network = None

    @classmethod
    def full(cls, power_period_ns: float = 10_000.0) -> "Telemetry":
        """A bundle with every instrument enabled."""
        return cls(registry=MetricsRegistry(),
                   decision_log=DecisionLog(max_records=None),
                   power_period_ns=power_period_ns)

    def attach(self, network) -> None:
        """Wire every configured instrument into ``network``.

        Called by :func:`~repro.experiments.runner.run_simulation`
        after construction and before the run; safe to call directly
        for hand-built fabrics.
        """
        self.network = network
        if self.registry is not None:
            self.probe = FabricProbe(self.registry)
            self.probe.attach(network)
        if self.power_period_ns is not None:
            from repro.sim.monitors import PowerMonitor
            from repro.power.channel_models import MeasuredChannelPower
            model = (self.power_model if self.power_model is not None
                     else MeasuredChannelPower())
            self.power_monitor = PowerMonitor(
                network, model=model, period_ns=self.power_period_ns)
