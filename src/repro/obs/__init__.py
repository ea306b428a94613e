"""Unified telemetry layer: metrics, decision audit, provenance, traces.

The paper's headline results hinge on *why* the epoch controller picked
each rate transition, yet end-of-run aggregates alone cannot answer
that.  This package is the machine-readable observation layer every
other subsystem reports through:

- :mod:`repro.obs.metrics` — a :class:`~repro.obs.metrics.MetricsRegistry`
  of counters, gauges and fixed-bucket histograms, plus a text dump.
- :mod:`repro.obs.instrument` — a
  :class:`~repro.obs.instrument.FabricProbe` wiring the registry into
  the engine, channels, switches and hosts through the fabric's
  ``probe`` slot: one near-zero-cost ``is None`` check per hook site.
- :mod:`repro.obs.decisions` — a
  :class:`~repro.obs.decisions.DecisionLog` auditing every epoch
  controller decision (sensor reading, old -> new rate, reason) into a
  bounded ring buffer with optional JSONL spill.
- :mod:`repro.obs.runrecord` — provenance-stamped JSONL run records
  (canonical spec, cache key, cached flag, git SHA, ``REPRO_*`` env)
  appended by the sweep harness so any figure traces back to the exact
  runs that produced it.
- :mod:`repro.obs.session` — a :class:`~repro.obs.session.Telemetry`
  bundle attaching all of the above to one in-process run.
- :mod:`repro.obs.trace_export` — Chrome trace-event JSON export
  (per-channel rate tracks, epoch boundaries, power samples) loadable
  in Perfetto / ``chrome://tracing``.

This package observes *simulated* time.  Wall-clock measurement lives
outside the library, in ``e2ebench/``: end-to-end metrics per workload
plus per-layer self time from span tracing (``e2ebench/spans.py``).

Only the dependency-free core (metrics, decisions) is re-exported
here; import :mod:`repro.obs.runrecord`, :mod:`repro.obs.session` and
:mod:`repro.obs.trace_export` directly — they depend on
:mod:`repro.experiments`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".decisions": ("Decision", "DecisionLog"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
})

__all__ = [
    "Counter",
    "Decision",
    "DecisionLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
