"""Workload substrate.

The paper drives its simulator with one synthetic pattern and two
production traces:

- *Uniform*: "each host repeatedly sends a 512k message to a new random
  destination" — :mod:`repro.workloads.uniform`.
- *Advert* and *Search*: traces from a production datacenter, scaled up
  and with placement randomized.  Production traces are not available,
  so :mod:`repro.workloads.synthetic_traces` builds calibrated synthetic
  equivalents reproducing the three properties the paper's results rest
  on: low average utilization (5-25%), burstiness across timescales, and
  asymmetric per-direction channel load.

:mod:`repro.workloads.trace` reads/writes trace files (so real traces
can be substituted back in) and provides the paper's scaling and
placement-randomization transforms; :mod:`repro.workloads.burstiness`
quantifies the properties the generators are calibrated against.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("TraceEvent", "Workload", "merge_event_streams"),
    ".uniform": ("UniformRandomWorkload",),
    ".synthetic_traces": ("BurstyTraceWorkload", "TraceProfile",
                          "SEARCH_PROFILE", "ADVERT_PROFILE", "BURSTY_PROFILE",
                          "search_workload", "advert_workload",
                          "bursty_workload"),
    ".trace": ("save_trace", "load_trace", "ReplayWorkload",
               "randomize_placement", "scale_time"),
    ".burstiness": ("utilization_series", "burstiness_profile",
                    "coefficient_of_variation", "host_asymmetry",
                    "mean_asymmetry_ratio"),
    ".service_traces": ("DiurnalTraceSource",),
})

__all__ = [
    "TraceEvent",
    "Workload",
    "merge_event_streams",
    "UniformRandomWorkload",
    "BurstyTraceWorkload",
    "TraceProfile",
    "SEARCH_PROFILE",
    "ADVERT_PROFILE",
    "BURSTY_PROFILE",
    "search_workload",
    "advert_workload",
    "bursty_workload",
    "save_trace",
    "load_trace",
    "ReplayWorkload",
    "randomize_placement",
    "scale_time",
    "utilization_series",
    "burstiness_profile",
    "coefficient_of_variation",
    "host_asymmetry",
    "mean_asymmetry_ratio",
    "DiurnalTraceSource",
]
