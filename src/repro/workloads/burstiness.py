"""Traffic-structure analysis: burstiness and asymmetry metrics.

The synthetic trace generators are calibrated against the two structural
claims the paper makes about its production traces: burstiness "at a
variety of timescales" with low average utilization, and asymmetric
per-direction load.  These metrics quantify both so tests can assert the
generators actually have the properties the results depend on.

Series are plain lists and every float total is a left-to-right
:func:`~repro.sums.left_sum`, so the numbers are the same on every
supported Python.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.sums import left_sum
from repro.units import gbps_to_bytes_per_ns
from repro.workloads.base import TraceEvent


def utilization_series(
    events: Iterable[TraceEvent],
    duration_ns: float,
    window_ns: float,
    line_rate_gbps: float,
    num_hosts: int,
) -> List[float]:
    """Aggregate injected load per window, as a fraction of capacity.

    Message bytes are attributed to the window of the injection time
    (an *offered-load* series; serialization spreading is the network's
    business).
    """
    if duration_ns <= 0 or window_ns <= 0:
        raise ValueError("duration and window must be positive")
    series = [0.0] * math.ceil(duration_ns / window_ns)
    for event in events:
        if 0 <= event.time_ns < duration_ns:
            series[int(event.time_ns // window_ns)] += event.size_bytes
    capacity = num_hosts * gbps_to_bytes_per_ns(line_rate_gbps) * window_ns
    return [load / capacity for load in series]


def coefficient_of_variation(series: Sequence[float]) -> float:
    """Population std/mean of a load series — the burstiness index per
    timescale (0 for an empty or all-zero series)."""
    if not series:
        return 0.0
    mean = left_sum(series) / len(series)
    if mean == 0.0:
        return 0.0
    variance = left_sum((x - mean) ** 2 for x in series) / len(series)
    return math.sqrt(variance) / mean


def burstiness_profile(
    events: Sequence[TraceEvent],
    duration_ns: float,
    window_sizes_ns: Sequence[float],
    line_rate_gbps: float,
    num_hosts: int,
) -> Dict[float, float]:
    """Coefficient of variation of offered load at several timescales.

    A workload that is "bursty at a variety of timescales" keeps a high
    CV even as the window grows; Poisson-like traffic's CV decays as
    ``1/sqrt(window)``.
    """
    return {
        window: coefficient_of_variation(utilization_series(
            events, duration_ns, window, line_rate_gbps, num_hosts))
        for window in window_sizes_ns
    }


def host_asymmetry(
    events: Iterable[TraceEvent], num_hosts: int
) -> Tuple[List[float], List[float]]:
    """Per-host (injected, received) byte totals.

    The imbalance between the two is what makes independent
    unidirectional-channel control pay off (Section 3.3.1 / Figure 7).
    """
    injected = [0.0] * num_hosts
    received = [0.0] * num_hosts
    for event in events:
        injected[event.src] += event.size_bytes
        received[event.dst] += event.size_bytes
    return injected, received


def mean_asymmetry_ratio(events: Sequence[TraceEvent], num_hosts: int) -> float:
    """Mean of max(in, out)/min(in, out) over hosts with traffic both ways.

    1.0 means perfectly symmetric hosts; production-like traffic with
    read-heavy file servers sits well above it.
    """
    injected, received = host_asymmetry(events, num_hosts)
    ratios = []
    for i in range(num_hosts):
        lo = min(injected[i], received[i])
        hi = max(injected[i], received[i])
        if lo > 0:
            ratios.append(hi / lo)
    if not ratios:
        return 1.0
    return left_sum(ratios) / len(ratios)
