"""Unit conventions shared across the library.

Time is expressed in **nanoseconds** (floats), data rates in **Gb/s**, and
data sizes in **bytes**.  These helpers exist so conversions are written
once and named, rather than repeated as magic constants.
"""

from __future__ import annotations

#: Nanoseconds per microsecond / millisecond / second.
US = 1_000.0
MS = 1_000_000.0
S = 1_000_000_000.0

#: Bits per byte.
BITS_PER_BYTE = 8

#: Hours in a (non-leap) year, used by the energy-cost model.
HOURS_PER_YEAR = 24 * 365


def gbps_to_bytes_per_ns(gbps: float) -> float:
    """Convert a data rate in Gb/s to bytes per nanosecond.

    1 Gb/s is 10**9 bits per 10**9 ns, i.e. exactly 1 bit/ns = 0.125 B/ns.
    """
    return gbps / BITS_PER_BYTE


def serialization_ns(size_bytes: float, rate_gbps: float) -> float:
    """Time to serialize ``size_bytes`` onto a channel running at ``rate_gbps``."""
    if rate_gbps <= 0:
        raise ValueError(f"rate must be positive, got {rate_gbps}")
    return size_bytes / gbps_to_bytes_per_ns(rate_gbps)
