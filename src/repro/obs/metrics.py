"""Metrics primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments,
get-or-created on first use so instrumentation sites never need to
coordinate declarations.  The three instrument kinds mirror the
Prometheus data model, restricted to what a simulation needs:

- :class:`Counter` — monotonically increasing count (packets forwarded,
  rate transitions).
- :class:`Gauge` — last-written value (events fired, time-at-rate
  fractions stamped at finalize).
- :class:`Histogram` — fixed upper-bound buckets plus sum/count/min/max
  (queue depths, packet and message latencies).  Fixed buckets keep
  ``observe`` O(#buckets) with zero allocation, which is what lets the
  probes sit on per-packet hot paths.

``registry.format_text()`` renders everything as a deterministic,
Prometheus-flavoured text dump for the CLI and CI artifacts.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

#: Default latency buckets in nanoseconds (1 us .. 10 ms, log-spaced).
LATENCY_BUCKETS_NS = (1e3, 1e4, 1e5, 1e6, 1e7)

#: Default queue-depth buckets in bytes (powers of four up to 64 KiB).
QUEUE_DEPTH_BUCKETS_BYTES = (256.0, 1024.0, 4096.0, 16384.0, 65536.0)

#: Decision-latency buckets for the live control-plane service
#: (virtual ns): 10 ms .. 100 s — fresh epoch processing lands in the
#: low buckets, a backlogged consumer walks up them.
SERVICE_LATENCY_BUCKETS_NS = (1e7, 1e8, 1e9, 1e10, 1e11)


class Counter:
    """A monotonically increasing count.

    Args:
        name: Registry-unique instrument name.
        help: One-line description rendered in the text dump.
    """

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-written instantaneous value.

    Args:
        name: Registry-unique instrument name.
        help: One-line description rendered in the text dump.
    """

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram with sum, count, min and max.

    Buckets are cumulative upper bounds (Prometheus ``le`` semantics);
    an implicit ``+Inf`` bucket catches everything beyond the last
    bound.  Bounds are fixed at construction so ``observe`` allocates
    nothing.

    Args:
        name: Registry-unique instrument name.
        buckets: Strictly increasing finite upper bounds.
        help: One-line description rendered in the text dump.
    """

    __slots__ = ("name", "help", "bounds", "counts", "count", "total",
                 "minimum", "maximum")

    def __init__(self, name: str, buckets: Sequence[float],
                 help: str = ""):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name} buckets must strictly increase: {bounds}")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"histogram {name} buckets must be finite")
        self.name = name
        self.help = help
        self.bounds = bounds
        #: Per-bucket observation counts; index -1 is the +Inf bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def cumulative_counts(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out

    def __repr__(self) -> str:
        return (f"Histogram({self.name}, n={self.count}, "
                f"mean={self.mean:.1f})")


class MetricsRegistry:
    """A flat, get-or-create namespace of instruments.

    Requesting an existing name with a matching kind returns the same
    instrument object; a kind clash (e.g. ``counter`` then ``gauge``
    under one name) raises, because two call sites silently sharing a
    name across kinds is always a bug.
    """

    def __init__(self) -> None:
        self._instruments: "Dict[str, object]" = {}

    def _get_or_create(self, name: str, kind: type, factory):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}")
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(name, Counter,
                                   lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  help: str = "") -> Histogram:
        """Get or create the histogram called ``name``.

        ``buckets`` is required on first creation and ignored (the
        existing bounds win) on later lookups.
        """
        if name in self._instruments:
            return self._get_or_create(name, Histogram, None)
        if buckets is None:
            raise ValueError(
                f"histogram {name!r} does not exist yet; pass buckets")
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, buckets, help))

    def get(self, name: str):
        """The instrument called ``name``, or ``None``."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        """Sorted names of every registered instrument."""
        return sorted(self._instruments)

    def __len__(self) -> int:
        """Number of registered instruments."""
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        """Whether an instrument called ``name`` exists."""
        return name in self._instruments

    def format_text(self) -> str:
        """Deterministic Prometheus-flavoured text dump of every metric."""
        lines: List[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            if getattr(instrument, "help", ""):
                lines.append(f"# HELP {name} {instrument.help}")
            if isinstance(instrument, Counter):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {instrument.value}")
            elif isinstance(instrument, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {instrument.value}")
            else:
                hist: Histogram = instrument  # type: ignore[assignment]
                lines.append(f"# TYPE {name} histogram")
                for bound, cumulative in hist.cumulative_counts():
                    label = "+Inf" if math.isinf(bound) else f"{bound:g}"
                    lines.append(
                        f'{name}_bucket{{le="{label}"}} {cumulative}')
                lines.append(f"{name}_sum {hist.total}")
                lines.append(f"{name}_count {hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")
