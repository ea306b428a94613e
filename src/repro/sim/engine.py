"""Discrete-event simulation core.

A minimal, fast event engine: a binary heap of (time, sequence, event)
entries.  The sequence number makes ordering deterministic for events
scheduled at identical times (FIFO in scheduling order), which keeps
whole simulations reproducible for a fixed RNG seed.

Events can be scheduled as **daemon** events: periodic housekeeping
(epoch controllers, monitors) that must not keep the simulation alive.
``run()`` without a horizon stops once only daemon events remain — the
network has drained — mirroring how daemon threads behave in the
standard library.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from time import perf_counter
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule` so the
    caller can cancel it before it fires."""

    __slots__ = ("time", "fn", "args", "cancelled", "daemon", "_sim")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple,
                 daemon: bool, sim: "Simulator"):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.daemon = daemon
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if not self.cancelled:
            self.cancelled = True
            if not self.daemon:
                self._sim._live_events -= 1

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        kind = "daemon " if self.daemon else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Event(t={self.time:.1f}ns, {name}, {kind}{state})"


class Simulator:
    """The discrete-event scheduler.  Time is in nanoseconds."""

    def __init__(self) -> None:
        self._heap: list = []
        self._now = 0.0
        self._seq = 0
        self._events_fired = 0
        self._live_events = 0   # pending non-daemon, non-cancelled events
        #: Optional observer exposing ``on_event_fired(event)`` (e.g. a
        #: :class:`repro.obs.instrument.FabricProbe`); the hook costs a
        #: single ``is None`` check per event when unset.
        self.observer = None
        #: Optional :class:`repro.obs.profiling.PerfProfiler`; when set,
        #: every fired event is wall-clock timed and attributed to a
        #: hot-path phase.  Unset, the hook is one ``is None`` check.
        self.profiler = None

    @property
    def now(self) -> float:
        """Current simulation time in ns."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (progress/perf metric)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Events still in the queue (cancelled entries included)."""
        return len(self._heap)

    @property
    def live_events(self) -> int:
        """Pending non-daemon events — what keeps ``run()`` going."""
        return self._live_events

    def schedule(self, delay_ns: float, fn: Callable[..., Any], *args: Any,
                 daemon: bool = False) -> Event:
        """Schedule ``fn(*args)`` to run ``delay_ns`` from now.

        Daemon events do not prevent :meth:`run` from finishing once all
        real work has drained.
        """
        if delay_ns < 0:
            raise ValueError(f"cannot schedule into the past: delay={delay_ns}")
        return self.schedule_at(self._now + delay_ns, fn, *args,
                                daemon=daemon)

    def schedule_at(self, time_ns: float, fn: Callable[..., Any], *args: Any,
                    daemon: bool = False) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time_ns``.

        Every event enters the queue here: :meth:`schedule` and the hot
        callers in the channels and switches compute ``now + delay``
        themselves and call this directly.
        """
        if time_ns < self._now:
            raise ValueError(
                f"cannot schedule into the past: t={time_ns} < now={self._now}"
            )
        event = Event(time_ns, fn, args, daemon, self)
        seq = self._seq = self._seq + 1
        _heappush(self._heap, (time_ns, seq, event))
        if not daemon:
            self._live_events += 1
        return event

    def _fire(self, event: Event) -> None:
        """Fire one event through the observer and profiler hooks."""
        self._now = event.time
        self._events_fired += 1
        if not event.daemon:
            self._live_events -= 1
        if self.observer is not None:
            self.observer.on_event_fired(event)
        if self.profiler is None:
            event.fn(*event.args)
        else:
            started = perf_counter()
            event.fn(*event.args)
            self.profiler.on_event_timed(event, perf_counter() - started)

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        while self._heap:
            _, _, event = _heappop(self._heap)
            if event.cancelled:
                continue
            self._fire(event)
            return True
        return False

    def run(self, until_ns: Optional[float] = None) -> None:
        """Run events until done or time passes ``until_ns``.

        Without a horizon, execution stops when no non-daemon events
        remain (periodic daemon housekeeping alone does not constitute
        progress).  With a horizon, the clock is advanced to exactly
        ``until_ns`` afterwards so statistics windows close cleanly.
        """
        if until_ns is None:
            while self._live_events > 0 and self.step():
                pass
            return
        if until_ns < self._now:
            raise ValueError(f"until={until_ns} is in the past (now={self._now})")
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[0] > until_ns:
                break
            _heappop(heap)
            event = entry[2]
            if event.cancelled:
                continue
            if self.observer is not None or self.profiler is not None:
                self._fire(event)
                continue
            # _fire() inlined: this loop runs once per event.
            self._now = entry[0]
            self._events_fired += 1
            if not event.daemon:
                self._live_events -= 1
            event.fn(*event.args)
        self._now = until_ns
