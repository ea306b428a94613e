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

A cancelled event stays in the heap until it is popped, so long-lived
timers that are nearly always cancelled (a switch's escape deadline)
would pile up there.  Once cancelled entries outnumber the live ones,
beyond a small floor, the heap is rebuilt from the live entries alone.
``(time, sequence)`` is a strict total order, so the rebuild cannot
change which event pops next.
"""

from __future__ import annotations

from heapq import (heapify as _heapify, heappop as _heappop,
                   heappush as _heappush)
from typing import Any, Callable, Optional

#: Cancelled entries the heap may hold before a purge is considered.
_PURGE_FLOOR = 64


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
        """Prevent the event from firing.  Safe to call more than once,
        and a no-op once the event has fired (firing drops ``_sim``)."""
        sim = self._sim
        if sim is None or self.cancelled:
            return
        self.cancelled = True
        if not self.daemon:
            sim._live_events -= 1
        sim._cancelled += 1
        if (sim._cancelled > _PURGE_FLOOR
                and 2 * sim._cancelled > len(sim._heap)):
            sim._purge()

    def __repr__(self) -> str:
        state = ("cancelled" if self.cancelled
                 else "fired" if self._sim is None else "pending")
        kind = "daemon " if self.daemon else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Event(t={self.time:.1f}ns, {name}, {kind}{state})"


class Simulator:
    """The discrete-event scheduler.  Time is in nanoseconds.

    :attr:`observer` is the engine's one observation hook.  Per-layer
    wall-clock time is measured outside the engine, by
    ``e2ebench/spans.py`` wrapping :meth:`schedule_at`, so that method
    must stay the single entry point of every event.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._now = 0.0
        self._seq = 0
        self._events_fired = 0
        self._live_events = 0   # pending non-daemon, non-cancelled events
        self._cancelled = 0     # cancelled entries still in the heap
        #: Optional observer exposing ``on_event_fired(event)`` (e.g. a
        #: :class:`repro.obs.instrument.FabricProbe`); the hook costs a
        #: single ``is None`` check per event when unset.
        self.observer = None

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
        """Entries still in the queue.  Cancelled events count until they
        are popped or purged: a purge drops them all once they outnumber
        the live entries (see the module docstring)."""
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
        # Written so that a NaN delay fails too.
        if not delay_ns >= 0:
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
        # Written so that a NaN time fails too: it would corrupt the
        # heap order.
        if not time_ns >= self._now:
            raise ValueError(
                f"cannot schedule into the past: t={time_ns} < now={self._now}"
            )
        event = Event(time_ns, fn, args, daemon, self)
        seq = self._seq = self._seq + 1
        _heappush(self._heap, (time_ns, seq, event))
        if not daemon:
            self._live_events += 1
        return event

    def _purge(self) -> None:
        """Drop every cancelled entry.  In place: :meth:`run` holds a
        reference to the heap list."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        _heapify(heap)
        self._cancelled = 0

    def _fire(self, event: Event) -> None:
        """Fire one event through the observer hook."""
        event._sim = None
        self._now = event.time
        self._events_fired += 1
        if not event.daemon:
            self._live_events -= 1
        if self.observer is not None:
            self.observer.on_event_fired(event)
        event.fn(*event.args)

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        while self._heap:
            _, _, event = _heappop(self._heap)
            if event.cancelled:
                self._cancelled -= 1
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
        # Written so that a NaN horizon fails too: every comparison
        # with it is false, so it would fire the whole queue and leave
        # ``now`` at NaN, after which no event could be scheduled.
        if not until_ns >= self._now:
            raise ValueError(f"until={until_ns} is in the past (now={self._now})")
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[0] > until_ns:
                break
            _heappop(heap)
            event = entry[2]
            if event.cancelled:
                self._cancelled -= 1
                continue
            if self.observer is not None:
                self._fire(event)
                continue
            # _fire() inlined: this loop runs once per event.
            event._sim = None
            self._now = entry[0]
            self._events_fired += 1
            if not event.daemon:
                self._live_events -= 1
            event.fn(*event.args)
        self._now = until_ns
