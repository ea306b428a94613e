"""Discrete-event simulation core.

A minimal, fast event engine: a binary heap of plain
``(time, seq, fn, args, daemon)`` tuples.  The sequence number makes
ordering deterministic for events scheduled at identical times (FIFO
in scheduling order), which keeps whole simulations reproducible for a
fixed RNG seed.  No object is built per event:
:meth:`Simulator.schedule_at`, which every event enters through, pushes
the tuple and returns the sequence number as a token.  Only
:meth:`Simulator.schedule` wraps that token in an :class:`Event`
handle, for the few callers that may cancel (escape deadlines, epoch
timers); the hot callers in the channels, switches, hosts and fabric
throw the token away.

Events can be scheduled as **daemon** events: periodic housekeeping
(epoch controllers, monitors) that must not keep the simulation alive.
``run()`` without a horizon stops once only daemon events remain — the
network has drained — mirroring how daemon threads behave in the
standard library.

Cancelling puts the event's sequence number in a set; the run loop
tests the set only while it is nonempty and skips a popped entry whose
number it holds.  A handle counts as fired once ``(time, seq) <= (now,
seq of the last fired event)``: events fire in strict ``(time, seq)``
order, so cancelling a fired event, even from its own callback, does
nothing.  A cancelled entry stays in the heap until it is popped, so
long-lived timers that are nearly always cancelled (a switch's escape
deadline) would pile up there.  Once cancelled entries outnumber the
live ones, beyond a small floor, the heap is rebuilt from the live
entries alone.  ``(time, sequence)`` is a strict total order, so the
rebuild cannot change which event pops next.
"""

from __future__ import annotations

from heapq import (heapify as _heapify, heappop as _heappop,
                   heappush as _heappush)
from typing import Any, Callable, Optional

#: Cancelled entries the heap may hold before a purge is considered.
_PURGE_FLOOR = 64


class Event:
    """A cancel handle for one scheduled callback.  Returned by
    :meth:`Simulator.schedule` so the caller can cancel it before it
    fires."""

    __slots__ = ("time", "daemon", "cancelled", "_fn", "_seq", "_sim")

    def __init__(self, sim: "Simulator", time: float, seq: int,
                 fn: Callable[..., Any], daemon: bool):
        self.time = time
        self.daemon = daemon
        self.cancelled = False
        self._fn = fn
        self._seq = seq
        self._sim = sim

    def _fired(self) -> bool:
        """Whether the event has fired (the rule in the module
        docstring)."""
        sim = self._sim
        return (self.time, self._seq) <= (sim._now, sim._fired_seq)

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once,
        and a no-op once the event has fired."""
        if self.cancelled or self._fired():
            return
        self.cancelled = True
        sim = self._sim
        if self.daemon:
            sim._daemons -= 1
        cancelled = sim._cancelled
        cancelled.add(self._seq)
        if (len(cancelled) > _PURGE_FLOOR
                and 2 * len(cancelled) > len(sim._heap)):
            sim._purge()

    def __repr__(self) -> str:
        state = ("cancelled" if self.cancelled
                 else "fired" if self._fired() else "pending")
        kind = "daemon " if self.daemon else ""
        name = getattr(self._fn, "__qualname__", repr(self._fn))
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
        self._fired_seq = 0     # seq of the last fired event
        self._dropped = 0       # cancelled entries popped or purged
        self._daemons = 0       # pending daemon, non-cancelled events
        self._cancelled: set = set()   # seqs of cancelled heap entries
        #: Optional observer exposing ``on_event_fired(entry)``, called
        #: with the ``(time, seq, fn, args, daemon)`` heap entry (e.g. a
        #: :class:`repro.obs.instrument.FabricProbe`).  ``run(until)``
        #: reads it once per call, so attach it before running; unset,
        #: it costs that one ``is None`` check.
        self.observer = None

    @property
    def now(self) -> float:
        """Current simulation time in ns."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (progress/perf metric).

        Every scheduled event is still queued, was dropped as cancelled,
        or fired, so the run loop keeps no count of fired events.
        """
        return self._seq - len(self._heap) - self._dropped

    @property
    def pending_events(self) -> int:
        """Entries still in the queue.  Cancelled events count until they
        are popped or purged: a purge drops them all once they outnumber
        the live entries (see the module docstring)."""
        return len(self._heap)

    @property
    def live_events(self) -> int:
        """Pending non-daemon events — what keeps ``run()`` going.

        Derived, like :attr:`events_fired`: the queue holds the live
        events, the pending daemons and the cancelled entries.
        """
        return len(self._heap) - len(self._cancelled) - self._daemons

    def schedule(self, delay_ns: float, fn: Callable[..., Any], *args: Any,
                 daemon: bool = False) -> Event:
        """Schedule ``fn(*args)`` to run ``delay_ns`` from now and return
        its cancel handle.

        Daemon events do not prevent :meth:`run` from finishing once all
        real work has drained.
        """
        # Written so that a NaN delay fails too.
        if not delay_ns >= 0:
            raise ValueError(f"cannot schedule into the past: delay={delay_ns}")
        time_ns = self._now + delay_ns
        seq = self.schedule_at(time_ns, fn, *args, daemon=daemon)
        return Event(self, time_ns, seq, fn, daemon)

    def schedule_at(self, time_ns: float, fn: Callable[..., Any], *args: Any,
                    daemon: bool = False) -> int:
        """Schedule ``fn(*args)`` at absolute time ``time_ns`` and return
        the event's sequence number.

        Every event enters the queue here: :meth:`schedule` and the hot
        callers in the channels and switches compute ``now + delay``
        themselves and call this directly.  The returned number is a
        token, not a handle: use :meth:`schedule` for an event that may
        need cancelling.
        """
        # Written so that a NaN time fails too: it would corrupt the
        # heap order.
        if not time_ns >= self._now:
            raise ValueError(
                f"cannot schedule into the past: t={time_ns} < now={self._now}"
            )
        seq = self._seq = self._seq + 1
        _heappush(self._heap, (time_ns, seq, fn, args, daemon))
        if daemon:
            self._daemons += 1
        return seq

    def _purge(self) -> None:
        """Drop every cancelled entry.  In place: :meth:`run` holds a
        reference to the heap list and to the cancelled set."""
        heap = self._heap
        cancelled = self._cancelled
        heap[:] = [entry for entry in heap if entry[1] not in cancelled]
        _heapify(heap)
        self._dropped += len(cancelled)
        cancelled.clear()

    def _fire(self, entry: tuple) -> None:
        """Fire one heap entry through the observer hook."""
        time_ns, seq, fn, args, daemon = entry
        self._now = time_ns
        self._fired_seq = seq
        if daemon:
            self._daemons -= 1
        if self.observer is not None:
            self.observer.on_event_fired(entry)
        fn(*args)

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            entry = _heappop(heap)
            if cancelled and entry[1] in cancelled:
                cancelled.remove(entry[1])
                self._dropped += 1
                continue
            self._fire(entry)
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
            while self.live_events > 0 and self.step():
                pass
            return
        # Written so that a NaN horizon fails too: every comparison
        # with it is false, so it would fire the whole queue and leave
        # ``now`` at NaN, after which no event could be scheduled.
        if not until_ns >= self._now:
            raise ValueError(f"until={until_ns} is in the past (now={self._now})")
        heap = self._heap
        cancelled = self._cancelled
        observer = self.observer
        while heap and heap[0][0] <= until_ns:
            entry = _heappop(heap)
            if cancelled and entry[1] in cancelled:
                cancelled.remove(entry[1])
                self._dropped += 1
                continue
            if observer is not None:
                self._fire(entry)
                continue
            # _fire() inlined: this loop runs once per event.
            time_ns, seq, fn, args, daemon = entry
            self._now = time_ns
            self._fired_seq = seq
            if daemon:
                self._daemons -= 1
            fn(*args)
        self._now = until_ns
