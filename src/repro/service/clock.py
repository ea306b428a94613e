"""Deterministic virtual time for the asyncio control-plane service.

A live control service must be *long-running* (multi-hour diurnal
workloads) yet every campaign number it produces must be frozen in a
golden file.  Wall-clock asyncio cannot give both: real timers are
jittery and a multi-hour run is untestable.  :class:`VirtualClock`
resolves the tension the way the discrete-event simulator does — time
is a number we advance, not a thing we wait for:

- every service coroutine sleeps through :meth:`VirtualClock.sleep` /
  :meth:`sleep_until`, which park the task on a future keyed by its
  virtual wake time (ties broken by registration order, like the sim
  engine's event sequence numbers);
- a single driver (:meth:`VirtualClock.drive`) alternates **settle**
  phases — yielding to the event loop until no runnable task makes
  progress — with **advance** phases that jump ``now_ns`` to the next
  scheduled wake and release every future due at it.

Determinism holds because asyncio's ready queue is FIFO, tasks are
created in a fixed order, no wall-clock timer is ever armed, and every
random draw in the service is a stateless string-seeded hash (the
:mod:`repro.faults.control_faults` idiom).  Two runs of the same
config produce byte-identical decision streams — which is what lets a
crash-recovery test demand byte-identical decisions after a restore,
and the resilience campaign freeze its verdict in a golden.

Quiescence detection is cooperative: service code calls
:meth:`VirtualClock.note` whenever it does observable work (ingest,
decide, deliver, restart).  The settle loop watches that counter;
``SETTLE_STABLE_YIELDS`` consecutive yields without progress means
every task is parked on a clock future or an empty queue, and it is
safe to advance time.  Where the event loop shows its ready queue and
timer heap (CPython's), quiescence is also detected exactly: a yield
without progress that leaves both empty means nothing else can run,
so the settle ends there.  The extra yields it skips would only have
resumed the settling task, so the interleaving is the same either way.

The clock is also the service's one door to asyncio: it imports the
module when it is constructed and hands the other service modules the
few primitives they need (:meth:`VirtualClock.create_future`,
:meth:`~VirtualClock.create_task`, :meth:`~VirtualClock.gather`,
:meth:`~VirtualClock.run`).  Importing the service therefore does not
load asyncio (and the ``ssl`` it pulls in); only building one does.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Awaitable, Coroutine, List, \
    Optional, Tuple

if TYPE_CHECKING:
    import asyncio

#: Consecutive no-progress event-loop yields that count as quiescent.
SETTLE_STABLE_YIELDS = 4

#: Settle-loop iteration cap: a service that cannot quiesce within
#: this many yields is livelocked (a coroutine spinning without a
#: clock sleep), and the driver fails loudly instead of hanging.
SETTLE_MAX_YIELDS = 100_000


class VirtualClock:
    """Virtual-time scheduler shared by every service task."""

    def __init__(self, start_ns: float = 0.0):
        import asyncio

        self._asyncio = asyncio
        self.now_ns = float(start_ns)
        #: Monotone progress counter; bumped by any observable work.
        self.progress = 0
        self._seq = 0
        self._waiters: List[Tuple[float, int, asyncio.Future]] = []

    # -- asyncio primitives -----------------------------------------------

    def create_future(self) -> asyncio.Future:
        """A fresh future on the running event loop."""
        return self._asyncio.get_running_loop().create_future()

    def create_task(self, coro: Coroutine[Any, Any, Any]) -> asyncio.Task:
        """Schedule ``coro`` as a task on the running event loop."""
        return self._asyncio.get_running_loop().create_task(coro)

    def gather(self, *aws: Awaitable[Any]) -> asyncio.Future:
        """Wait for every awaitable; exceptions (cancellation too) come
        back as results rather than being raised."""
        return self._asyncio.gather(*aws, return_exceptions=True)

    def run(self, main: Coroutine[Any, Any, Any]) -> Any:
        """Run ``main`` to completion on a fresh event loop."""
        return self._asyncio.run(main)

    # -- progress (quiescence) -------------------------------------------

    def note(self) -> None:
        """Record that observable work happened (settle watches this)."""
        self.progress += 1

    # -- sleeping ---------------------------------------------------------

    async def sleep(self, delta_ns: float) -> None:
        """Park the calling task for ``delta_ns`` of virtual time."""
        # ``max`` keeps its first argument on a tie or a NaN, so a NaN
        # delta reaches sleep_until's guard instead of becoming zero.
        await self.sleep_until(self.now_ns + max(delta_ns, 0.0))

    async def sleep_until(self, wake_ns: float) -> None:
        """Park the calling task until virtual time ``wake_ns``.

        A NaN wake time raises ``ValueError``: no advance could ever
        release it, and :meth:`drive` would spin forever.
        """
        if not wake_ns > self.now_ns:
            if wake_ns != wake_ns:
                raise ValueError("cannot sleep until NaN")
            # Still yield once: keeps scheduling order fair and gives
            # the driver a chance to observe progress between steps.
            await self._asyncio.sleep(0)
            return
        future = self.create_future()
        self._seq += 1
        heapq.heappush(self._waiters, (float(wake_ns), self._seq, future))
        await future

    # -- advancing (driver side) ------------------------------------------

    def next_wake(self) -> Optional[float]:
        """Earliest scheduled wake time, or ``None`` if nothing sleeps."""
        while self._waiters and self._waiters[0][2].cancelled():
            heapq.heappop(self._waiters)
        return self._waiters[0][0] if self._waiters else None

    def advance_to(self, time_ns: float) -> int:
        """Jump to ``time_ns`` and release every due sleeper.

        Returns the number of tasks woken.  Time never moves backward.
        """
        # Written so that a NaN time fails too.
        if not time_ns >= self.now_ns:
            raise ValueError(f"virtual time cannot rewind or be NaN: "
                             f"{time_ns} < {self.now_ns}")
        self.now_ns = float(time_ns)
        woken = 0
        while self._waiters and self._waiters[0][0] <= self.now_ns:
            _, _, future = heapq.heappop(self._waiters)
            if not future.cancelled():
                future.set_result(None)
                woken += 1
        if woken:
            self.note()
        return woken

    async def _settle(self) -> None:
        """Yield until no runnable task makes progress.

        A yield without progress that leaves the event loop's ready
        queue and timer heap both empty ends the settle at once:
        nothing else can run, so further yields would only resume this
        task.  Otherwise (or on a loop without those attributes) it
        takes ``SETTLE_STABLE_YIELDS`` such yields in a row.
        """
        sleep = self._asyncio.sleep
        loop = self._asyncio.get_running_loop()
        exact = hasattr(loop, "_ready") and hasattr(loop, "_scheduled")
        stable = 0
        for _ in range(SETTLE_MAX_YIELDS):
            before = self.progress
            await sleep(0)
            if self.progress != before:
                stable = 0
                continue
            # ``_scheduled`` is read afresh: the loop may rebuild it.
            if exact and not loop._ready and not loop._scheduled:
                return
            stable += 1
            if stable >= SETTLE_STABLE_YIELDS:
                return
        raise RuntimeError(
            "service failed to quiesce: a coroutine is busy-looping "
            "without a virtual-clock sleep")

    async def drive(self, horizon_ns: float) -> None:
        """Run virtual time forward to ``horizon_ns``.

        Alternates settle and advance until every sleeper past the
        horizon is the only work left.  Leaves ``now_ns`` at the
        horizon so summaries cover the full requested duration.
        """
        if horizon_ns != horizon_ns:
            raise ValueError("cannot drive until NaN")
        while True:
            await self._settle()
            wake = self.next_wake()
            if wake is None or wake > horizon_ns:
                break
            self.advance_to(wake)
        if self.now_ns < horizon_ns:
            self.now_ns = float(horizon_ns)
        await self._settle()
