"""Parallel sweep execution: many simulation runs, one harness.

The paper's headline results (Figures 7-9, the policy ablation, the
over-subscription sweep) are all batches of *independent* runs, so the
:class:`SweepRunner` executes them as one: deduplicate the submitted
:class:`~repro.experiments.runner.SimulationSpec` list, satisfy what it
can from a bounded in-process memo and the persistent disk cache
(:mod:`repro.experiments.cache`), and fan the remaining misses out
across worker processes with ``concurrent.futures.ProcessPoolExecutor``.

Because results cross process and session boundaries, bit-exact
determinism of ``run_simulation`` is a hard requirement — enforced by
``tests/test_sweep_determinism.py`` and the golden-value layer.

Experiments call the module-level :func:`sweep` / :func:`run_cached`,
which route through a process-wide default runner.  The CLI's
``--jobs/--no-cache/--cache-dir/--run-log/--retries`` flags call
:func:`configure`; the ``REPRO_JOBS``, ``REPRO_CACHE``,
``REPRO_CACHE_DIR``, ``REPRO_RUN_LOG`` and ``REPRO_RETRIES``
environment variables fill in whatever a caller leaves unset, there and
everywhere else (benchmarks included), and :func:`using_runner` scopes
an explicit runner for tests.

Per-sweep accounting follows the :mod:`repro.sim.stats` idiom: plain
counters on a :class:`SweepStats` object (runs executed vs. memo/cache
hits, wall clock, per-run latency), merged into the runner's lifetime
totals and printable via :meth:`SweepStats.format_line`.

When a run log is configured (``run_log=`` / ``--run-log`` /
``$REPRO_RUN_LOG``), the runner appends one provenance-stamped JSONL
record per distinct spec it resolves — marked ``cached: true`` when the
summary came from the memo or disk cache — via
:class:`repro.obs.runrecord.RunRecordWriter`.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.experiments.cache import (
    LRUCache,
    SweepCache,
    default_cache_dir,
    spec_key,
)
from repro.experiments.runner import (
    SimulationSpec,
    SimulationSummary,
    run_simulation,
)

#: Environment variables configuring the default runner.
JOBS_ENV = "REPRO_JOBS"
CACHE_ENV = "REPRO_CACHE"
RUN_LOG_ENV = "REPRO_RUN_LOG"
RETRIES_ENV = "REPRO_RETRIES"

#: In-process retry attempts per failed spec when nothing configures it.
DEFAULT_RETRIES = 1

#: Base of the seeded exponential retry backoff (seconds).
DEFAULT_RETRY_BACKOFF_S = 0.05

#: Bound on the default in-process memo (the old ``functools.lru_cache``
#: memo was this size too, but fronted no persistent layer).
DEFAULT_MEMO_SIZE = 128


def _execute_spec(spec: SimulationSpec) -> SimulationSummary:
    """Worker entry point: run one spec (top-level, hence picklable)."""
    return run_simulation(spec)


class SweepInterrupted(Exception):
    """Internal: a batch was interrupted mid-execution.

    Carries the partial, ``misses``-aligned result list (``None`` for
    every spec that never completed) so :meth:`SweepRunner.run` can
    persist what *did* finish — cache entries and run-log records —
    before re-raising ``KeyboardInterrupt`` to the caller.
    """

    def __init__(self, partial):
        super().__init__("sweep interrupted")
        self.partial = partial


def _raise_keyboard_interrupt(signum, frame):
    """SIGTERM handler installed for the duration of a batch."""
    raise KeyboardInterrupt()


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Deliver SIGTERM as ``KeyboardInterrupt`` while a batch runs.

    A supervisor's polite kill then takes the same graceful-drain path
    as Ctrl-C.  Signal handlers only install from the main thread (and
    not on every platform); anywhere else this is a no-op and SIGTERM
    keeps its default disposition.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    try:
        previous = signal.signal(signal.SIGTERM,
                                 _raise_keyboard_interrupt)
    except (ValueError, OSError, AttributeError):
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


@dataclass
class SweepStats:
    """Counters for sweep executions, ``repro.sim.stats``-style.

    Attributes:
        submitted: Specs handed to :meth:`SweepRunner.run` (pre-dedup).
        unique: Distinct specs after deduplication.
        memo_hits: Served from the in-process LRU memo.
        cache_hits: Served from the persistent disk cache.
        executed: Actually simulated this time.
        retried: In-process retry *attempts* after a worker died or
            raised (a spec retried twice counts twice; each retried
            spec still ends under ``executed`` or ``failed``,
            whichever way its retries went).
        failed: Specs that exhausted their whole retry budget; they
            are absent from the sweep's results instead of aborting
            it.
        interrupted: Specs abandoned when a batch was interrupted
            (Ctrl-C / SIGTERM) before they completed; completed specs
            from the same batch are still cached and logged.
        wall_seconds: Harness wall-clock across the counted sweeps.
        run_seconds_total: Sum of per-run simulation wall times.
        run_seconds_max: Slowest single run.
        events_fired: Engine events executed by the runs simulated this
            time (cache hits contribute nothing — their events were
            paid for by whoever populated the cache).
    """

    submitted: int = 0
    unique: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    executed: int = 0
    retried: int = 0
    failed: int = 0
    interrupted: int = 0
    wall_seconds: float = 0.0
    run_seconds_total: float = 0.0
    run_seconds_max: float = 0.0
    events_fired: int = 0

    def record_run(self, seconds: float, events: int = 0) -> None:
        """Count one executed simulation taking ``seconds`` of wall time
        and firing ``events`` engine events."""
        self.executed += 1
        self.run_seconds_total += seconds
        self.events_fired += events
        if seconds > self.run_seconds_max:
            self.run_seconds_max = seconds

    @property
    def mean_run_seconds(self) -> float:
        """Average wall time of the runs actually executed."""
        return self.run_seconds_total / self.executed if self.executed else 0.0

    def to_dict(self) -> Dict[str, object]:
        """The counters as a JSON-safe dict (``--stats-json`` payload),
        with ``mean_run_seconds`` just before ``events_fired``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        events = out.pop("events_fired")
        return {**out, "mean_run_seconds": self.mean_run_seconds,
                "events_fired": events}

    def merge(self, other: "SweepStats") -> None:
        """Fold another stats object's counters into this one (the
        slowest run is the max of both, every other counter adds)."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            setattr(self, f.name, max(mine, theirs)
                    if f.name == "run_seconds_max" else mine + theirs)

    def format_line(self) -> str:
        """One printable line: executed vs hits, wall clock, latency."""
        parts = [
            f"{self.executed} run",
            f"{self.memo_hits} memo-hit",
            f"{self.cache_hits} cache-hit",
            f"wall {self.wall_seconds:.2f}s",
        ]
        if self.retried:
            parts.insert(1, f"{self.retried} retried")
        if self.failed:
            parts.insert(2 if self.retried else 1,
                         f"{self.failed} failed")
        if self.interrupted:
            parts.append(f"{self.interrupted} interrupted")
        if self.executed:
            parts.append(f"mean run {self.mean_run_seconds:.2f}s")
            parts.append(f"max run {self.run_seconds_max:.2f}s")
        return ", ".join(parts)


class SweepRunner:
    """Executes batches of simulation specs with dedup, cache and workers.

    Args:
        jobs: Worker process count; ``None`` means ``os.cpu_count()``.
            Batches with a single miss (and ``jobs=1``) run in-process.
        use_cache: Whether to read/write the persistent disk cache.
        cache: An explicit :class:`SweepCache` (overrides ``cache_dir``).
        cache_dir: Directory for a fresh cache when ``cache`` is absent.
        memo_size: Bound of the in-process LRU memo.
        run_log: Optional JSONL path; one provenance-stamped record is
            appended per distinct spec resolved (cache hits included,
            marked ``cached: true``).
        retries: In-process retry attempts per failed spec (the
            ``--retries`` / ``$REPRO_RETRIES`` budget).  ``None``
            means :data:`DEFAULT_RETRIES`; ``0`` disables retries
            entirely.
        retry_backoff_s: Base of the exponential backoff slept before
            the second and later retries of one spec (the first retry
            is immediate: the dominant failure is a dead pool worker,
            not a transient resource).  Jitter is seeded from the
            spec's cache key, so the schedule is deterministic per
            spec yet decorrelated across a campaign.
        worker_fn: The per-spec execution callable handed to worker
            processes (must be picklable, i.e. top-level).  ``None``
            (the default) resolves to :func:`_execute_spec` at call
            time; tests substitute crashing workers to exercise the
            retry path.

    A worker that dies (``SIGKILL``/OOM breaks the whole
    ``ProcessPoolExecutor``) or raises does not abort the sweep: every
    spec whose future failed is retried in-process up to the
    ``retries`` budget, and a spec exhausting its budget is counted in
    ``SweepStats.failed``, logged to the run log as a failure record
    (with its attempt count), and simply absent from the returned
    results.

    Interruption is graceful: ``KeyboardInterrupt`` (and SIGTERM,
    remapped for the duration of the batch) drains in-flight workers,
    caches and logs every summary that completed, counts the abandoned
    specs under ``SweepStats.interrupted``, and only then re-raises —
    a killed multi-hour campaign loses at most the runs that were
    mid-flight, never the finished ones.
    """

    def __init__(self, jobs: Optional[int] = None, use_cache: bool = True,
                 cache: Optional[SweepCache] = None,
                 cache_dir: Optional[Path] = None,
                 memo_size: int = DEFAULT_MEMO_SIZE,
                 run_log: Optional[Path] = None,
                 retries: Optional[int] = None,
                 retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
                 worker_fn=None):
        self.jobs = (os.cpu_count() or 1) if jobs is None else int(jobs)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.retries = (DEFAULT_RETRIES if retries is None
                        else int(retries))
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_backoff_s < 0.0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        self.retry_backoff_s = retry_backoff_s
        if cache is not None:
            self.cache: Optional[SweepCache] = cache
        elif use_cache:
            self.cache = SweepCache(cache_dir or default_cache_dir())
        else:
            self.cache = None
        self.worker_fn = worker_fn
        self.memo = LRUCache(memo_size)
        # (worker_fn=None resolves through _worker() per call, so
        # monkeypatching the module-level _execute_spec still works.)
        self.stats = SweepStats()
        self.last_stats = SweepStats()
        self._windows: List[SweepStats] = []
        self.run_log = Path(run_log) if run_log is not None else None
        self._run_recorder = None

    def _recorder(self):
        """The lazily-built run-record writer, or ``None`` when no run
        log is configured."""
        if self.run_log is None:
            return None
        if self._run_recorder is None:
            # Local import: repro.obs.runrecord imports this package's
            # cache module, so importing it at module scope would cycle.
            from repro.obs.runrecord import RunRecordWriter
            self._run_recorder = RunRecordWriter(self.run_log)
        return self._run_recorder

    @contextlib.contextmanager
    def counting(self) -> Iterator[SweepStats]:
        """Count the batches run inside the block, and only those, in
        a fresh :class:`SweepStats` (one experiment's or campaign's
        ``[sweep: ...]`` line); :attr:`stats` still counts them too."""
        window = SweepStats()
        self._windows.append(window)
        try:
            yield window
        finally:
            # By identity: equal counters do not make the same window.
            self._windows = [w for w in self._windows if w is not window]

    # -- lookups -------------------------------------------------------

    def _lookup(self, spec: SimulationSpec,
                batch: SweepStats) -> Optional[SimulationSummary]:
        """Memo then disk; promotes disk hits into the memo."""
        hit = self.memo.get(spec)
        if hit is not None:
            batch.memo_hits += 1
            return hit
        if self.cache is not None:
            stored = self.cache.get(spec)
            if stored is not None:
                batch.cache_hits += 1
                self.memo.put(spec, stored)
                return stored
        return None

    def _store(self, spec: SimulationSpec,
               summary: SimulationSummary) -> None:
        """Record a fresh result in the memo and (if enabled) on disk."""
        self.memo.put(spec, summary)
        if self.cache is not None:
            self.cache.put(spec, summary)

    # -- execution -----------------------------------------------------

    def run(self, specs: Iterable[SimulationSpec]
            ) -> Dict[SimulationSpec, SimulationSummary]:
        """Execute a batch of specs; returns ``{spec: summary}``.

        Duplicates are collapsed before execution, cache layers are
        consulted per spec, and the remaining misses run across the
        worker pool.  The returned dict is keyed by the distinct specs
        in first-submission order.
        """
        started = time.perf_counter()
        batch = SweepStats()
        ordered: List[SimulationSpec] = []
        seen = set()
        for spec in specs:
            batch.submitted += 1
            if spec not in seen:
                seen.add(spec)
                ordered.append(spec)
        batch.unique = len(ordered)

        results: Dict[SimulationSpec, SimulationSummary] = {}
        misses: List[SimulationSpec] = []
        for spec in ordered:
            hit = self._lookup(spec, batch)
            if hit is not None:
                results[spec] = hit
            else:
                misses.append(spec)

        simulated = set(misses)
        interrupted = False
        with _sigterm_as_interrupt():
            try:
                executed = self._execute_batch(misses, batch)
            except SweepInterrupted as stop:
                # Graceful shutdown: in-flight workers were drained;
                # persist everything that completed, then re-raise so
                # the caller still sees the interrupt.
                interrupted = True
                executed = stop.partial
        for spec, summary in zip(misses, executed):
            if summary is None:
                continue    # failed twice; recorded via _record_failure
            batch.record_run(summary.wall_seconds, summary.events_fired)
            self._store(spec, summary)
            results[spec] = summary

        recorder = self._recorder()
        if recorder is not None:
            for spec in ordered:
                if spec not in results:
                    continue    # failure records are appended inline
                recorder.record_run(spec, results[spec],
                                    cached=spec not in simulated)

        batch.wall_seconds = time.perf_counter() - started
        for stats in (self.stats, *self._windows):
            stats.merge(batch)
        self.last_stats = batch
        if interrupted:
            raise KeyboardInterrupt()
        return {spec: results[spec] for spec in ordered
                if spec in results}

    def _execute_batch(
            self, misses: Sequence[SimulationSpec],
            batch: SweepStats,
    ) -> List[Optional[SimulationSummary]]:
        """Run cache misses — across the pool when it pays, else inline.

        Positionally aligned with ``misses``; a ``None`` entry marks a
        spec that failed execution *and* its in-process retry.  A dead
        worker breaks the whole pool (every pending future raises
        ``BrokenProcessPool``), so all of its victims funnel through
        the same serial retry — the sweep completes regardless.
        """
        if not misses:
            return []
        worker = self._worker()
        workers = min(self.jobs, len(misses))
        if workers <= 1:
            out: List[Optional[SimulationSummary]] = []
            for spec in misses:
                try:
                    out.append(worker(spec))
                except KeyboardInterrupt:
                    batch.interrupted += len(misses) - len(out)
                    raise SweepInterrupted(
                        out + [None] * (len(misses) - len(out)))
                except Exception as exc:
                    out.append(self._retry_inline(spec, batch, exc))
            return out
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker, spec)
                       for spec in misses]
            out = []
            for spec, future in zip(misses, futures):
                try:
                    out.append(future.result())
                except KeyboardInterrupt:
                    raise self._drain_interrupted(pool, futures, out,
                                                  batch)
                except Exception as exc:
                    out.append(self._retry_inline(spec, batch, exc))
            return out

    def _drain_interrupted(self, pool, futures, out,
                           batch: SweepStats) -> SweepInterrupted:
        """Graceful pool shutdown after Ctrl-C / SIGTERM mid-batch.

        Cancels everything still queued, waits for in-flight workers
        to drain, then harvests any future that completed anyway —
        those results are real simulations and deserve the cache and
        the run log.  Specs that never produced a summary count under
        ``SweepStats.interrupted``.
        """
        pool.shutdown(wait=True, cancel_futures=True)
        for future in futures[len(out):]:
            done = (future.done() and not future.cancelled()
                    and future.exception() is None)
            out.append(future.result() if done else None)
            if not done:
                batch.interrupted += 1
        return SweepInterrupted(out)

    def _worker(self):
        """The per-spec execution callable in effect."""
        return self.worker_fn if self.worker_fn is not None \
            else _execute_spec

    def _retry_inline(self, spec: SimulationSpec, batch: SweepStats,
                      exc: BaseException
                      ) -> Optional[SimulationSummary]:
        """In-process retries for a spec whose worker died or raised.

        Up to ``self.retries`` attempts.  The first retry fires
        immediately; later ones sleep a seeded exponential backoff
        with per-spec jitter (:meth:`_retry_delay`), so a campaign's
        stragglers don't stampede a wounded host in lockstep.
        """
        last_exc = exc
        for attempt in range(1, self.retries + 1):
            if attempt > 1:
                time.sleep(self._retry_delay(spec, attempt))
            batch.retried += 1
            warnings.warn(
                f"sweep worker failed ({type(last_exc).__name__}: "
                f"{last_exc}); retry {attempt}/{self.retries} "
                f"in-process", RuntimeWarning, stacklevel=3)
            try:
                return self._worker()(spec)
            except Exception as retry_exc:
                last_exc = retry_exc
        batch.failed += 1
        warnings.warn(
            f"sweep spec exhausted its retry budget — failed every "
            f"in-process retry too ({type(last_exc).__name__}: "
            f"{last_exc}); dropping it from the sweep",
            RuntimeWarning, stacklevel=3)
        self._record_failure(spec, last_exc,
                             attempts=1 + self.retries)
        return None

    def _retry_delay(self, spec: SimulationSpec, attempt: int) -> float:
        """Backoff before retry ``attempt`` (>= 2) of one spec.

        ``backoff * 2^(attempt-2)``, scaled by a jitter in [1, 2)
        drawn from ``Random(f"sweep-retry:{spec_key}:{attempt}")`` —
        string-seeded, so deterministic across ``PYTHONHASHSEED``
        values yet different for every (spec, attempt).
        """
        base = self.retry_backoff_s * (2.0 ** (attempt - 2))
        jitter = random.Random(
            f"sweep-retry:{spec_key(spec)}:{attempt}").random()
        return base * (1.0 + jitter)

    def _record_failure(self, spec: SimulationSpec,
                        error: BaseException,
                        attempts: int = 1) -> None:
        """Append a failure record to the run log, when one is kept."""
        recorder = self._recorder()
        if recorder is not None:
            recorder.record_failure(spec, error, attempts=attempts)

    def run_one(self, spec: SimulationSpec) -> SimulationSummary:
        """Run (or recall) a single spec through the same layers."""
        return self.run([spec])[spec]


# ---------------------------------------------------------------------------
# Process-wide default runner
# ---------------------------------------------------------------------------

_default_runner: Optional[SweepRunner] = None
_runner_stack: List[SweepRunner] = []


def _env_default_jobs() -> Optional[int]:
    """``REPRO_JOBS`` as an int, or ``None`` for the cpu-count default."""
    raw = os.environ.get(JOBS_ENV)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{JOBS_ENV}={raw!r} is not an integer") from None


def _env_default_use_cache() -> bool:
    """``REPRO_CACHE`` truthiness (default off: library/tests run live)."""
    return os.environ.get(CACHE_ENV, "0").lower() in ("1", "true", "yes", "on")


def _env_default_run_log() -> Optional[Path]:
    """``REPRO_RUN_LOG`` as a path, or ``None`` when unset/empty."""
    raw = os.environ.get(RUN_LOG_ENV)
    return Path(raw) if raw else None


def _env_default_retries() -> Optional[int]:
    """``REPRO_RETRIES`` as an int, or ``None`` for the default."""
    raw = os.environ.get(RETRIES_ENV)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{RETRIES_ENV}={raw!r} is not an integer") from None


def default_runner() -> SweepRunner:
    """The lazily-created process-wide runner (env-configured)."""
    if _default_runner is None:
        configure()
    return _default_runner


def configure(jobs: Optional[int] = None, use_cache: Optional[bool] = None,
              cache_dir: Optional[Path] = None,
              memo_size: int = DEFAULT_MEMO_SIZE,
              run_log: Optional[Path] = None,
              retries: Optional[int] = None) -> SweepRunner:
    """Replace the default runner (the CLI flag hook); returns it.

    Each argument left ``None`` falls back to its environment variable
    (``REPRO_JOBS``, ``REPRO_CACHE``, ``REPRO_RUN_LOG``,
    ``REPRO_RETRIES``; the cache directory to ``REPRO_CACHE_DIR``), so
    this is the one place the environment configures the runner.
    """
    global _default_runner
    _default_runner = SweepRunner(
        jobs=_env_default_jobs() if jobs is None else jobs,
        use_cache=(_env_default_use_cache() if use_cache is None
                   else use_cache),
        cache_dir=cache_dir, memo_size=memo_size,
        run_log=_env_default_run_log() if run_log is None else run_log,
        retries=_env_default_retries() if retries is None else retries)
    return _default_runner


def active_runner() -> SweepRunner:
    """The runner in effect: the innermost :func:`using_runner`, else
    the process default."""
    if _runner_stack:
        return _runner_stack[-1]
    return default_runner()


@contextlib.contextmanager
def using_runner(runner: SweepRunner) -> Iterator[SweepRunner]:
    """Scope an explicit runner over :func:`sweep`/:func:`run_cached`.

    The test layer uses this to pin isolated cache directories and
    worker counts without touching process-global state.
    """
    _runner_stack.append(runner)
    try:
        yield runner
    finally:
        _runner_stack.pop()


def sweep(specs: Iterable[SimulationSpec]
          ) -> Dict[SimulationSpec, SimulationSummary]:
    """Run a batch of specs through the active runner."""
    return active_runner().run(specs)


def run_cached(spec: SimulationSpec) -> SimulationSummary:
    """Run (or recall) one spec through the active runner."""
    return active_runner().run_one(spec)
