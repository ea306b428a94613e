"""Sweep resilience: a dying worker must never take the campaign down.

Long fault campaigns hold hours of cached results, so the harness's
contract is: a worker that is SIGKILLed (OOM killer, operator) or
raises is retried once in-process; a spec that fails its retry too is
counted and logged but never aborts the sweep — every other spec's
result still comes back.  Worker functions here are module-level so
they pickle into the process pool.
"""

from __future__ import annotations

import os
import signal
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.runner import SimulationSpec
from repro.experiments.sweep import SweepRunner, SweepStats, _execute_spec
from repro.obs.runrecord import read_run_log

#: Env var carrying the kill-sentinel path into forked pool workers.
_SENTINEL_ENV = "REPRO_TEST_KILL_SENTINEL"

#: Env vars steering the fail-N-times worker (file counter + budget).
_FAIL_STATE_ENV = "REPRO_TEST_FAIL_STATE"
_FAILS_NEEDED_ENV = "REPRO_TEST_FAILS_NEEDED"

SPEC_A = SimulationSpec(k=2, n=2, duration_ns=100_000.0)
SPEC_B = SimulationSpec(k=2, n=2, duration_ns=100_000.0, seed=3)


def _kill_first_worker(spec):
    """Dies hard (SIGKILL) on the first call, computes ever after."""
    sentinel = Path(os.environ[_SENTINEL_ENV])
    try:
        # O_EXCL: exactly one caller wins the right to die, even if
        # both pool workers race here.
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return _execute_spec(spec)
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _always_failing_worker(spec):
    raise RuntimeError(f"synthetic failure for seed {spec.seed}")


def _seconds_from_seed_worker(spec):
    """Computes, then reports the spec's seed as its wall seconds."""
    return replace(_execute_spec(spec), wall_seconds=float(spec.seed))


def _fail_n_times_worker(spec):
    """Fails the first N calls (file-counted), then computes."""
    state = Path(os.environ[_FAIL_STATE_ENV])
    tries = int(state.read_text()) if state.exists() else 0
    state.write_text(str(tries + 1))
    if tries < int(os.environ[_FAILS_NEEDED_ENV]):
        raise RuntimeError(f"synthetic failure #{tries + 1}")
    return _execute_spec(spec)


class TestWorkerDeath:
    def test_sigkilled_worker_is_retried_and_sweep_completes(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(_SENTINEL_ENV, str(tmp_path / "killed"))
        runner = SweepRunner(jobs=2, use_cache=False,
                             worker_fn=_kill_first_worker)
        with pytest.warns(RuntimeWarning, match="worker failed"):
            results = runner.run([SPEC_A, SPEC_B])
        # The kill happened (sentinel exists), yet every result is in.
        assert (tmp_path / "killed").exists()
        assert set(results) == {SPEC_A, SPEC_B}
        assert runner.last_stats.retried >= 1
        assert runner.last_stats.failed == 0
        for spec, summary in results.items():
            assert summary.spec == spec
            assert summary.delivered_fraction > 0.0

    def test_sigkilled_worker_result_matches_clean_run(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(_SENTINEL_ENV, str(tmp_path / "killed"))
        from repro.experiments.cache import summary_digest
        clean = summary_digest(_execute_spec(SPEC_A))
        runner = SweepRunner(jobs=2, use_cache=False,
                             worker_fn=_kill_first_worker)
        with pytest.warns(RuntimeWarning):
            results = runner.run([SPEC_A, SPEC_B])
        assert summary_digest(results[SPEC_A]) == clean


class TestPersistentFailure:
    def test_failing_spec_is_dropped_not_fatal(self, tmp_path):
        runner = SweepRunner(jobs=2, use_cache=False,
                             worker_fn=_always_failing_worker)
        with pytest.warns(RuntimeWarning, match="retry too"):
            results = runner.run([SPEC_A, SPEC_B])
        assert results == {}
        assert runner.last_stats.failed == 2
        assert runner.last_stats.retried == 2
        assert runner.last_stats.executed == 0

    def test_serial_path_has_the_same_contract(self):
        runner = SweepRunner(jobs=1, use_cache=False,
                             worker_fn=_always_failing_worker)
        with pytest.warns(RuntimeWarning):
            results = runner.run([SPEC_A])
        assert results == {}
        assert runner.last_stats.failed == 1

    def test_failures_land_in_the_run_log(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        runner = SweepRunner(jobs=1, use_cache=False, run_log=log,
                             worker_fn=_always_failing_worker)
        with pytest.warns(RuntimeWarning):
            runner.run([SPEC_A])
        records = read_run_log(log)
        assert len(records) == 1
        record = records[0]
        assert record["failed"] is True
        assert record["cached"] is False
        assert "RuntimeError" in record["error"]
        assert record["spec"]["seed"] == SPEC_A.seed

    def test_mixed_sweep_keeps_the_healthy_results(
            self, tmp_path, monkeypatch):
        # One spec dies hard once (then succeeds), sweep still returns
        # it alongside the spec that never failed.
        monkeypatch.setenv(_SENTINEL_ENV, str(tmp_path / "killed"))
        runner = SweepRunner(jobs=2, use_cache=False,
                             worker_fn=_kill_first_worker)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = runner.run([SPEC_A, SPEC_B])
        assert len(results) == 2


class TestRetryBudget:
    """The configurable ``--retries`` budget with seeded backoff."""

    def flaky(self, monkeypatch, tmp_path, fails):
        monkeypatch.setenv(_FAIL_STATE_ENV, str(tmp_path / "tries"))
        monkeypatch.setenv(_FAILS_NEEDED_ENV, str(fails))

    def test_bigger_budget_outlasts_repeated_failures(
            self, tmp_path, monkeypatch):
        # Fails twice, succeeds on the third call: dead under the
        # default budget of 1, recovered with --retries 3.
        self.flaky(monkeypatch, tmp_path, fails=2)
        runner = SweepRunner(jobs=1, use_cache=False, retries=3,
                             retry_backoff_s=0.0,
                             worker_fn=_fail_n_times_worker)
        with pytest.warns(RuntimeWarning, match="retry 1/3"):
            results = runner.run([SPEC_A])
        assert set(results) == {SPEC_A}
        assert runner.last_stats.retried == 2     # two retry attempts
        assert runner.last_stats.failed == 0

    def test_exhausted_budget_records_total_attempts(
            self, tmp_path):
        log = tmp_path / "runs.jsonl"
        runner = SweepRunner(jobs=1, use_cache=False, retries=2,
                             retry_backoff_s=0.0, run_log=log,
                             worker_fn=_always_failing_worker)
        with pytest.warns(RuntimeWarning, match="retry budget"):
            results = runner.run([SPEC_A])
        assert results == {}
        assert runner.last_stats.retried == 2
        assert runner.last_stats.failed == 1
        record = read_run_log(log)[0]
        assert record["attempts"] == 3            # first try + budget

    def test_zero_budget_disables_the_retry_path(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        runner = SweepRunner(jobs=1, use_cache=False, retries=0,
                             run_log=log,
                             worker_fn=_always_failing_worker)
        with pytest.warns(RuntimeWarning, match="retry budget"):
            results = runner.run([SPEC_A])
        assert results == {}
        assert runner.last_stats.retried == 0
        assert runner.last_stats.failed == 1
        assert read_run_log(log)[0]["attempts"] == 1

    def test_invalid_budget_and_backoff_are_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            SweepRunner(retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            SweepRunner(retry_backoff_s=-0.5)

    def test_backoff_is_seeded_exponential_with_bounded_jitter(self):
        runner = SweepRunner(retry_backoff_s=0.1)
        # Deterministic: the jitter is drawn from a string-seeded
        # Random, so repeat calls agree exactly.
        assert runner._retry_delay(SPEC_A, 2) == \
            runner._retry_delay(SPEC_A, 2)
        # Exponential base with jitter in [1, 2): attempt k waits
        # 0.1 * 2^(k-2) * [1, 2).
        for attempt in (2, 3, 4):
            base = 0.1 * 2.0 ** (attempt - 2)
            delay = runner._retry_delay(SPEC_A, attempt)
            assert base <= delay < 2.0 * base
        # Different specs de-synchronize (the anti-stampede property).
        assert runner._retry_delay(SPEC_A, 2) != \
            runner._retry_delay(SPEC_B, 2)

    def test_env_var_feeds_the_default_budget(self, monkeypatch):
        from repro.experiments.sweep import (
            RETRIES_ENV,
            _env_default_retries,
        )
        monkeypatch.delenv(RETRIES_ENV, raising=False)
        assert _env_default_retries() is None
        monkeypatch.setenv(RETRIES_ENV, "4")
        assert _env_default_retries() == 4
        monkeypatch.setenv(RETRIES_ENV, "lots")
        with pytest.raises(ValueError, match=RETRIES_ENV):
            _env_default_retries()


class TestStatsFormatting:
    def test_format_line_hides_zero_counters(self):
        stats = SweepStats(submitted=4, unique=4, cache_hits=4)
        line = stats.format_line()
        assert "retried" not in line
        assert "failed" not in line
        assert "0 run" in line

    def test_format_line_shows_nonzero_counters_in_order(self):
        stats = SweepStats(submitted=4, unique=4, cache_hits=1,
                           executed=2, retried=2, failed=1)
        line = stats.format_line()
        assert line.index("retried") < line.index("failed")
        assert "2 retried" in line
        assert "1 failed" in line


def _interrupt_on_seed3_worker(spec):
    """Simulates Ctrl-C arriving while seed 3 is in flight."""
    if spec.seed == 3:
        raise KeyboardInterrupt()
    return _execute_spec(spec)


class TestGracefulInterrupt:
    """Ctrl-C / SIGTERM mid-sweep: drain, flush, account, re-raise."""

    def test_inline_interrupt_keeps_completed_results(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        runner = SweepRunner(jobs=1, use_cache=False,
                             run_log=log,
                             worker_fn=_interrupt_on_seed3_worker)
        specs = [SPEC_A, SPEC_B,
                 SimulationSpec(k=2, n=2, duration_ns=100_000.0,
                                seed=4)]
        with pytest.raises(KeyboardInterrupt):
            runner.run(specs)
        # SPEC_A completed before the interrupt; SPEC_B (the victim)
        # and the never-started seed-4 spec are accounted, not lost.
        assert runner.last_stats.executed == 1
        assert runner.last_stats.interrupted == 2
        assert "interrupted" in runner.last_stats.format_line()
        # The completed result was flushed to the JSONL run log.
        records = read_run_log(log)
        assert len(records) == 1
        assert records[0]["spec"]["seed"] == SPEC_A.seed
        # ... and survives in the memo: a rerun needs no simulation.
        rerun = runner.run([SPEC_A])
        assert rerun[SPEC_A].spec == SPEC_A
        assert runner.last_stats.executed == 0

    def test_pool_interrupt_drains_and_harvests(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        runner = SweepRunner(jobs=2, use_cache=False,
                             run_log=log,
                             worker_fn=_interrupt_on_seed3_worker)
        with pytest.raises(KeyboardInterrupt):
            runner.run([SPEC_A, SPEC_B])
        assert runner.last_stats.executed == 1
        assert runner.last_stats.interrupted == 1
        records = read_run_log(log)
        assert len(records) == 1
        assert records[0]["spec"]["seed"] == SPEC_A.seed

    def test_sigterm_is_delivered_as_keyboard_interrupt(self):
        from repro.experiments.sweep import _sigterm_as_interrupt
        previous = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            with _sigterm_as_interrupt():
                os.kill(os.getpid(), signal.SIGTERM)
                signal.pause()  # pragma: no cover - interrupt lands
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_interrupted_counts_merge_and_round_trip(self):
        stats = SweepStats(interrupted=2)
        other = SweepStats(interrupted=3)
        stats.merge(other)
        assert stats.interrupted == 5
        assert stats.to_dict()["interrupted"] == 5

    def test_counting_window_sees_only_its_own_batches(self):
        runner = SweepRunner(jobs=1, use_cache=False,
                             worker_fn=_seconds_from_seed_worker)
        slow = SimulationSpec(k=2, n=2, duration_ns=100_000.0, seed=9)
        runner.run([slow])
        with runner.counting() as outer:
            runner.run([SPEC_A])
            with runner.counting() as inner:
                runner.run([SPEC_B])
        assert (outer.executed, inner.executed) == (2, 1)
        assert (outer.run_seconds_max, inner.run_seconds_max) == (3.0, 3.0)
        assert runner.stats.executed == 3
        assert runner.stats.run_seconds_max == 9.0
        runner.run([SimulationSpec(k=2, n=2, duration_ns=100_000.0,
                                   seed=5)])
        assert outer.executed == 2     # a closed window stops counting
