"""Experiment runner and scale selection."""

import pytest

from repro.experiments.runner import (
    CONTROL_ALWAYS_SLOWEST,
    CONTROL_NONE,
    SimulationSpec,
    baseline_spec,
    cached_run,
    run_simulation,
)
from repro.experiments.scale import SCALES, current_scale


QUICK = dict(k=2, n=2, duration_ns=200_000.0)


class TestScales:
    def test_three_tiers(self):
        assert set(SCALES) == {"small", "medium", "paper"}

    def test_paper_scale_matches_evaluation(self):
        paper = SCALES["paper"]
        assert paper.num_hosts == 3375    # "15-ary 3-flat (3375 nodes)"
        assert paper.num_switches == 225

    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "small"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert current_scale().name == "medium"

    def test_bad_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError):
            current_scale()


class TestSpec:
    def test_workload_builders(self):
        spec = SimulationSpec(**QUICK)
        for name in ("uniform", "search", "advert"):
            wl = SimulationSpec(**QUICK, workload=name).build_workload(
                16, 40.0)
            assert wl.num_hosts == 16

    def test_unknown_workload_rejected(self):
        spec = SimulationSpec(**QUICK, workload="mystery")
        with pytest.raises(ValueError):
            spec.build_workload(16, 40.0)

    def test_unknown_policy_rejected(self):
        spec = SimulationSpec(**QUICK, policy="mystery")
        with pytest.raises(ValueError):
            spec.build_policy()

    def test_baseline_spec_strips_control(self):
        spec = SimulationSpec(**QUICK, independent_channels=True,
                              target_utilization=0.75)
        base = baseline_spec(spec)
        assert base.control == CONTROL_NONE
        assert base.workload == spec.workload
        assert base.duration_ns == spec.duration_ns


class TestRuns:
    def test_baseline_run_stays_at_full_rate(self):
        summary = run_simulation(
            SimulationSpec(**QUICK, control=CONTROL_NONE))
        assert summary.time_at_rate.get(40.0, 0.0) == pytest.approx(1.0)
        assert summary.measured_power_fraction == pytest.approx(1.0)

    def test_always_slowest_run(self):
        summary = run_simulation(
            SimulationSpec(**QUICK, control=CONTROL_ALWAYS_SLOWEST))
        assert summary.time_at_rate.get(2.5, 0.0) == pytest.approx(1.0)
        assert summary.measured_power_fraction == pytest.approx(0.42)

    def test_controlled_run_saves_power(self):
        controlled = run_simulation(SimulationSpec(**QUICK))
        assert controlled.measured_power_fraction < 1.0
        assert controlled.reconfigurations > 0

    def test_unknown_control_rejected(self):
        with pytest.raises(ValueError):
            run_simulation(SimulationSpec(**QUICK, control="magic"))

    @pytest.mark.parametrize("fields", [
        dict(control=CONTROL_NONE, policy="aggressive", headroom=0.2),
        dict(control=CONTROL_ALWAYS_SLOWEST, independent_channels=True),
        dict(forecaster="ewma"),
        dict(control="demand_topo", headroom=0.1),
    ])
    def test_fields_the_mode_ignores_rejected(self, fields):
        # Two cache keys must never name one simulation.
        with pytest.raises(ValueError, match="has no effect"):
            run_simulation(SimulationSpec(**QUICK, **fields))

    def test_cached_run_returns_same_object(self):
        spec = SimulationSpec(**QUICK, seed=99)
        assert cached_run(spec) is cached_run(spec)

    def test_summary_has_wall_time_and_events(self):
        summary = run_simulation(SimulationSpec(**QUICK))
        assert summary.wall_seconds > 0.0
        assert summary.events_fired > 0

    def test_uniform_fabric_run_delivers_messages(self):
        summary = run_simulation(SimulationSpec(
            k=3, n=3, workload="uniform", duration_ns=300_000.0,
            control="none", uniform_offered_load=0.2,
            message_bytes=65536))
        assert summary.messages_delivered > 0
        assert summary.events_fired > 0
