"""The command-line driver."""

import pytest

from repro.cli import (
    EXPERIMENTS,
    build_parser,
    configure_sweep,
    main,
    run_experiment,
    sweep_flags,
)
from repro.experiments import sweep as sweep_mod
from repro.experiments.scale import SCALES


@pytest.fixture(autouse=True)
def restore_default_runner():
    """main() reconfigures the process-wide sweep runner; undo it."""
    saved = sweep_mod._default_runner
    yield
    sweep_mod._default_runner = saved


class TestParser:
    def test_every_experiment_is_a_choice(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_scale_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--scale", "medium"])
        assert args.scale == "medium"
        with pytest.raises(SystemExit):
            parser.parse_args(["table1", "--scale", "galactic"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure42"])

    def test_sweep_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["figure7", "--jobs", "4", "--no-cache",
             "--cache-dir", str(tmp_path)])
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir == tmp_path

    def test_sweep_flags_default_off(self):
        args = build_parser().parse_args(["figure7"])
        assert args.jobs is None
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_golden_refresh_is_a_choice(self):
        args = build_parser().parse_args(["golden-refresh"])
        assert args.experiment == "golden-refresh"

    @pytest.mark.parametrize("flag, value", [
        ("--jobs", "0"), ("--jobs", "many"), ("--retries", "-3")])
    def test_bad_sweep_counts_are_usage_errors(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["figure7", flag, value])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and flag in err


class TestSweepEnvironment:
    """Flags left unset fall back to the ``REPRO_*`` variables."""

    def test_jobs_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        configure_sweep(sweep_flags().parse_args([]))
        assert sweep_mod.default_runner().jobs == 3

    def test_run_log_from_environment(self, monkeypatch, tmp_path):
        log = tmp_path / "runs.jsonl"
        monkeypatch.setenv("REPRO_RUN_LOG", str(log))
        configure_sweep(sweep_flags().parse_args([]))
        assert sweep_mod.default_runner().run_log == log

    def test_flags_override_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_RUN_LOG", str(tmp_path / "env.jsonl"))
        configure_sweep(sweep_flags().parse_args(
            ["--jobs", "1", "--run-log", str(tmp_path / "flag.jsonl")]))
        runner = sweep_mod.default_runner()
        assert runner.jobs == 1
        assert runner.run_log == tmp_path / "flag.jsonl"


class TestExecution:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_analytic_experiment_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "737,280" in out

    def test_output_directory_written(self, tmp_path, capsys):
        assert main(["figure1", "--output", str(tmp_path)]) == 0
        capsys.readouterr()
        written = (tmp_path / "figure1.txt").read_text()
        assert "Network share" in written

    def test_run_experiment_formats_header(self):
        block, _ = run_experiment("table2", SCALES["small"], None)
        assert block.startswith("[table2]")
        assert "InfiniBand" in block

    def test_each_experiment_reports_its_own_slowest_run(
            self, monkeypatch):
        # Two experiments on one runner: the second's sweep line must
        # not inherit the first one's slower run.
        from dataclasses import replace

        from repro.experiments.runner import SimulationSpec

        def timed(spec):
            summary = sweep_mod._execute_spec(spec)
            return replace(summary, wall_seconds=float(spec.seed))

        class Table:
            def format_table(self):
                return "table"

        def experiment(seed):
            def run(scale):
                sweep_mod.sweep([SimulationSpec(
                    k=2, n=2, duration_ns=50_000.0, seed=seed)])
                return Table()
            run.claims = tuple
            return ("synthetic", True, run)

        monkeypatch.setitem(EXPERIMENTS, "slow", experiment(9))
        monkeypatch.setitem(EXPERIMENTS, "fast", experiment(2))
        runner = sweep_mod.SweepRunner(jobs=1, use_cache=False,
                                       worker_fn=timed)
        sink = []
        with sweep_mod.using_runner(runner):
            run_experiment("slow", SCALES["small"], None, stats_sink=sink)
            block, _ = run_experiment("fast", SCALES["small"], None,
                                      stats_sink=sink)
        assert [e["sweep"]["run_seconds_max"] for e in sink] == [9.0, 2.0]
        assert [e["sweep"]["executed"] for e in sink] == [1, 1]
        assert "max run 2.00s" in block

    def test_registry_consistency(self):
        for name, (description, needs_scale, run) in EXPERIMENTS.items():
            assert description
            assert callable(run)

    def test_every_result_class_supports_rows(self):
        # --json serializes result.rows(); every registered experiment's
        # result type must provide it.  Resolve each run()'s return
        # annotation-free result class via the module's *Result class.
        import importlib
        import inspect
        for name, (_, _, run) in EXPERIMENTS.items():
            module = importlib.import_module(run.__module__)
            result_classes = [
                obj for obj_name, obj in vars(module).items()
                if inspect.isclass(obj) and obj_name.endswith("Result")
                and obj.__module__ == module.__name__
            ]
            assert result_classes, f"{name}: no result class found"
            for cls in result_classes:
                assert callable(getattr(cls, "rows", None)), \
                    f"{name}: {cls.__name__} lacks rows()"
                assert callable(getattr(cls, "format_table", None)), \
                    f"{name}: {cls.__name__} lacks format_table()"

    def test_json_export(self, tmp_path, capsys):
        import json
        assert main(["table1", "--output", str(tmp_path), "--json"]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "table1.json").read_text())
        assert payload["experiment"] == "table1"
        assert payload["scale"] is None        # analytic experiment
        assert any("8,235" in cell for row in payload["rows"]
                   for cell in row)

    def test_json_requires_output_silently_skips(self, capsys):
        # --json without --output is a no-op rather than an error.
        assert main(["table2", "--json"]) == 0

    def test_golden_refresh_writes_requested_directory(
            self, golden_refresh):
        # The run itself is the session-wide one the golden-value tests
        # compare against (see conftest.golden_refresh).
        assert golden_refresh.status == 0
        out = golden_refresh.stdout
        assert "wrote" in out
        for name in ("table1", "figure1", "figure7"):
            assert (golden_refresh.directory / f"{name}.json").exists()

    def test_simulation_experiment_reports_sweep_stats(
            self, tmp_path, capsys):
        assert main(["figure7", "--jobs", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[sweep:" in out
        # A second invocation is served from the persistent cache.
        assert main(["figure7", "--jobs", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 run" in out and "2 cache-hit" in out


class TestObsFlags:
    def test_run_log_and_stats_json_default_off(self):
        args = build_parser().parse_args(["figure7"])
        assert args.run_log is None
        assert args.stats_json is None

    def test_run_log_and_stats_json_parse(self, tmp_path):
        args = build_parser().parse_args(
            ["figure7", "--run-log", str(tmp_path / "runs.jsonl"),
             "--stats-json", str(tmp_path / "stats.json")])
        assert args.run_log == tmp_path / "runs.jsonl"
        assert args.stats_json == tmp_path / "stats.json"

    def test_run_log_records_audit_clean(self, tmp_path, capsys):
        from repro.obs.runrecord import read_run_log, transitions_accounted

        log = tmp_path / "runs.jsonl"
        assert main(["figure7", "--jobs", "1",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--run-log", str(log)]) == 0
        capsys.readouterr()
        records = read_run_log(log)
        assert len(records) == 2          # figure7: baseline + controlled
        assert all(record["cached"] is False for record in records)
        # The acceptance invariant: the decision log reconstructs every
        # rate transition the summary counted.
        assert all(transitions_accounted(record) for record in records)

        # Warm re-run: appended records are honest about the cache.
        assert main(["figure7", "--jobs", "1",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--run-log", str(log)]) == 0
        capsys.readouterr()
        records = read_run_log(log)
        assert len(records) == 4
        assert all(record["cached"] is True for record in records[2:])

    def test_stats_json_written(self, tmp_path, capsys):
        import json
        out = tmp_path / "stats.json"
        assert main(["table2", "--stats-json", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["experiments"][0]["experiment"] == "table2"
        assert "total" in payload


class TestChaosCli:
    def test_parser_defaults_are_the_campaign_constants(self):
        from repro.cli import build_campaign_parser
        from repro.experiments.campaign import CAMPAIGNS

        args = build_campaign_parser().parse_args(["chaos-campaign"])
        assert args.json_out is None
        # Only flags the user gives reach the campaign; the defaults
        # are the ones its table entry declares.
        assert args.seed is None and args.fault_seed is None
        assert CAMPAIGNS["chaos-campaign"].params == {"seed": 3,
                                                      "fault_seed": 7}
        assert args.retries is None

    def test_parser_accepts_the_gate_flags(self, tmp_path):
        from repro.cli import build_campaign_parser

        args = build_campaign_parser().parse_args(
            ["chaos-campaign",
             "--json-out", str(tmp_path / "v.json"),
             "--retries", "3", "--no-cache"])
        assert args.json_out == tmp_path / "v.json"
        assert args.retries == 3
        assert args.no_cache is True

    def test_chaos_campaign_is_a_registered_experiment(self):
        assert "chaos-campaign" in EXPERIMENTS
        args = build_parser().parse_args(["chaos-campaign"])
        assert args.experiment == "chaos-campaign"


class TestTopoCli:
    def test_parser_defaults_are_the_campaign_constants(self):
        from repro.cli import build_campaign_parser
        from repro.experiments.campaign import CAMPAIGNS

        args = build_campaign_parser().parse_args(["demand-topology"])
        assert args.json_out is None
        assert args.seed is None
        assert CAMPAIGNS["demand-topology"].params == {"seed": 3}
        assert args.retries is None

    def test_parser_accepts_the_gate_flags(self, tmp_path):
        from repro.cli import build_campaign_parser

        args = build_campaign_parser().parse_args(
            ["demand-topology",
             "--json-out", str(tmp_path / "v.json"),
             "--jobs", "2", "--no-cache"])
        assert args.json_out == tmp_path / "v.json"
        assert args.jobs == 2
        assert args.no_cache is True

    def test_demand_topology_is_a_registered_experiment(self):
        assert "demand-topology" in EXPERIMENTS
        args = build_parser().parse_args(["demand-topology"])
        assert args.experiment == "demand-topology"


class TestObsCli:
    def _write_log(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        assert main(["figure7", "--jobs", "1",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--run-log", str(log)]) == 0
        return log

    def test_obs_summarize(self, tmp_path, capsys):
        log = self._write_log(tmp_path)
        capsys.readouterr()
        assert main(["obs", "summarize", str(log)]) == 0
        out = capsys.readouterr().out
        assert "2 record" in out
        assert "every reconfiguration accounted for" in out

    def test_obs_summarize_rolls_up_decision_reasons(self, tmp_path,
                                                     capsys):
        log = self._write_log(tmp_path)
        capsys.readouterr()
        assert main(["obs", "summarize", str(log)]) == 0
        out = capsys.readouterr().out
        # The per-reason rollup: every decision reason the runs logged,
        # with counts and a share of the total.
        assert "decision reasons (" in out
        assert "total):" in out
        assert "%" in out

    def test_obs_summarize_missing_log_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["obs", "summarize"])
        assert main(["obs", "summarize",
                     str(tmp_path / "empty.jsonl")]) != 0

    def test_obs_diff_identical_logs(self, tmp_path, capsys):
        log = self._write_log(tmp_path)
        capsys.readouterr()
        assert main(["obs", "diff", str(log), str(log)]) == 0
        out = capsys.readouterr().out
        assert "identical metrics" in out

    def test_obs_export_trace(self, tmp_path, capsys):
        import json
        from repro.obs.trace_export import validate_trace

        out_path = tmp_path / "trace.json"
        assert main(["obs", "export-trace", "--out", str(out_path),
                     "--k", "2", "--n", "2",
                     "--duration-ns", "100000"]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert validate_trace(payload) == []
        assert payload["otherData"]["transitions"] > 0

    def test_obs_export_trace_takes_every_registered_mode(self, tmp_path,
                                                          capsys):
        import json
        from repro.obs.trace_export import validate_trace

        out_path = tmp_path / "trace.json"
        assert main(["obs", "export-trace", "--out", str(out_path),
                     "--control", "dynamic_topology",
                     "--duration-ns", "300000"]) == 0
        capsys.readouterr()
        assert validate_trace(json.loads(out_path.read_text())) == []

    def test_obs_export_trace_unknown_mode_is_an_error(self, tmp_path,
                                                       capsys):
        assert main(["obs", "export-trace", "--out",
                     str(tmp_path / "trace.json"),
                     "--control", "nonsense"]) == 1
        err = capsys.readouterr().err
        assert "error: unknown control mode 'nonsense'" in err
        assert "dynamic_topology" in err
