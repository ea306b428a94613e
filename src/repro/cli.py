"""Command-line driver: regenerate any (or every) paper result.

Usage::

    python -m repro list
    python -m repro table1
    python -m repro figure8 --scale medium
    python -m repro all --output results/
    python -m repro figure9 --jobs 4          # parallel sweep workers
    python -m repro figure7 --no-cache        # force live simulation
    python -m repro golden-refresh            # rewrite tests/golden/*.json
    python -m repro figure8 --run-log runs.jsonl   # provenance records
    python -m repro figure8 --stats-json stats.json
    python -m repro obs summarize runs.jsonl
    python -m repro obs diff before.jsonl after.jsonl
    python -m repro obs export-trace --out trace.json
    python -m repro predictive                     # forecaster sweep
    python -m repro predict --forecaster ewma --oracle
    python -m repro chaos-campaign                 # an SLO campaign
    python -m repro campaign fault-tolerance --fault-seed 2
    python -m repro campaign demand-topology --json-out verdict.json
    python -m repro serve --single slow/resilient --trace-out svc.json

Simulation-backed experiments honour ``--scale`` (equivalent to the
``REPRO_SCALE`` environment variable); analytic ones ignore it.  Their
runs go through the sweep harness (:mod:`repro.experiments.sweep`):
``--jobs`` sets the worker-process count, and results persist in a disk
cache (``--cache-dir``, default ``~/.cache/repro/sweeps``) keyed by
spec content hash, so re-running a figure is near-instant; ``--no-cache``
bypasses it.  A per-experiment ``[sweep: ...]`` line reports runs
executed vs. cache hits and wall-clock; ``--stats-json`` writes the
same counters machine-readably.

The seeded SLO campaigns (:mod:`repro.experiments.campaign`) are
experiments like the rest, gated on their claims; ``campaign <name>``
runs one with ``--seed`` / ``--fault-seed`` / ``--scenario``
overriding the parameters it declares and ``--json-out`` writing its
verdict artifact.  ``predict`` runs the ``predictive`` experiment the
same way, narrowed to one ``--forecaster`` with its own knobs, and is
gated on the same claims.  ``serve --single ARM`` runs one arm of the
live-service campaign and exports its run record, metrics and trace.

Observability (:mod:`repro.obs`) surfaces through two hooks:
``--run-log PATH`` (or ``$REPRO_RUN_LOG``) appends one
provenance-stamped JSONL record per resolved spec, and the ``obs``
subcommands inspect those logs (``summarize``, ``diff``) or export a
Perfetto-loadable Chrome trace of a run (``export-trace``).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.experiments.scale import SCALES, ExperimentScale, current_scale


def _deferred(module: str, campaign: Optional[str] = None) -> Callable:
    """``repro.experiments.<module>.run`` — or campaign ``campaign`` of
    :mod:`repro.experiments.campaign` — imported on the first call, so
    the CLI loads only the command it dispatches; ``run.claims()``
    resolves the claims its result is checked against the same way."""
    qualified = f"repro.experiments.{module}"

    def run(*args, **kwargs):
        experiment = importlib.import_module(qualified)
        if campaign is None:
            return experiment.run(*args, **kwargs)
        return experiment.run(campaign, *args, **kwargs)

    def claims() -> tuple:
        experiment = importlib.import_module(qualified)
        if campaign is None:
            return experiment.CLAIMS
        return experiment.CAMPAIGNS[campaign].claims

    run.__module__ = qualified
    run.claims = claims
    return run


#: name -> (description, needs_scale, run callable)
EXPERIMENTS: Dict[str, tuple] = {
    "table1": ("FBFLY vs folded-Clos parts and power", False,
               _deferred("table1")),
    "table2": ("InfiniBand data rates", False, _deferred("table2")),
    "figure1": ("server vs network power scenarios", False,
                _deferred("figure1")),
    "figure5": ("switch-chip dynamic range", False, _deferred("figure5")),
    "figure6": ("ITRS bandwidth trend", False, _deferred("figure6")),
    "figure7": ("time per link speed, paired vs independent", True,
                _deferred("figure7")),
    "figure8": ("network power under rate scaling", True,
                _deferred("figure8")),
    "figure9": ("latency sensitivity (target, reactivation)", True,
                _deferred("figure9")),
    "asymmetry": ("per-direction channel load imbalance", True,
                  _deferred("asymmetry")),
    "policies": ("Section 5.2 heuristic ablation", True,
                 _deferred("policies")),
    "dynamic-topology": ("Section 5.1 mesh/torus/FBFLY modes", True,
                         _deferred("dynamic_topology")),
    "topology-comparison": ("rate scaling on FBFLY vs fat tree", True,
                            _deferred("topology_comparison")),
    "energy-aware": ("energy-aware vs plain adaptive routing", True,
                     _deferred("energy_aware")),
    "lane-ladder": ("scalar vs lane-aware rate ladders (§5.2)", True,
                    _deferred("lane_ladder")),
    "savings": ("simulated savings priced at the 32k-host scale", True,
                _deferred("savings")),
    "sensors": ("congestion-sensor ablation (§3.2)", True,
                _deferred("sensors")),
    "routing-ablation": ("adaptive vs dimension-order routing under "
                         "rate scaling", True,
                         _deferred("routing_ablation")),
    "mixed-media": ("copper vs optical packaging-aware pricing", True,
                    _deferred("mixed_media")),
    "oversubscription": ("§2.1.1 concentration sweep: W/host vs "
                         "saturation", True,
                         _deferred("oversubscription")),
    "predictive": ("forecast-driven rate control vs reactive, with "
                   "oracle/baseline regret", True,
                   _deferred("predictive")),
    # The campaigns of repro.experiments.campaign.CAMPAIGNS, with their
    # entries' descriptions (tests/test_campaigns.py keeps them equal).
    **{name: (description, True, _deferred("campaign", name))
       for name, description in (
           ("fault-tolerance", "seeded fault campaign: gated vs pinned "
                               "spanning-set availability"),
           ("chaos-campaign", "control-plane chaos sweep: failsafe SLOs "
                              "vs unprotected degradation"),
           ("demand-topology", "demand-aware topology control vs static "
                               "FBFLY/degraded under structured "
                               "matrices"),
           ("service-resilience", "live control-plane service: resilient "
                                  "vs unprotected SLOs under stream "
                                  "chaos"),
       )},
}


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type``: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def sweep_flags() -> argparse.ArgumentParser:
    """The sweep-harness flags shared by main and the ``predict`` and
    ``campaign`` verbs, which all run through :func:`run_experiment`
    (an argparse parent parser)."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "--jobs", type=_int_at_least(1), default=None, metavar="N",
        help="sweep worker processes (default: $REPRO_JOBS or cpu count)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent run cache (always simulate live)")
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="persistent run-cache directory "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro/sweeps)")
    parser.add_argument(
        "--run-log", type=Path, default=None, metavar="PATH",
        help="append one provenance-stamped JSONL run record per "
             "resolved spec (cache hits marked cached:true) or service "
             "arm; inspect with 'python -m repro obs summarize PATH'")
    parser.add_argument(
        "--retries", type=_int_at_least(0), default=None, metavar="N",
        help="in-process retry budget per failed sweep spec, with "
             "seeded exponential backoff (default: $REPRO_RETRIES "
             "or 1)")
    return parser


def configure_sweep(args: argparse.Namespace) -> None:
    """Apply the :func:`sweep_flags` to the process-wide runner."""
    from repro.experiments import sweep

    sweep.configure(jobs=args.jobs, use_cache=not args.no_cache,
                    cache_dir=args.cache_dir, run_log=args.run_log,
                    retries=args.retries)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce 'Energy Proportional Datacenter Networks' "
                    "(ISCA 2010) results.",
        parents=[sweep_flags()],
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list", "golden-refresh"],
        help="experiment to run, 'all', 'list' to enumerate them, or "
             "'golden-refresh' to rewrite tests/golden/*.json",
    )
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default=None,
        help="simulation scale (default: $REPRO_SCALE or 'small')",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="directory to also write each result table into "
             "(for golden-refresh: the golden directory, default "
             "tests/golden)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="with --output: also write each result's rows as "
             "<name>.json for downstream tooling",
    )
    parser.add_argument(
        "--stats-json", type=Path, default=None, metavar="PATH",
        help="write the per-experiment and total [sweep: ...] counters "
             "as JSON for machine consumption",
    )
    return parser


def run_experiment(name: str, scale: ExperimentScale,
                   output_dir: Optional[Path],
                   write_json: bool = False,
                   stats_sink: Optional[list] = None,
                   failed_claims: Optional[list] = None,
                   **params) -> Tuple[str, Any]:
    """Run one experiment (``params``: a campaign's overrides or
    ``predict``'s knobs) and return its formatted block and its result.

    The experiment's claims (:class:`report.Claim` rows) are checked
    against the result: the header counts those that hold and names
    each that fails.  When ``stats_sink`` is given (a list), one
    machine-readable entry per experiment — name, scale, wall seconds
    and the sweep counters — is appended to it (the ``--stats-json``
    payload); when ``failed_claims`` is given, the text of every
    failing claim is appended to it.
    """
    description, needs_scale, run = EXPERIMENTS[name]
    # Analytic experiments never sweep: unless the counters are asked
    # for, they leave the sweep harness (and the simulator) unloaded.
    window = contextlib.nullcontext()
    if needs_scale or stats_sink is not None:
        from repro.experiments import sweep
        window = sweep.active_runner().counting()
    started = time.perf_counter()
    with window as sweep_stats:
        result = run(scale=scale, **params) if needs_scale else run()
    text = result.format_table()
    elapsed = time.perf_counter() - started
    header = f"[{name}] {description} ({elapsed:.1f}s)"
    if sweep_stats is not None and sweep_stats.submitted:
        header += f"\n[sweep: {sweep_stats.format_line()}]"
    claims = run.claims()
    if claims:
        failed = [claim.text for claim in claims if not claim.holds(result)]
        header += (f"\n[claims: {len(claims) - len(failed)} of "
                   f"{len(claims)} hold]")
        header += "".join(f"\n  FAILS: {text}" for text in failed)
        if failed_claims is not None:
            failed_claims.extend(failed)
    if stats_sink is not None:
        stats_sink.append({
            "experiment": name,
            "scale": scale.name if needs_scale else None,
            "seconds": round(elapsed, 3),
            "sweep": sweep_stats.to_dict(),
        })
    block = f"{header}\n{text}\n"
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
        (output_dir / f"{name}.txt").write_text(text + "\n")
        if write_json:
            payload = {
                "experiment": name,
                "description": description,
                "scale": scale.name if needs_scale else None,
                "seconds": round(elapsed, 3),
                "rows": [[str(cell) for cell in row]
                         for row in result.rows()],
            }
            (output_dir / f"{name}.json").write_text(
                json.dumps(payload, indent=2) + "\n")
    return block, result


def build_obs_parser() -> argparse.ArgumentParser:
    """Construct the parser for the ``obs`` subcommand family."""
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Inspect run-record logs and export run traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser(
        "summarize",
        help="summarize a --run-log JSONL file and audit its decisions")
    p_sum.add_argument("run_log", type=Path,
                       help="run-record JSONL file to summarize")

    p_diff = sub.add_parser(
        "diff", help="compare the metrics of two run-record logs")
    p_diff.add_argument("log_a", type=Path, help="baseline run log")
    p_diff.add_argument("log_b", type=Path, help="candidate run log")

    p_tr = sub.add_parser(
        "export-trace",
        help="simulate one spec and write a Perfetto-loadable Chrome "
             "trace (rate timelines, epoch marks, power samples)")
    p_tr.add_argument("--out", type=Path, required=True, metavar="PATH",
                      help="output trace JSON file")
    p_tr.add_argument("--workload", default="search",
                      choices=["uniform", "search", "advert", "bursty",
                               "skewed", "shifting", "diurnal"],
                      help="workload to simulate (default: search)")
    p_tr.add_argument("--k", type=int, default=4,
                      help="FBFLY radix per dimension (default: 4)")
    p_tr.add_argument("--n", type=int, default=3,
                      help="FBFLY dimensions (default: 3)")
    p_tr.add_argument("--seed", type=int, default=1,
                      help="workload RNG seed (default: 1)")
    p_tr.add_argument("--duration-ns", type=float, default=2_000_000.0,
                      help="simulated duration in ns (default: 2e6)")
    p_tr.add_argument("--control", default="epoch",
                      help="control mode (default: epoch)")
    p_tr.add_argument("--faults", default=None, metavar="SCENARIO",
                      help="named fault scenario to inject; fault and "
                           "partition events render as instants on a "
                           "dedicated trace track (default: none)")
    p_tr.add_argument("--fault-seed", type=int, default=0,
                      help="fault-process RNG seed (default: 0)")
    p_tr.add_argument("--policy", default="threshold",
                      help="rate policy for epoch control "
                           "(default: threshold)")
    p_tr.add_argument("--forecaster", default=None,
                      help="forecaster for --control predict "
                           "(default: last_value)")
    p_tr.add_argument("--headroom", type=float, default=0.0,
                      help="forecast headroom fraction for predict/"
                           "oracle control (default: 0)")
    p_tr.add_argument("--independent-channels", action="store_true",
                      help="tune each channel direction separately")
    p_tr.add_argument("--power-period-ns", type=float, default=10_000.0,
                      help="power-sample period in ns; 0 disables the "
                           "power counter track (default: 1e4)")
    return parser


def _summarize_service_records(records) -> None:
    """Roll up ``kind: service`` run records: decision-latency
    percentiles plus shed/retry/restart health counters."""
    print(f"service records: {len(records)}")
    for record in records:
        summary = record.get("summary", {})
        print(f"  {record.get('label', '?'):24s} "
              f"epochs={summary.get('epochs', 0)} "
              f"dec/s={summary.get('decisions_per_sec', 0):.2f} "
              f"p50={summary.get('latency_p50_ns', 0) / 1e6:.0f}ms "
              f"p99={summary.get('latency_p99_ns', 0) / 1e6:.0f}ms "
              f"partitions={summary.get('partitions', 0)}")
    totals = {}
    for key in ("sheds", "retries", "retry_exhausted", "restarts",
                "recoveries", "stale_holds", "safe_floors",
                "journal_evictions", "checkpoints"):
        totals[key] = sum(r.get("summary", {}).get(key, 0)
                          for r in records)
    print("service health rollup: "
          f"shed={totals['sheds']} retries={totals['retries']} "
          f"(exhausted={totals['retry_exhausted']}) "
          f"restarts={totals['restarts']} "
          f"recoveries={totals['recoveries']} "
          f"stale_holds={totals['stale_holds']} "
          f"safe_floors={totals['safe_floors']} "
          f"journal_evictions={totals['journal_evictions']} "
          f"checkpoints={totals['checkpoints']}")
    worst = max((r.get("summary", {}).get("latency_p99_ns", 0)
                 for r in records), default=0)
    print(f"worst service p99 decision latency: {worst / 1e6:.0f}ms")


def _obs_summarize(run_log: Path) -> int:
    """Implement ``obs summarize``: totals plus the decision audit."""
    from repro.obs.runrecord import read_run_log, transitions_accounted

    all_records = read_run_log(run_log)
    if not all_records:
        print(f"{run_log}: no run records")
        return 1
    service_records = [r for r in all_records
                       if r.get("kind") == "service"]
    records = [r for r in all_records if r.get("kind") != "service"]
    if service_records:
        _summarize_service_records(service_records)
    if not records:
        return 0
    cached = sum(1 for r in records if r.get("cached"))
    keys = {r.get("cache_key") for r in records}
    print(f"{run_log}: {len(records)} records "
          f"({len(records) - cached} fresh, {cached} cached), "
          f"{len(keys)} distinct specs")
    print(f"cache hit rate: {cached / len(records):.1%} "
          f"({cached}/{len(records)} records served from cache)")
    walls = sorted(r["wall_seconds"] for r in records
                   if not r.get("cached")
                   and isinstance(r.get("wall_seconds"), (int, float)))
    if walls:
        def pct(q: float) -> float:
            return walls[min(len(walls) - 1, int(q * len(walls)))]
        print(f"wall seconds (fresh runs only): "
              f"p50={pct(0.50):.3f} p90={pct(0.90):.3f} "
              f"p99={pct(0.99):.3f} max={walls[-1]:.3f}")
    unaccounted = 0
    reason_totals: Dict[str, int] = {}
    for record in records:
        spec = record.get("spec", {})
        metrics = record.get("metrics", {})
        ok = transitions_accounted(record)
        unaccounted += 0 if ok else 1
        reasons = record.get("decisions", {}).get("counts", {})
        for reason, count in reasons.items():
            reason_totals[reason] = reason_totals.get(reason, 0) + count
        decided = sum(reasons.values())
        print(f"  {str(record.get('cache_key', ''))[:12]} "
              f"{spec.get('workload', '?')} k={spec.get('k', '?')} "
              f"n={spec.get('n', '?')} seed={spec.get('seed', '?')} "
              f"control={spec.get('control', '?')} "
              f"{'cached' if record.get('cached') else 'fresh '} "
              f"reconfig={metrics.get('reconfigurations', 0)} "
              f"decisions={decided} "
              f"audit={'ok' if ok else 'MISMATCH'}")
    if reason_totals:
        # Per-reason rollup across every record: makes fault-gating and
        # topology decision volumes auditable without replaying runs.
        total = sum(reason_totals.values())
        print(f"decision reasons ({total} total):")
        for reason in sorted(reason_totals):
            count = reason_totals[reason]
            print(f"  {reason:24s} {count:8d} ({count / total:.1%})")
    if unaccounted:
        print(f"AUDIT FAILURE: {unaccounted} record(s) do not account "
              "for every reconfiguration")
        return 1
    print("decision audit: every reconfiguration accounted for")
    return 0


def _obs_diff(log_a: Path, log_b: Path) -> int:
    """Implement ``obs diff``: metric drift between two run logs."""
    from repro.obs.runrecord import read_run_log

    def latest_by_key(path: Path):
        by_key = {}
        for record in read_run_log(path):
            by_key[record.get("cache_key")] = record
        return by_key

    a, b = latest_by_key(log_a), latest_by_key(log_b)
    differences = 0
    for key in sorted(set(a) | set(b), key=str):
        if key not in a:
            print(f"only in {log_b}: {str(key)[:12]}")
            differences += 1
            continue
        if key not in b:
            print(f"only in {log_a}: {str(key)[:12]}")
            differences += 1
            continue
        metrics_a = a[key].get("metrics", {})
        metrics_b = b[key].get("metrics", {})
        for field_name in sorted(set(metrics_a) | set(metrics_b), key=str):
            va, vb = metrics_a.get(field_name), metrics_b.get(field_name)
            if va != vb:
                print(f"{str(key)[:12]} {field_name}: {va!r} -> {vb!r}")
                differences += 1
    if differences:
        print(f"{differences} difference(s)")
        return 1
    print(f"identical metrics across {len(a)} spec(s)")
    return 0


def _obs_export_trace(args: argparse.Namespace) -> int:
    """Implement ``obs export-trace``: simulate and write the trace."""
    from repro.experiments.runner import SimulationSpec
    from repro.obs.trace_export import export_trace

    spec = SimulationSpec(
        k=args.k, n=args.n, workload=args.workload,
        duration_ns=args.duration_ns, seed=args.seed,
        control=args.control, policy=args.policy,
        independent_channels=args.independent_channels,
        forecaster=args.forecaster, headroom=args.headroom,
        faults=args.faults, fault_seed=args.fault_seed,
    )
    period = args.power_period_ns if args.power_period_ns > 0 else None
    trace = export_trace(spec, args.out, power_period_ns=period)
    meta = trace["otherData"]
    print(f"wrote {args.out}: {len(trace['traceEvents'])} events, "
          f"{meta['channels']} channel tracks, {meta['epochs']} epochs, "
          f"{meta['transitions']} rate transitions, "
          f"{meta['fault_events']} fault events")
    return 0


def build_predict_parser() -> argparse.ArgumentParser:
    """Construct the parser for the ``predict`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro predict",
        description="Compare predictive rate control against the "
                    "reactive controller, the full-rate baseline and "
                    "(optionally) the clairvoyant oracle, and check the "
                    "predictive experiment's claims; exits 1 if one "
                    "fails.",
        parents=[sweep_flags()],
    )
    from repro.predict.forecasters import FORECASTERS
    parser.add_argument(
        "--forecaster", default="ewma", choices=sorted(FORECASTERS),
        help="demand forecaster for the predictive run (default: ewma)")
    parser.add_argument(
        "--headroom", type=float, default=0.1, metavar="FRAC",
        help="capacity provisioned above the forecast, as a fraction "
             "(default: 0.1)")
    parser.add_argument(
        "--oracle", action="store_true",
        help="also run the clairvoyant oracle (costs one extra "
             "measurement pass) and report energy regret against it")
    parser.add_argument(
        "--workload", default="bursty",
        choices=["uniform", "search", "advert", "bursty"],
        help="workload to drive (default: bursty)")
    parser.add_argument(
        "--target", type=float, default=0.5, metavar="UTIL",
        help="demand-ladder target utilization for the predictive "
             "policy (default: 0.5)")
    parser.add_argument(
        "--seed", type=int, default=1, help="workload RNG seed")
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default=None,
        help="simulation scale (default: $REPRO_SCALE or 'small')")
    return parser


def predict_main(argv) -> int:
    """Entry point for ``python -m repro predict ...``: ``repro
    predictive`` with one forecaster and the given knobs, plus the
    dominance verdict."""
    args = build_predict_parser().parse_args(argv)
    configure_sweep(args)
    scale = SCALES[args.scale] if args.scale else current_scale()
    failed_claims: list = []
    try:
        block, result = run_experiment(
            "predictive", scale, None, failed_claims=failed_claims,
            workload=args.workload, forecasters=[args.forecaster],
            headroom=args.headroom, target=args.target, seed=args.seed,
            with_oracle=args.oracle)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(block)
    winner = result.dominance()
    if winner:
        print(f"predict/{winner} strictly dominates reactive control "
              "on the power/latency frontier (>=5% margin).")
    return 1 if failed_claims else 0


def build_campaign_parser() -> argparse.ArgumentParser:
    """Construct the parser for the ``campaign`` subcommand."""
    from repro.experiments import campaign

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Run one seeded SLO campaign: every arm, a per-arm "
                    "verdict on the campaign's legs, and its claims "
                    "(protected arms pass every leg, ablation arms fail "
                    "one); exits 1 if a claim fails.",
        parents=[sweep_flags()],
    )
    parser.add_argument("name", choices=sorted(campaign.CAMPAIGNS),
                        help="the campaign to run")
    parser.add_argument(
        "--json-out", type=Path, default=None, metavar="PATH",
        help="also write the machine-readable verdict as JSON "
             "(the CI artifact)")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload RNG seed (default: the campaign's)")
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="fault-process RNG seed (default: the campaign's)")
    parser.add_argument(
        "--scenario", default=None,
        help="named data-plane fault scenario (default: the campaign's)")
    return parser


def campaign_main(argv) -> int:
    """Entry point for ``python -m repro campaign ...``: ``repro <name>``
    with the given overrides, plus the ``--json-out`` verdict."""
    args = build_campaign_parser().parse_args(argv)
    configure_sweep(args)
    given = {key: getattr(args, key)
             for key in ("seed", "fault_seed", "scenario")
             if getattr(args, key) is not None}
    failed_claims: list = []
    try:
        block, result = run_experiment(args.name, current_scale(), None,
                                       failed_claims=failed_claims,
                                       **given)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(block)
    if args.json_out is not None:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        args.json_out.write_text(
            json.dumps(result.verdict_dict(), indent=2, sort_keys=True)
            + "\n")
        print(f"wrote {args.json_out}")
    return 1 if failed_claims else 0


def build_serve_parser() -> argparse.ArgumentParser:
    """Construct the parser for the ``serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run one arm of the live control-plane service over "
                    "an accelerated diurnal trace and export its run "
                    "record, metrics dump and Perfetto trace.  The whole "
                    "resilience campaign is 'python -m repro campaign "
                    "service-resilience'.",
    )
    parser.add_argument(
        "--single", required=True, metavar="ARM",
        help="the arm to run: 'reference' or "
             "'<scenario>/<resilient|unprotected>' with scenario in "
             "dropout/loss/crash/slow")
    parser.add_argument(
        "--epochs", type=int, default=None, metavar="N",
        help="override the arm's epoch count")
    parser.add_argument(
        "--run-log", type=Path, default=None, metavar="PATH",
        help="append the arm's service run record (readable by "
             "'repro obs summarize')")
    parser.add_argument(
        "--metrics-out", type=Path, default=None, metavar="PATH",
        help="write the Prometheus-flavoured metrics dump")
    parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="PATH",
        help="write a Perfetto-loadable Chrome trace of the service "
             "timeline")
    return parser


def serve_main(argv) -> int:
    """Entry point for ``python -m repro serve ...``."""
    import dataclasses as _dc

    from repro.experiments import service_resilience
    from repro.obs.decisions import DecisionLog
    from repro.obs.runrecord import RunRecordWriter
    from repro.service.service import ControlPlaneService

    args = build_serve_parser().parse_args(argv)
    arms = service_resilience.arms()
    if args.single not in arms:
        print(f"error: unknown arm {args.single!r}; one of "
              f"{', '.join(sorted(arms))}", file=sys.stderr)
        return 1
    config, scenario, slow = arms[args.single]
    if args.epochs is not None:
        config = _dc.replace(config, epochs=args.epochs)
    want_trace = args.trace_out is not None
    service = ControlPlaneService(
        config, scenario=scenario, slow=slow,
        decision_log=DecisionLog(max_records=None) if want_trace else None,
        capture_events=want_trace)
    summary = service.run()
    print(f"{args.single}: {summary.format_line()}")
    if args.run_log is not None:
        RunRecordWriter(args.run_log).record_service(args.single, config,
                                                      summary)
        print(f"appended run record to {args.run_log}")
    if args.metrics_out is not None:
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_out.write_text(service.metrics.format_text())
        print(f"wrote {args.metrics_out}")
    if want_trace:
        from repro.obs.trace_export import export_service_trace
        trace = export_service_trace(
            service, args.trace_out, label=f"repro serve {args.single}")
        meta = trace["otherData"]
        print(f"wrote {args.trace_out}: "
              f"{len(trace['traceEvents'])} events, "
              f"{meta['groups']} group tracks, "
              f"{meta['service_events']} service events")
    return 0


def obs_main(argv) -> int:
    """Entry point for ``python -m repro obs ...``."""
    args = build_obs_parser().parse_args(argv)
    try:
        if args.command == "summarize":
            return _obs_summarize(args.run_log)
        if args.command == "diff":
            return _obs_diff(args.log_a, args.log_b)
        return _obs_export_trace(args)
    except (OSError, ValueError) as exc:
        # Missing/corrupt run logs are user errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    """CLI entry point: run the experiment and print its table."""
    if argv is None:
        argv = sys.argv[1:]
    subcommands = {"obs": obs_main, "predict": predict_main,
                   "campaign": campaign_main, "serve": serve_main}
    if argv and argv[0] in subcommands:
        return subcommands[argv[0]](list(argv[1:]))
    args = build_parser().parse_args(argv)

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            description, needs_scale, _ = EXPERIMENTS[name]
            kind = "sim" if needs_scale else "analytic"
            print(f"{name:22s} [{kind:8s}] {description}")
        return 0

    if args.experiment == "golden-refresh":
        from repro.experiments import golden, sweep

        configure_sweep(args)
        target = args.output or golden.default_golden_dir()
        for path in golden.refresh(target, jobs=sweep.active_runner().jobs):
            print(f"wrote {path}")
        return 0

    scale = SCALES[args.scale] if args.scale else current_scale()
    names = (sorted(EXPERIMENTS) if args.experiment == "all"
             else [args.experiment])
    stats_sink: Optional[list] = [] if args.stats_json else None
    failed_claims: list = []
    if stats_sink is not None or any(EXPERIMENTS[name][1] for name in names):
        configure_sweep(args)
    for name in names:
        block, _ = run_experiment(name, scale, args.output,
                                  write_json=args.json,
                                  stats_sink=stats_sink,
                                  failed_claims=failed_claims)
        print(block)
    if args.stats_json is not None:
        from repro.experiments import sweep

        payload = {
            "experiments": stats_sink,
            "total": sweep.active_runner().stats.to_dict(),
        }
        args.stats_json.parent.mkdir(parents=True, exist_ok=True)
        args.stats_json.write_text(json.dumps(payload, indent=2) + "\n")
    return 1 if failed_claims else 0


if __name__ == "__main__":   # pragma: no cover - exercised via __main__
    sys.exit(main())
