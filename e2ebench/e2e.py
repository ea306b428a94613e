"""End-to-end benchmark: four workloads, traced per-layer shares.

One parent process starts one single-threaded worker process per
repeat, strictly one at a time, and times each repeat from outside the
program's public entry points (:mod:`workloads`).  Host times are
scaled to a reference host speed that a probe measures all through
each repeat (:mod:`probe`).  A separate traced
repeat per workload gives the per-layer numbers (:mod:`spans`); it is
never used for the end-to-end numbers.  Metric names, units,
directions and regression bounds come from ``BENCHMARK.json`` at the
repository root.

Subcommands::

    e2e.py measure --workload W --seed N --seconds S --trace 0|1
    e2e.py run [--seed N] [--quick] [--out FILE]
    e2e.py compare A.json B.json
    e2e.py pair --base DIR --head DIR --workload W [--pairs 10]

``measure`` repeats one workload for ``S`` seconds and prints one JSON
result line; ``run`` makes a full round-robin pass over every workload
and prints the tables; ``compare`` judges two ``run --out`` documents
against the bounds; ``pair`` runs the same benchmark code over two
source trees, alternating which goes first.  Workers import ``repro``
from ``src/`` of the repository root (or of ``--base``/``--head``) and
from nowhere else.  At seed 1 every full-size repeat must reproduce the
summary digests of the committed seed-1 baseline document.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: The committed seed-1 pass whose digests every later seed-1 repeat
#: must reproduce.
PIN_DOC = HERE / "baseline" / "seed1-a.json"
PIN_SEED = 1

WORKLOADS = ("fabric-steady", "fabric-rpc", "control-chaos",
             "service-fleet")

#: Untraced round-robin rounds of a ``run`` pass.
REPEATS = 5

#: A worker still running after this long is killed; the repeat fails.
WORKER_TIMEOUT_S = 60.0

#: ``run --quick``: one repeat of each workload at a quarter of its size.
QUICK_SCALE = 0.25

#: Absolute differences that never count as a change, whatever the
#: relative bound (interpreter start-up jitter dominates ``setup_s``).
ABSOLUTE_FLOOR = {"setup_s": 0.1}

#: End-to-end metrics: the value of one successful repeat.  A run
#: reports the median over its repeats.  Host times are at the
#: reference host speed of :mod:`probe`.
END_TO_END = {
    "run_s": lambda r: r["run_s"],
    "sim_us_per_s": lambda r: r["sim_us"] / r["run_s"],
    "decisions_per_s": lambda r: r["decisions"] / r["run_s"],
    "setup_s": lambda r: r["setup_s"],
    "peak_rss_mb": lambda r: r["peak_rss_mb"],
    "power_frac": lambda r: r["power_frac"],
}


def load_benchmark() -> Dict:
    """``BENCHMARK.json`` from the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_src(tree: Path) -> Path:
    """``tree/src``, or exit when it holds no ``repro`` package."""
    src = (tree / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"e2e: no repro package under {src}")
    return src


def load_pins() -> Dict[str, str]:
    """Each workload's summary-digest SHA-256 at seed 1, full size, as
    the committed seed-1 baseline recorded it."""
    if not PIN_DOC.is_file():
        return {}
    doc = json.loads(PIN_DOC.read_text())
    return {w: entry["digests"][0] for w, entry in doc["workloads"].items()}


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

def run_worker(src: Path, workload: str, seed: int, scale: float,
               trace: bool) -> Dict:
    """One repeat in a fresh process; the worker's JSON result."""
    env = dict(os.environ, PYTHONPATH=str(src), E2E_SRC=str(src),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, str(seed), repr(scale),
             "1" if trace else "0", repr(spawned)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False,
                "problems": [f"timed out after {WORKER_TIMEOUT_S} s"]}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"ok": False, "problems": [
            f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"]}


def timed_repeats(src: Path, workload: str, seed: int, budget: float,
                  least: int) -> List[Dict]:
    """Untraced full-size repeats: at least ``least``, then more while
    another as long as the longest so far still ends within ``budget``
    seconds of the start."""
    started = time.monotonic()
    results: List[Dict] = []
    longest = 0.0
    while True:
        began = time.monotonic()
        results.append(run_worker(src, workload, seed, 1.0, False))
        now = time.monotonic()
        longest = max(longest, now - began)
        if len(results) >= least and now - started + longest > budget:
            return results


# ---------------------------------------------------------------------------
# Statistics and summaries
# ---------------------------------------------------------------------------

def quartiles(values: List[float]) -> Dict:
    """Median, quartiles (as ``statistics.quantiles`` gives them) and n."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _failures(results: List[Dict], pin: Optional[str]) -> List[bool]:
    """Which repeats failed: raised, broke an invariant, or produced a
    digest other than the pinned one (or, unpinned, the first one)."""
    reference = pin
    if reference is None:
        reference = next((r["digest"] for r in results if r["ok"]), None)
    return [not r["ok"] or r["digest"] != reference for r in results]


def _layers(traced: Dict, untraced_run: float, names: List[str]
            ) -> Dict[str, float]:
    """Every per-layer metric of one traced repeat (0 where a layer is
    not exercised); ``untraced_run`` is the untraced repeats' median
    ``run_s``.  Self times are at the reference host speed, as
    ``run_s`` is."""
    run_s = traced["run_s"]
    out = dict.fromkeys(names, 0)
    for layer, seconds in traced["self_s"].items():
        out[f"{layer}.self_s"] = seconds
        out[f"{layer}.share"] = seconds / run_s
    out.update(traced["counts"])
    calls = traced["calls"]
    out["routing.calls"] = sum(count for name, count in calls.items()
                               if name.endswith("Routing.__call__"))
    out["core.epochs"] = calls.get("EpochController._on_epoch", 0)
    hops = out.get("sim.switch.hops", 0)
    out["sim.engine.events_per_hop"] = (
        out.get("sim.engine.events", 0) / hops if hops else 0)
    out["trace.overhead"] = run_s / untraced_run - 1
    unknown = set(out) - set(names)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics {sorted(unknown)}")
    return out


def summarize(results: List[Dict], traced: Optional[Dict],
              pin: Optional[str], per_layer: List[str]) -> Dict:
    """One workload's repeats as medians, quartiles and failures."""
    attempts = results + ([traced] if traced is not None else [])
    failed = _failures(attempts, pin)
    good = [r for r, bad in zip(results, failed) if not bad]
    doc = {
        "attempted": len(attempts),
        "failed": sum(failed),
        "error_rate": sum(failed) / len(attempts),
        "digests": [r.get("digest") for r in attempts],
        "problems": sorted({p for r in attempts for p in r["problems"]}),
        "metrics": {},
        "host": None,
        "layers": None,
    }
    if not good:
        return doc
    for name, metric in END_TO_END.items():
        values = [metric(r) for r in good]
        doc["metrics"][name] = {**quartiles(values), "values": values}
    doc["host"] = {name: quartiles([r[name] for r in good])
                   for name in ("wall_s", "setup_wall_s", "speed")}
    if traced is not None and not failed[-1]:
        doc["layers"] = _layers(traced, doc["metrics"]["run_s"]["median"],
                                per_layer)
    return doc


# ---------------------------------------------------------------------------
# measure: one workload, one JSON line
# ---------------------------------------------------------------------------

def measure(args) -> int:
    """Repeat one workload for ``--seconds``; print the result line."""
    bench = load_benchmark()
    src = require_src(ROOT)
    pin = load_pins().get(args.workload) if args.seed == PIN_SEED else None
    # The traced repeat runs after the untraced ones, which then get
    # half the time: they are the base of trace.overhead.
    if args.trace:
        results = timed_repeats(src, args.workload, args.seed,
                                args.seconds / 2, least=1)
        traced = run_worker(src, args.workload, args.seed, 1.0, True)
    else:
        results = timed_repeats(src, args.workload, args.seed,
                                args.seconds, least=2)
        traced = None
    per_layer = [m["name"] for m in bench["per_layer"]]
    doc = summarize(results, traced, pin, per_layer)
    for problem in doc["problems"]:
        print(f"problem: {problem}")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        values = doc["layers"]
    else:
        values = {name: m["median"] for name, m in doc["metrics"].items()}
    if not values:
        print("e2e: no successful repeat to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


# ---------------------------------------------------------------------------
# run: a full round-robin pass
# ---------------------------------------------------------------------------

def environment() -> Dict:
    """Where a pass ran: commit, cores, interpreter."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine()}


def run_pass(src: Path, seed: int, repeats: int, scale: float,
             pins: Dict[str, str], workloads=WORKLOADS) -> Dict:
    """``repeats`` untraced rounds over ``workloads``, then one traced
    repeat each; repeats go round-robin so slow phases of the machine
    spread over every workload.  ``pins`` maps a workload to the digest
    every repeat must produce."""
    per_layer = [m["name"] for m in load_benchmark()["per_layer"]]
    results = {w: [] for w in workloads}
    for _ in range(repeats):
        for w in workloads:
            results[w].append(run_worker(src, w, seed, scale, False))
    traced = {w: run_worker(src, w, seed, scale, True) for w in workloads}
    return {
        "seed": seed, "scale": scale, "repeats": repeats,
        "environment": environment(),
        "workloads": {
            w: summarize(results[w], traced[w], pins.get(w), per_layer)
            for w in workloads},
    }


def format_pass(doc: Dict, bench: Dict) -> str:
    """The end-to-end table, then the per-layer table."""
    workloads = list(doc["workloads"])
    lines = [f"{'workload':<14} {'metric':<16} {'unit':<6} "
             f"{'median':>13} {'q1':>13} {'q3':>13} {'n':>3}"]
    for w in workloads:
        entry = doc["workloads"][w]
        for m in bench["end_to_end"]:
            stats = entry["metrics"].get(m["name"])
            head = f"{w:<14} {m['name']:<16} {m['unit']:<6}"
            if stats is None:
                lines.append(f"{head} {'-':>13}")
                continue
            lines.append(f"{head} {stats['median']:>13.6g} "
                         f"{stats['q1']:>13.6g} {stats['q3']:>13.6g} "
                         f"{stats['n']:>3}")
        lines.append(f"{w:<14} {'error_rate':<16} {'1':<6} "
                     f"{entry['error_rate']:>13.6g} "
                     f"({entry['failed']}/{entry['attempted']} failed)")
        if entry["host"]:
            host = {k: q["median"] for k, q in entry["host"].items()}
            lines.append(f"{'':<14} as measured: run {host['wall_s']:.4g} s,"
                         f" set-up {host['setup_wall_s']:.4g} s, host speed"
                         f" {host['speed']:.3g} of the reference")
        for problem in entry["problems"]:
            lines.append(f"{'':<14} problem: {problem.strip()}")
    lines.append("")
    lines.append(f"{'per-layer (traced)':<30} {'unit':<6} "
                 + " ".join(f"{w:>14}" for w in workloads))
    for metric in bench["per_layer"]:
        cells = []
        for w in workloads:
            layers = doc["workloads"][w]["layers"]
            cells.append(f"{layers[metric['name']]:>14.6g}"
                         if layers else f"{'-':>14}")
        lines.append(f"{metric['name']:<30} {metric['unit']:<6} "
                     + " ".join(cells))
    return "\n".join(lines)


def run(args) -> int:
    """A full pass; nonzero exit when any repeat failed."""
    src = require_src(ROOT)
    if args.quick:
        doc = run_pass(src, args.seed, 1, QUICK_SCALE, {})
    else:
        doc = run_pass(src, args.seed, REPEATS, 1.0,
                       load_pins() if args.seed == PIN_SEED else {})
    print(format_pass(doc, load_benchmark()))
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True)
                                  + "\n")
    return 1 if any(e["error_rate"] > 0
                    for e in doc["workloads"].values()) else 0


# ---------------------------------------------------------------------------
# compare: two passes against the bounds
# ---------------------------------------------------------------------------

def verdict(before: Dict, after: Dict, better: str, bound: float,
            floor: float = 0.0) -> str:
    """``improved``, ``regressed``, ``within bound`` or ``unresolved``.

    Judges the medians.  A metric is unresolved when either side's
    q1-q3 spread, relative to its median, is wider than the bound,
    unless every run of one side beats every run of the other.
    """
    sign = 1.0 if better == "lower" else -1.0
    change = after["median"] - before["median"]
    worse = sign * change / abs(before["median"])
    spread = max((s["q3"] - s["q1"]) / abs(s["median"])
                 for s in (before, after))
    separated = (max(after["values"]) < min(before["values"])
                 or max(before["values"]) < min(after["values"]))
    if spread > bound and not separated:
        return "unresolved"
    if abs(change) <= floor:
        return "within bound"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "within bound"


def compare_docs(before: Dict, after: Dict, bench: Dict) -> List[tuple]:
    """``(workload, metric, verdict, before median, after median)`` for
    every workload both passes ran and every end-to-end metric."""
    rows = []
    for w in before["workloads"]:
        if w not in after["workloads"]:
            continue
        b, a = before["workloads"][w], after["workloads"][w]
        for m in bench["end_to_end"]:
            name = m["name"]
            if name not in b["metrics"] or name not in a["metrics"]:
                rows.append((w, name, "unresolved", None, None))
                continue
            rows.append((w, name, verdict(
                b["metrics"][name], a["metrics"][name], m["better"],
                m["bound"], ABSOLUTE_FLOOR.get(name, 0.0)),
                b["metrics"][name]["median"], a["metrics"][name]["median"]))
    return rows


def compare(args) -> int:
    """Print every verdict; nonzero exit when anything regressed."""
    before = json.loads(Path(args.before).read_text())
    after = json.loads(Path(args.after).read_text())
    rows = compare_docs(before, after, load_benchmark())
    for w, name, result, b, a in rows:
        detail = "" if b is None else f"{b:>13.6g} -> {a:<13.6g}"
        print(f"{w:<14} {name:<16} {result:<13} {detail}")
    return 1 if any(row[2] == "regressed" for row in rows) else 0


# ---------------------------------------------------------------------------
# pair: base vs head with identical benchmark code
# ---------------------------------------------------------------------------

def pair(args) -> int:
    """Alternate base and head repeats; report wins and quartiles."""
    srcs = {"base": require_src(args.base), "head": require_src(args.head)}
    bench = load_benchmark()
    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(run_worker(srcs[side], args.workload,
                                         args.seed, 1.0, False))
    failures = {side: sum(not r["ok"] for r in runs[side]) for side in runs}
    pairs = [(b, h) for b, h in zip(runs["base"], runs["head"])
             if b["ok"] and h["ok"]]
    same = all(b["digest"] == h["digest"] for b, h in pairs)
    print(f"{args.workload}: {len(pairs)} of {args.pairs} pairs ran; "
          f"failed repeats base {failures['base']}, head "
          f"{failures['head']}; summary digests "
          f"{'agree' if same else 'DIFFER'}")
    if not pairs:
        return 1

    def cell(q):
        return f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"

    print(f"{'metric':<16} {'base median [q1, q3]':<34} "
          f"{'head median [q1, q3]':<34} {'head wins':<10} claim")
    for m in bench["end_to_end"]:
        metric = END_TO_END[m["name"]]
        base = [metric(b) for b, _ in pairs]
        head = [metric(h) for _, h in pairs]
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
        qb, qh = quartiles(base), quartiles(head)
        # A gain needs wins in nine tenths of all pairs run (ties count
        # for neither side), a median gap wider than the distance between
        # the base's own quartiles, and no more failed repeats than base.
        gain = (wins >= 0.9 * args.pairs
                and abs(qh["median"] - qb["median"]) > qb["q3"] - qb["q1"]
                and failures["head"] <= failures["base"])
        print(f"{m['name']:<16} {cell(qb):<34} {cell(qh):<34} "
              f"{wins:>3}/{args.pairs:<6} {'gain' if gain else 'no claim'}")
    return 0


def main(argv=None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="one workload, one JSON line")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=measure)

    p = sub.add_parser("run", help="full round-robin pass and tables")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=run)

    p = sub.add_parser("compare", help="verdicts of B against A")
    p.add_argument("before")
    p.add_argument("after")
    p.set_defaults(fn=compare)

    p = sub.add_parser("pair", help="alternating base/head repeats")
    p.add_argument("--base", type=Path, required=True)
    p.add_argument("--head", type=Path, required=True)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=pair)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
