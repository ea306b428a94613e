"""Golden reference values: frozen headline numbers, drift-checked.

The regression layer freezes the repo's headline outputs — Table 1 part
counts and power, Figure 1 scenario watts, and the Figure 7 small-scale
simulation digest — into ``tests/golden/*.json``.  The golden tests
recompute each payload live and assert it matches within ``1e-9``, so a
performance refactor (sharding, caching, parallel workers) can never
silently change results.

Refreshing is deliberate, never automatic::

    python -m repro golden-refresh          # or: make golden-refresh

which rewrites the files through exactly the same payload builders the
tests compare against.
"""

from __future__ import annotations

import functools
import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List

from repro.experiments import campaign, figure1, figure7, predictive, table1
from repro.experiments.cache import summary_digest
from repro.experiments.scale import SCALES
from repro.experiments.sweep import SweepRunner, using_runner

#: Relative tolerance/absolute floor for float comparison.
GOLDEN_TOLERANCE = 1e-9


def table1_payload() -> Dict[str, Any]:
    """Table 1's part counts, power and savings (analytic, exact)."""
    result = table1.run()
    return {
        "clos": dict(result.clos),
        "fbfly": dict(result.fbfly),
        "fbfly_savings_dollars": result.fbfly_savings_dollars,
        "fbfly_lifetime_cost_dollars": result.fbfly_lifetime_cost_dollars,
    }


def figure1_payload() -> Dict[str, Any]:
    """Figure 1's scenario bars and derived savings (analytic, exact)."""
    result = figure1.run()
    return {
        "scenarios": {name: dict(bars)
                      for name, bars in result.scenarios.items()},
        "network_watts_saved_at_15pct": result.network_watts_saved_at_15pct,
        "savings_dollars": result.savings_dollars,
    }


def figure7_payload() -> Dict[str, Any]:
    """Figure 7's full run digests at the pinned ``small`` scale.

    Always simulates live (isolated no-cache runner) so the golden file
    reflects the code, never a stale cache entry; the scale is pinned
    rather than read from ``REPRO_SCALE`` so the payload is comparable
    across environments.
    """
    with using_runner(SweepRunner(jobs=1, use_cache=False)):
        result = figure7.run(scale=SCALES["small"])
    return {
        "scale": "small",
        "workload": "search",
        "paired": summary_digest(result.paired),
        "independent": summary_digest(result.independent),
        "fast_time_paired": result.fast_time(result.paired),
        "fast_time_independent": result.fast_time(result.independent),
    }


def predictive_payload() -> Dict[str, Any]:
    """Predictive-control digests at the pinned ``small`` scale.

    Covers the whole predictive stack in one frozen payload: the
    bursty-trace baseline, the reactive controller, two forecasters
    (last-value and EWMA, digests including their forecast-error
    ledgers) and the clairvoyant oracle.  Live no-cache runs, same as
    the Figure 7 golden.
    """
    with using_runner(SweepRunner(jobs=1, use_cache=False)):
        result = predictive.run(scale=SCALES["small"],
                                forecasters=("last_value", "ewma"))
    return {
        "scale": "small",
        "workload": result.workload,
        "headroom": result.headroom,
        "baseline": summary_digest(result.baseline),
        "reactive": summary_digest(result.reactive),
        "oracle": summary_digest(result.oracle),
        "predict": {name: summary_digest(summary)
                    for name, summary in result.by_forecaster.items()},
    }


def campaign_payload(name: str) -> Dict[str, Any]:
    """One campaign's per-arm digests and verdict (see
    :mod:`repro.experiments.campaign`).

    Freezes the campaign's whole stack at its pinned fabric and seeds:
    every run's digest (simulation or service), the expectation
    booleans and, unless the entry opts out, the verdict artifact
    itself.  Live no-cache runs, same as the Figure 7 golden.
    """
    with using_runner(SweepRunner(jobs=1, use_cache=False)):
        result = campaign.run(name)
    entry = result.campaign
    verdict = result.verdict_dict()
    payload = {"runs": {label: summary.digest()
                        for label, summary in result.by_label.items()}}
    payload.update((e.key, verdict[e.key]) for e in entry.expectations)
    payload.update((key, result.params[key]) for key in entry.golden_params)
    if entry.golden_verdict:
        payload["verdict"] = verdict
    return payload


#: name -> payload builder; the golden file set.
GOLDEN_BUILDERS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "table1": table1_payload,
    "figure1": figure1_payload,
    "figure7": figure7_payload,
    "predictive": predictive_payload,
    **{entry.golden: functools.partial(campaign_payload, name)
       for name, entry in campaign.CAMPAIGNS.items()},
}


def default_golden_dir() -> Path:
    """Where the golden files live in a source checkout."""
    return Path("tests") / "golden"


def _golden_text(name: str) -> str:
    """One golden file's contents (a picklable worker task)."""
    return json.dumps(GOLDEN_BUILDERS[name](), sort_keys=True,
                      indent=1) + "\n"


def refresh(directory: Path, jobs: int = 1) -> List[Path]:
    """Recompute and rewrite every golden file; returns written paths.

    The payloads are independent, so ``jobs > 1`` builds them on a
    process pool; every builder pins its own serial no-cache runner,
    so the bytes do not depend on the worker count.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = list(GOLDEN_BUILDERS)
    workers = min(jobs, len(names))
    if workers > 1:
        # The campaign payloads, declared last, simulate the most:
        # submitting them first lets the workers finish together.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {name: pool.submit(_golden_text, name)
                       for name in reversed(names)}
            texts = {name: future.result()
                     for name, future in futures.items()}
    else:
        texts = {name: _golden_text(name) for name in names}
    written = []
    for name in names:
        path = directory / f"{name}.json"
        path.write_text(texts[name])
        written.append(path)
    return written


def load(directory: Path, name: str) -> Dict[str, Any]:
    """Read one golden payload from disk."""
    return json.loads((Path(directory) / f"{name}.json").read_text())


def assert_close(expected: Any, actual: Any,
                 tolerance: float = GOLDEN_TOLERANCE,
                 path: str = "$") -> None:
    """Deep-compare payloads; floats within ``tolerance``, rest exact.

    Raises ``AssertionError`` naming the first diverging path, so a
    golden failure points straight at the drifted quantity.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            raise AssertionError(
                f"{path}: keys differ: {sorted(expected)} vs "
                f"{sorted(actual) if isinstance(actual, dict) else actual}")
        for key in expected:
            assert_close(expected[key], actual[key], tolerance,
                         f"{path}.{key}")
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            raise AssertionError(f"{path}: list shapes differ")
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_close(e, a, tolerance, f"{path}[{i}]")
    elif isinstance(expected, bool) or expected is None:
        # Strict: bool == int in Python, but not in a golden payload.
        if type(actual) is not type(expected) or actual != expected:
            raise AssertionError(f"{path}: {expected!r} != {actual!r}")
    elif isinstance(expected, (int, float)):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            raise AssertionError(f"{path}: {expected!r} != {actual!r}")
        bound = tolerance + tolerance * abs(expected)
        if abs(float(expected) - float(actual)) > bound:
            raise AssertionError(
                f"{path}: {expected!r} != {actual!r} (tol {tolerance})")
    else:
        if actual != expected:
            raise AssertionError(f"{path}: {expected!r} != {actual!r}")
