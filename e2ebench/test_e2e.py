"""Checks of the end-to-end benchmark itself, at its quick size.

Run from the repository root::

    python -m pytest e2ebench/test_e2e.py
"""

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import e2e
import probe
import spans

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def bench():
    return e2e.load_benchmark()


@pytest.fixture(scope="module")
def quick_pass():
    src = e2e.require_src(e2e.ROOT)
    return e2e.run_pass(src, seed=1, repeats=1, scale=e2e.QUICK_SCALE,
                        pins={})


def test_benchmark_schema(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["e2ebench"]
    assert 1 <= bench["run_seconds"] <= 60
    assert [w["name"] for w in bench["workloads"]] == list(e2e.WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"]
        assert len(w["why"]) <= 200
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_declared_metrics_match_the_code(bench):
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e.END_TO_END)
    per_layer = {m["name"] for m in bench["per_layer"]}
    for layer in spans.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.share"} <= per_layer


def test_callbacks_bill_to_the_owning_layer():
    assert spans.layer_of_module("repro.sim.switch") == "sim.switch"
    assert spans.layer_of_module("repro.core.failsafe") == "core.failsafe"
    assert spans.layer_of_module("repro.core.controller") == "core"
    assert spans.layer_of_module("repro.topo.controller") == "topo"
    assert spans.layer_of_module("repro.sim.fabric") == "workloads"
    assert spans.layer_of_module("repro.sim.faults") == "faults"
    assert spans.layer_of_module("repro.sim.newpart") == "sim.engine"


def test_group_work_is_spanned_beneath_every_proxy():
    # The guard and chaos proxies forward to the real group, which
    # forwards retunes to its channels; each level is its own span, so
    # the proxies keep only their own work.
    spanned = {(cls, method) for _, cls, methods, _ in spans._CHILD_SPANS
               for method in methods}
    proxied = {method for cls, method in spanned
               if cls in ("ChaosGroup", "GuardedGroup")}
    assert {("ChannelGroup", m) for m in proxied} <= spanned
    assert ("Channel", "set_rate") in spanned


def test_probe_scales_to_the_reference_speed():
    ref = probe.REFERENCE_CHUNK_S
    speed_probe = probe.SpeedProbe()
    speed_probe.samples = [(1.0, 2 * ref), (2.0, 2 * ref), (5.0, 1.0)]
    spent, speed = speed_probe.window(0.5, 3.0)
    assert spent == pytest.approx(4 * ref)
    assert speed == pytest.approx(0.5)
    assert speed_probe.window(3.0, 4.0) == (0.0, None)


def test_every_declared_metric_is_emitted(quick_pass, bench):
    per_layer = [m["name"] for m in bench["per_layer"]]
    for name, entry in quick_pass["workloads"].items():
        assert entry["error_rate"] == 0, (name, entry["problems"])
        assert list(entry["metrics"]) == list(e2e.END_TO_END)
        for metric in entry["metrics"].values():
            assert metric["median"] > 0 and metric["n"] == 1
        assert entry["host"]["speed"]["median"] > 0
        assert sorted(entry["layers"]) == sorted(per_layer)


def test_traced_digest_equals_untraced(quick_pass):
    for entry in quick_pass["workloads"].values():
        assert len(entry["digests"]) == 2
        assert len(set(entry["digests"])) == 1


def test_self_times_cover_the_traced_run(quick_pass):
    for name, entry in quick_pass["workloads"].items():
        layers = entry["layers"]
        shares = sum(layers[f"{layer}.share"] for layer in spans.LAYERS)
        assert abs(shares - 1.0) <= 0.02, name
        assert math.isfinite(layers["trace.overhead"])


def test_wrong_pinned_digest_fails_every_repeat():
    src = e2e.require_src(e2e.ROOT)
    doc = e2e.run_pass(src, seed=1, repeats=1, scale=e2e.QUICK_SCALE,
                       pins={"fabric-steady": "0" * 64},
                       workloads=("fabric-steady",))
    assert doc["workloads"]["fabric-steady"]["error_rate"] == 1.0


def _stats(values):
    return {**e2e.quartiles(values), "values": values}


@pytest.mark.parametrize("before, after, better, expected", [
    ([10.0, 10.1, 10.2], [12.5, 12.6, 12.7], "lower", "regressed"),
    ([10.0, 10.1, 10.2], [7.5, 7.6, 7.7], "lower", "improved"),
    ([10.0, 10.1, 10.2], [10.3, 10.4, 10.5], "lower", "within bound"),
    ([10.0, 10.1, 10.2], [12.5, 12.6, 12.7], "higher", "improved"),
    # Quartile spread far wider than the bound, sides overlapping.
    ([6.0, 10.0, 14.0, 18.0], [7.0, 11.0, 15.0, 19.0], "lower",
     "unresolved"),
    # Just as wide, but every run of one side beats every other run.
    ([6.0, 7.0, 8.0, 9.0], [12.0, 14.0, 16.0, 18.0], "lower",
     "regressed"),
])
def test_compare_verdicts(before, after, better, expected):
    assert e2e.verdict(_stats(before), _stats(after), better,
                       bound=0.1) == expected


def test_compare_floor_and_documents(bench):
    assert e2e.verdict(_stats([0.20, 0.21, 0.22]), _stats([0.28, 0.29,
                                                             0.30]),
                       "lower", bound=0.25, floor=0.1) == "within bound"
    metrics = {m["name"]: _stats([1.0, 1.01, 1.02])
               for m in bench["end_to_end"]}
    doc = {"workloads": {"fabric-rpc": {"metrics": metrics}}}
    rows = e2e.compare_docs(doc, doc, bench)
    assert {row[2] for row in rows} == {"within bound"}
    assert len(rows) == len(bench["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(e2e.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(e2e.HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/e2e.py", "measure", "--workload",
         "fabric-rpc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{")
