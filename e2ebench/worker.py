"""One benchmark repeat in a fresh single-threaded process.

Usage::

    worker.py WORKLOAD SEED SCALE TRACE SPAWNED_AT

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
started this process (``CLOCK_MONOTONIC`` is system-wide on Linux), so
set-up covers interpreter start, imports and building the network or
service, up to the first event.  ``repro`` must come from the tree
named by ``E2E_SRC``; a copy found anywhere else is refused rather than
measured.  The last line of standard output is one JSON object.

Every repeat runs under the host-speed probe (:mod:`probe`) and reports
its set-up and run time both as measured (``setup_wall_s``,
``wall_s``, the probe's own time taken out) and at the reference host
speed (``setup_s``, ``run_s``).  Probe samples land in the traced
repeat's spans in proportion to each layer's time, so the layers'
self times are scaled the same way as the run.
"""

import json
import os
import resource
import sys
import traceback
from pathlib import Path

import probe


def main(argv) -> int:
    name, seed, scale, trace, spawned_at = argv[1:6]
    spawned_at = float(spawned_at)
    result = {"ok": False, "problems": []}
    speed_probe = probe.SpeedProbe()
    speed_probe.start()
    try:
        import repro
        src = Path(os.environ["E2E_SRC"]).resolve()
        if src not in Path(repro.__file__).resolve().parents:
            raise ImportError(f"repro imported from {repro.__file__}, "
                              f"not from {src}")
        import workloads
        recorder = None
        if trace == "1":
            import spans
            recorder = spans.Recorder()
            with spans.installed(recorder):
                out = workloads.run(name, int(seed), float(scale), recorder)
        else:
            out = workloads.run(name, int(seed), float(scale))
        started, ended = out.pop("started"), out.pop("ended")
        in_setup, setup_speed = speed_probe.window(spawned_at, started)
        in_run, run_speed = speed_probe.window(started, ended)
        out["setup_wall_s"] = started - spawned_at - in_setup
        out["wall_s"] = ended - started - in_run
        out["speed"] = run_speed
        out["run_s"] = out["wall_s"] * run_speed
        out["setup_s"] = out["setup_wall_s"] * (setup_speed or run_speed)
        if recorder is not None:
            to_run_s = out["run_s"] / (ended - started)
            out["self_s"] = {layer: seconds * to_run_s for layer, seconds
                             in recorder.self_seconds().items()}
            out["calls"] = recorder.calls
            out["counts"].update(recorder.counts)
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result = {**out, "ok": not out["problems"]}
    except Exception:
        result["problems"].append(traceback.format_exc())
    finally:
        speed_probe.stop()
    print(json.dumps(result, sort_keys=True))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
