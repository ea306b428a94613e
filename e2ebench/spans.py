"""Per-layer self time from spans recorded around layer boundaries.

The traced repeat installs every span from this file, without editing
the program: class attributes are swapped for spanned wrappers for the
duration of :func:`installed` and restored afterwards.  Spans are
recorded three ways:

- every callback handed to ``Simulator.schedule_at`` runs inside a span
  named after the layer of the object that owns it, so private
  callbacks such as ``Switch._route`` and ``Channel._on_tx_done`` are
  timed;
- public cross-layer calls (``Channel.enqueue``, routing ``__call__``,
  ``ChannelGroup`` reads and retunes, ``Host.submit_message``,
  ``NetworkStats.record_*``,
  ``DecisionLog.record``, the service's stream, transport, plant and
  checkpoint calls, ...) run as child spans;
- the workload iterator handed to ``Fabric.attach_workload`` is wrapped,
  so drawing the next injection is billed to ``workloads``.

A layer's self time is its spans' duration minus the time their child
spans cover.  It is billed as spans open and close (the clock always
runs for the innermost open span's layer), so a run of a million events
keeps a few dozen numbers in memory rather than the spans themselves.
Channel work done synchronously inside ``Switch._route`` is therefore
billed to ``sim.channel``, not to the switch.
"""

from __future__ import annotations

import contextlib
import importlib
from time import perf_counter_ns
from typing import Callable, Dict

#: Reported layers, named after the program's modules.
LAYERS = (
    "sim.engine", "sim.switch", "routing", "sim.channel", "sim.host",
    "workloads", "sim.stats", "core", "core.failsafe", "faults", "topo",
    "obs.decisions", "service.loop", "service.streams",
    "service.transport", "service.plant", "service.checkpoint",
)

#: Modules whose callbacks belong to a layer not named after them: the
#: fabric's own callbacks inject the next workload message, and the
#: data-plane fault injector is part of the fault layer.  Modules that
#: match no layer fall back to their package's entry here.
_MODULE_ALIASES = {
    "sim.fabric": "workloads",
    "sim.network": "workloads",
    "sim.faults": "faults",
    "predict": "core",
    "sim": "sim.engine",
    "service": "service.loop",
}


def layer_of_module(module: str) -> str:
    """The layer a ``repro`` module's callbacks are billed to."""
    name = module.removeprefix("repro.")
    table = {**{layer: layer for layer in LAYERS}, **_MODULE_ALIASES}
    matches = [prefix for prefix in table
               if name == prefix or name.startswith(prefix + ".")]
    return table[max(matches, key=len)] if matches else "sim.engine"


class Recorder:
    """Per-layer self time, per-span call counts and extra counters.

    The span bookkeeping is inlined into closures over shared local
    state: it runs a dozen times per simulated packet-hop, and the
    tracing overhead is reported as ``trace.overhead``.
    """

    def __init__(self) -> None:
        #: Self nanoseconds per layer (``None``: outside any root span).
        self.self_ns: Dict = dict.fromkeys((None,) + LAYERS, 0)
        #: Calls per wrapped method, keyed ``Class.method``.
        self.calls: Dict[str, int] = {}
        #: Counters only a span can see (checkpoint bytes).
        self.counts: Dict[str, int] = {}
        self._trampolines: Dict = {}
        self_ns, calls = self.self_ns, self.calls
        stack = []
        top = None      # innermost open span's layer
        since = 0       # when the clock last switched layers
        clock = perf_counter_ns

        def enter(layer: str) -> None:
            nonlocal top, since
            now = clock()
            self_ns[top] += now - since
            stack.append(top)
            top, since = layer, now

        def exit_() -> None:
            nonlocal top, since
            now = clock()
            self_ns[top] += now - since
            top, since = stack.pop(), now

        def wrap(layer: str, name: str, fn: Callable) -> Callable:
            calls.setdefault(name, 0)

            def spanned(*args, **kwargs):
                nonlocal top, since
                calls[name] += 1
                now = clock()
                self_ns[top] += now - since
                stack.append(top)
                top, since = layer, now
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = clock()
                    self_ns[top] += now - since
                    top, since = stack.pop(), now
            return spanned

        def trampoline(layer: str) -> Callable:
            # wrap() minus the call count and one call level: this runs
            # for every engine event.
            def run(callback, *args):
                nonlocal top, since
                now = clock()
                self_ns[top] += now - since
                stack.append(top)
                top, since = layer, now
                try:
                    callback(*args)
                finally:
                    now = clock()
                    self_ns[top] += now - since
                    top, since = stack.pop(), now
            return run

        #: Open a span billed to a layer (the run's root span).
        self.enter = enter
        #: Close the innermost span.
        self.exit = exit_
        #: ``wrap(layer, name, fn)``: ``fn`` inside a span, calls counted.
        self.wrap = wrap
        self._make_trampoline = trampoline

    def trampoline(self, fn: Callable) -> Callable:
        """The shared callable that runs ``fn(*args)``, called as
        ``trampoline(fn, *args)``, inside a span of the layer of
        ``fn``'s owner.  One is built per owner class (or per module,
        for plain functions), so scheduling an event allocates nothing
        beyond what the engine already does."""
        owner = getattr(fn, "__self__", None)
        key = (type(owner) if owner is not None
               else getattr(fn, "__module__", None) or "")
        run = self._trampolines.get(key)
        if run is None:
            run = self._trampolines[key] = self._make_trampoline(
                layer_of_module(key.__module__ if owner is not None
                                else key))
        return run

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer, in seconds."""
        return {layer: self.self_ns[layer] / 1e9 for layer in LAYERS}


#: ``(module, class, method names, layer)`` of the child spans.
_CHILD_SPANS = (
    ("repro.sim.channel", "Channel",
     ("enqueue", "release_credits", "set_rate"), "sim.channel"),
    ("repro.sim.host", "Host", ("submit_message",), "sim.host"),
    ("repro.sim.stats", "NetworkStats",
     ("record_injection", "record_packet_delivery",
      "record_message_delivery", "record_drop"), "sim.stats"),
    ("repro.routing.adaptive", "MinimalAdaptiveRouting", ("__call__",),
     "routing"),
    ("repro.routing.restricted", "RestrictedAdaptiveRouting",
     ("__call__",), "routing"),
    ("repro.obs.decisions", "DecisionLog", ("record",), "obs.decisions"),
    # The epoch loop proper, so a subclass's override (the topology
    # controller's pass) and the rate decisions it defers to are split.
    ("repro.core.controller", "EpochController", ("_on_epoch",), "core"),
    # The real group reads and retunes, whoever calls them: the guard
    # and chaos proxies below wrap these calls and keep only their own
    # work.
    ("repro.core.grouping", "ChannelGroup",
     ("utilization_since_last", "max_queue_fraction",
      "credit_stalls_since_last", "set_rate"), "core"),
    ("repro.core.failsafe", "GuardedGroup", ("set_rate",),
     "core.failsafe"),
    ("repro.faults.control_faults", "ChaosGroup",
     ("utilization_since_last", "max_queue_fraction",
      "credit_stalls_since_last", "set_rate"), "faults"),
    ("repro.sim.faults", "LinkFaultInjector", ("on_drop",), "faults"),
    ("repro.service.streams", "TelemetryStream", ("offer",),
     "service.streams"),
    ("repro.service.transport", "ActuationTransport", ("send",),
     "service.transport"),
    ("repro.service.plant", "FabricPlant", ("step", "telemetry", "apply"),
     "service.plant"),
)


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Swap in every span for the duration of the block."""
    from repro.service.checkpoint import MemoryCheckpointStore
    from repro.sim.engine import Simulator
    from repro.sim.fabric import Fabric

    saved = []

    def patch(cls, attr, replacement):
        saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    for module, cls_name, methods, layer in _CHILD_SPANS:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            patch(cls, method, recorder.wrap(
                layer, f"{cls_name}.{method}", cls.__dict__[method]))

    schedule_at = Simulator.schedule_at

    def spanned_schedule_at(sim, time_ns, fn, *args, daemon=False):
        return schedule_at(sim, time_ns, recorder.trampoline(fn), fn, *args,
                           daemon=daemon)
    patch(Simulator, "schedule_at", spanned_schedule_at)

    attach_workload = Fabric.attach_workload

    def spanned_attach_workload(fabric, events):
        draw = recorder.wrap("workloads", "workload.next",
                             iter(events).__next__)
        # An iterator over draw() that ends when draw raises StopIteration.
        return attach_workload(fabric, iter(draw, None))
    patch(Fabric, "attach_workload", spanned_attach_workload)

    save = recorder.wrap("service.checkpoint", "MemoryCheckpointStore.save",
                         MemoryCheckpointStore.save)

    def counted_save(store, state):
        save(store, state)
        # The encoded bytes the store now holds: read back rather than
        # re-encoded, so counting costs nothing inside the span.
        recorder.counts["service.checkpoint.bytes"] = (
            recorder.counts.get("service.checkpoint.bytes", 0)
            + len(store._raw))
    patch(MemoryCheckpointStore, "save", counted_save)

    try:
        yield recorder
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)
