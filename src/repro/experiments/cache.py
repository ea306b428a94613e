"""Persistent run cache: content-addressed storage for sweep results.

Every :class:`~repro.experiments.runner.SimulationSpec` canonicalizes to
a stable JSON document, which (together with a schema version stamp)
hashes to a content key.  A :class:`SweepCache` stores one JSON file per
key under a cache directory, so a figure re-run after an unrelated code
change — or in a different process, or a different session — finds its
results already materialized instead of re-simulating.

Three invariants the test layer (``tests/test_sweep_cache.py``,
``tests/test_sweep_determinism.py``) enforces:

- **Stability**: the key of a spec is identical across field orderings,
  processes and ``PYTHONHASHSEED`` values (the hash is over canonical
  JSON bytes, never over Python's randomized ``hash()``).
- **Distinctness**: specs differing in any simulated field get distinct
  keys (the key covers every spec field).
- **Invalidation**: bumping :data:`CACHE_SCHEMA_VERSION` changes every
  key, so entries written by an incompatible summary layout are never
  returned.

A small :class:`LRUCache` provides the bounded in-process memo layer
that fronts the disk cache (the fix for the old unbounded
``functools.lru_cache`` memo in ``runner.cached_run``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.experiments.runner import SimulationSpec, SimulationSummary

#: Version stamp folded into every cache key.  Bump whenever the
#: meaning of a spec field, the summary layout, or the simulation's
#: numerical behaviour changes: old entries become unreachable rather
#: than silently wrong.
#:
#: v2: summaries carry the controller decision audit
#: (``decision_counts``, ``rate_transitions``) and ``worker_pid``.
CACHE_SCHEMA_VERSION = 2

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The on-disk cache location: ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro/sweeps``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sweeps"


# ---------------------------------------------------------------------------
# Canonical encoding and content keys
# ---------------------------------------------------------------------------

#: Spec fields elided from encodings when at their default value.
#: Fields added *after* cache entries already existed in the wild must
#: appear here: eliding the default keeps every pre-existing spec's
#: canonical JSON — and hence its content key and any golden that pins
#: it — byte-identical, while any non-default value still lands in the
#: encoding and gets its own key.
_ELIDED_SPEC_DEFAULTS = {
    "forecaster": None,
    "headroom": 0.0,
    "faults": None,
    "fault_seed": 0,
    "control_faults": None,
    "failsafe": False,
    "routing": None,
    "sensor": None,
    "fabric": "fbfly",
    "measures": None,
}


def spec_to_dict(spec: SimulationSpec) -> Dict[str, Any]:
    """A spec as a plain JSON-safe dict (field name -> primitive).

    Late-added fields at their defaults are elided (see
    :data:`_ELIDED_SPEC_DEFAULTS`); :func:`spec_from_dict` restores
    them from the dataclass defaults.
    """
    data = dataclasses.asdict(spec)
    for name, default in _ELIDED_SPEC_DEFAULTS.items():
        if name in data and data[name] == default:
            del data[name]
    if "measures" in data:
        data["measures"] = list(data["measures"])
    return data


def spec_from_dict(data: Dict[str, Any]) -> SimulationSpec:
    """Rebuild a spec from :func:`spec_to_dict` output (``measures``
    back to a tuple: the spec must stay hashable)."""
    if data.get("measures") is not None:
        data = {**data, "measures": tuple(data["measures"])}
    return SimulationSpec(**data)


def canonical_spec_json(spec: SimulationSpec) -> str:
    """The spec's canonical JSON: sorted keys, minimal separators.

    Canonicalization makes the encoding independent of dict insertion
    order and of the process that produced it, which is what makes the
    content hash stable.
    """
    return json.dumps(spec_to_dict(spec), sort_keys=True,
                      separators=(",", ":"))


def spec_key(spec: SimulationSpec,
             schema_version: int = CACHE_SCHEMA_VERSION) -> str:
    """Content hash of a spec + schema version: the cache key.

    SHA-256 over canonical JSON bytes — deterministic across processes
    (unlike ``hash()``, which ``PYTHONHASHSEED`` randomizes).
    """
    document = json.dumps(
        {"schema": schema_version, "spec": spec_to_dict(spec)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Summary serialization
# ---------------------------------------------------------------------------

def _encode_time_at_rate(
        time_at_rate: Dict[Optional[float], float]
) -> List[List[Any]]:
    """``time_at_rate`` as a sorted list of ``[rate_or_null, fraction]``.

    JSON objects cannot key on floats/null, and sorting (off-state
    first, then ascending rate) makes the serialized bytes independent
    of in-process insertion order.
    """
    return [[rate, frac] for rate, frac in
            sorted(time_at_rate.items(),
                   key=lambda item: (item[0] is not None, item[0] or 0.0))]


def _decode_time_at_rate(
        pairs: List[List[Any]]) -> Dict[Optional[float], float]:
    """Inverse of :func:`_encode_time_at_rate`."""
    return {(None if rate is None else float(rate)): frac
            for rate, frac in pairs}


def summary_to_dict(summary: SimulationSummary) -> Dict[str, Any]:
    """A summary as a JSON-safe dict, spec included.

    Float values round-trip exactly through JSON (``repr`` encoding), so
    a summary loaded from disk is bit-identical to the one stored.
    """
    out = {
        "spec": spec_to_dict(summary.spec),
        "average_utilization": summary.average_utilization,
        "measured_power_fraction": summary.measured_power_fraction,
        "ideal_power_fraction": summary.ideal_power_fraction,
        "mean_message_latency_ns": summary.mean_message_latency_ns,
        "p99_message_latency_ns": summary.p99_message_latency_ns,
        "mean_packet_latency_ns": summary.mean_packet_latency_ns,
        "delivered_fraction": summary.delivered_fraction,
        "messages_delivered": summary.messages_delivered,
        "escapes": summary.escapes,
        "reconfigurations": summary.reconfigurations,
        "time_at_rate": _encode_time_at_rate(summary.time_at_rate),
        "events_fired": summary.events_fired,
        "wall_seconds": summary.wall_seconds,
        "decision_counts": dict(summary.decision_counts),
        "rate_transitions": [list(row) for row in summary.rate_transitions],
        "worker_pid": summary.worker_pid,
    }
    # Same late-field elision as spec_to_dict: only predictive runs
    # carry a payload, so reactive summaries (and every summary cached
    # before the field existed) keep their exact serialized bytes.
    if summary.predict is not None:
        out["predict"] = summary.predict
    if summary.faults is not None:
        out["faults"] = summary.faults
    if summary.control_plane is not None:
        out["control_plane"] = summary.control_plane
    if summary.topo is not None:
        out["topo"] = summary.topo
    if summary.measures is not None:
        out["measures"] = summary.measures
    return out


def summary_from_dict(data: Dict[str, Any]) -> SimulationSummary:
    """Rebuild a summary from :func:`summary_to_dict` output."""
    fields = dict(data)
    fields["spec"] = spec_from_dict(fields["spec"])
    fields["time_at_rate"] = _decode_time_at_rate(fields["time_at_rate"])
    return SimulationSummary(**fields)


def summary_digest(summary: SimulationSummary) -> Dict[str, Any]:
    """The summary's deterministic content: everything but host facts.

    ``wall_seconds`` and ``worker_pid`` measure the host machine, not
    the simulation, so determinism and golden comparisons exclude
    them.  Everything else — latencies, power fractions, counters,
    time-at-rate, the decision audit — must replay bit-identically for
    a fixed spec.
    """
    digest = summary_to_dict(summary)
    del digest["wall_seconds"]
    del digest["worker_pid"]
    return digest


# ---------------------------------------------------------------------------
# Bounded in-process memo
# ---------------------------------------------------------------------------

class LRUCache:
    """A small bounded mapping with least-recently-used eviction.

    The in-process memo layer in front of the disk cache: repeated
    lookups of the same spec in one session return the *same object*
    without touching disk, and the bound keeps a long sweep session from
    holding every summary it ever produced.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()

    def get(self, key: Any) -> Optional[Any]:
        """The cached value (refreshing its recency), or ``None``."""
        if key not in self._entries:
            return None
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: Any, value: Any) -> None:
        """Insert/overwrite a value, evicting the LRU entry past the bound."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def __contains__(self, key: Any) -> bool:
        """Membership without refreshing recency."""
        return key in self._entries

    def __len__(self) -> int:
        """Number of live entries (always <= ``maxsize``)."""
        return len(self._entries)


# ---------------------------------------------------------------------------
# Persistent disk cache
# ---------------------------------------------------------------------------

class SweepCache:
    """One-JSON-file-per-run persistent cache under a directory.

    Entries are written atomically (temp file + ``os.replace``) so a
    crashed or concurrent writer never leaves a torn entry, and reads
    validate both the stored key and schema version before trusting a
    payload — anything unreadable or mismatched reads as a miss.
    """

    def __init__(self, directory: Optional[Path] = None,
                 schema_version: int = CACHE_SCHEMA_VERSION):
        self.directory = Path(directory) if directory else default_cache_dir()
        if self.directory.exists() and not self.directory.is_dir():
            # Fail at construction, not after minutes of simulation.
            raise ValueError(
                f"cache directory {self.directory} exists and is not a "
                "directory")
        self.schema_version = schema_version

    def key_for(self, spec: SimulationSpec) -> str:
        """This cache's content key for a spec."""
        return spec_key(spec, schema_version=self.schema_version)

    def path_for(self, spec: SimulationSpec) -> Path:
        """The entry file a spec maps to."""
        return self.directory / f"{self.key_for(spec)}.json"

    def get(self, spec: SimulationSpec) -> Optional[SimulationSummary]:
        """The stored summary for a spec, or ``None`` on any miss.

        A *corrupt* entry — truncated/invalid JSON, a non-dict payload,
        a stored key that does not match its filename, or a summary
        that no longer decodes — is quarantined into
        ``<cache-dir>/corrupt/`` with a warning and reads as a miss,
        so one torn write can never crash (or permanently wedge) a
        sweep.  A missing file or a different schema version is a
        plain miss: those are normal, not corruption.
        """
        path = self.path_for(spec)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            return self._quarantine(path, "invalid JSON")
        if not isinstance(payload, dict):
            return self._quarantine(path, "payload is not an object")
        if payload.get("schema_version") != self.schema_version:
            return None
        if payload.get("key") != self.key_for(spec):
            return self._quarantine(path, "stored key mismatch")
        try:
            return summary_from_dict(payload["summary"])
        except (KeyError, TypeError, ValueError):
            return self._quarantine(path, "summary does not decode")

    def _quarantine(self, path: Path, why: str) -> None:
        """Move a corrupt entry aside (best-effort) and warn."""
        target = self.directory / "corrupt" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
            moved = f"quarantined to {target}"
        except OSError:
            moved = "could not be quarantined"
        warnings.warn(
            f"corrupt cache entry {path.name} ({why}); {moved}",
            RuntimeWarning, stacklevel=3)
        return None

    def put(self, spec: SimulationSpec,
            summary: SimulationSummary) -> Path:
        """Store a summary for a spec; returns the entry path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(spec)
        payload = {
            "schema_version": self.schema_version,
            "key": self.key_for(spec),
            "spec": spec_to_dict(spec),
            "summary": summary_to_dict(summary),
        }
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(text)
        os.replace(tmp, path)
        return path

    def __len__(self) -> int:
        """Number of entry files currently on disk."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry file; returns how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
