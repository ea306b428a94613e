"""Crash-safe service checkpoints: atomic write, versioned restore.

The service checkpoints its full control state once per epoch so a
killed process resumes within one epoch of where it died.  The format
follows the run cache's discipline (:mod:`repro.experiments.cache`):

- **version-stamped**: every checkpoint embeds
  :data:`CHECKPOINT_SCHEMA_VERSION`; a mismatched or unreadable file
  restores as "no checkpoint" (cold start) rather than as garbage —
  the same fail-safe posture as the cache's quarantine;
- **atomic**: written to a temp file in the same directory and
  ``os.replace``d into place, so a kill mid-write leaves the previous
  checkpoint intact, never a torn one;
- **canonical JSON** (sorted keys): the stored bytes are a pure
  function of the state, so the round-trip property
  ``restore(checkpoint(s)) == s`` is testable with hypothesis and a
  restored run's decisions can be byte-compared against an
  uninterrupted one.

Two stores share the serialization path: :class:`FileCheckpointStore`
(the real thing) and :class:`MemoryCheckpointStore` (campaigns — same
bytes, no filesystem traffic for hundreds of checkpoints per arm).

**Fragment reuse.**  Each store saves through its own
:class:`CheckpointEncoder`, which keeps every control group's encoded
fragment (``state.controller.groups.<name>``) from the previous save
and re-encodes only the groups that changed.  A quiet epoch changes a
few groups of the fleet, so a save encodes O(changed groups) plus an
identity scan.  Reuse is exact, not approximate: a fragment is reused
only when the group's keys are equal and every value is the *very
object* encoded last time and of an immutable scalar type (``float``,
``int``, ``bool``, ``str``, ``None``).  Equality is not enough —
``0.0 == -0.0``, ``1 == 1.0 == True`` and ``NaN != NaN`` compare one
way and encode another — so an equal but distinct value always
re-encodes.  Every byte still comes from the one ``json`` encoder,
and :func:`encode_checkpoint` is an encoder with an empty memo, so
the stored bytes are always exactly ``encode_checkpoint(state)``.
"""

from __future__ import annotations

import json
import os
from operator import is_
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

#: Bump when the checkpoint payload shape changes; older files then
#: restore as cold starts instead of misparsing.
CHECKPOINT_SCHEMA_VERSION = 1

#: The one JSON encoder behind every checkpoint byte: ``json.dumps``
#: with sorted keys.
_dumps = json.JSONEncoder(sort_keys=True).encode

#: Stands in for the groups object when the rest of a payload is
#: encoded; its encoded form marks where the groups text goes.
_MARK = "\x00checkpoint groups\x00"
_MARK_TEXT = _dumps(_MARK)

#: Value types whose encoding is a pure function of the object, so the
#: same object always encodes to the same text.
_SCALARS = frozenset({float, int, bool, str, type(None)})
_STR = frozenset({str})

#: A memo entry: (keys, value objects, fragment); keys ``None`` marks
#: a fragment that is never reused.
_Entry = Tuple[Optional[tuple], tuple, str]


class CheckpointEncoder:
    """Canonical checkpoint bytes, reusing unchanged group fragments.

    ``encode(state)`` always equals ``json.dumps({"schema": ...,
    "state": state}, sort_keys=True)`` encoded as UTF-8.  The payload
    is encoded by ``json`` with ``state.controller.groups`` replaced
    by a marker string; the groups object is written in its place with
    ``json``'s rules (sorted keys, its separators), one
    ``"name": {...}`` fragment per group.  Each fragment is kept for
    the next call together with the keys and value objects it was
    encoded from.
    """

    def __init__(self):
        #: Group name -> its entry from the last save that encoded it.
        self._fragments: Dict[str, _Entry] = {}

    def encode(self, state: Dict[str, Any]) -> bytes:
        """The canonical versioned bytes of ``state``."""
        wrapper = {"schema": CHECKPOINT_SCHEMA_VERSION, "state": state}
        controller = (state.get("controller") if type(state) is dict
                      else None)
        groups = (controller.get("groups") if type(controller) is dict
                  else None)
        if type(groups) is dict and _STR.issuperset(map(type, groups)):
            shell = dict(wrapper, state=dict(
                state, controller=dict(controller, groups=_MARK)))
            text = _dumps(shell)
            # A value that happens to encode like the marker would make
            # the splice ambiguous: then encode the payload whole.
            if text.count(_MARK_TEXT) == 1:
                head, _, tail = text.partition(_MARK_TEXT)
                return (head + self._groups(groups) + tail).encode("utf-8")
        return _dumps(wrapper).encode("utf-8")

    def _groups(self, groups: Dict[str, Any]) -> str:
        memo = self._fragments
        names = sorted(groups)
        parts = []
        for name in names:
            group = groups[name]
            entry = memo.get(name)
            if (entry is None or type(group) is not dict
                    or tuple(group) != entry[0]
                    or not all(map(is_, group.values(), entry[1]))):
                # '{"name": {...}}' less its braces: the group's member
                # text exactly as it sits in the groups object.
                entry = memo[name] = _entry(group, _dumps({name: group})[1:-1])
            parts.append(entry[2])
        if len(memo) > len(names):
            # Forget the groups that left.
            self._fragments = {name: memo[name] for name in names}
        return "{" + ", ".join(parts) + "}"


def _entry(group: Any, fragment: str) -> _Entry:
    """A memo entry: reusable only for a string-keyed dict of scalars."""
    if type(group) is dict:
        keys = tuple(group)
        values = tuple(group.values())
        if (_STR.issuperset(map(type, keys))
                and _SCALARS.issuperset(map(type, values))):
            return keys, values, fragment
    return None, (), fragment


def encode_checkpoint(state: Dict[str, Any]) -> bytes:
    """Canonical versioned bytes for one checkpoint payload."""
    return CheckpointEncoder().encode(state)


def decode_checkpoint(raw: bytes) -> Optional[Dict[str, Any]]:
    """The payload inside ``raw``, or ``None`` if torn/foreign/stale."""
    try:
        wrapper = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if (not isinstance(wrapper, dict)
            or wrapper.get("schema") != CHECKPOINT_SCHEMA_VERSION
            or not isinstance(wrapper.get("state"), dict)):
        return None
    return wrapper["state"]


class MemoryCheckpointStore:
    """In-process store (campaign arms); same bytes as the file store,
    so checkpoint/restore exercises real serialization."""

    def __init__(self):
        self._raw: Optional[bytes] = None
        self._encoder = CheckpointEncoder()
        self.saves = 0

    def save(self, state: Dict[str, Any]) -> None:
        """Replace the stored checkpoint with ``state``'s wire bytes."""
        self._raw = self._encoder.encode(state)
        self.saves += 1

    def load(self) -> Optional[Dict[str, Any]]:
        """Return the last saved state, or ``None`` if never saved."""
        return decode_checkpoint(self._raw) if self._raw else None


class FileCheckpointStore:
    """On-disk store with atomic replace.

    Args:
        path: Checkpoint file location (parent dirs are created).
    """

    def __init__(self, path):
        self.path = Path(path)
        self._encoder = CheckpointEncoder()
        self.saves = 0

    def save(self, state: Dict[str, Any]) -> None:
        """Write ``state`` via a tmp file + ``os.replace`` so a crash
        mid-write never leaves a torn checkpoint at ``path``."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_bytes(self._encoder.encode(state))
        os.replace(tmp, self.path)
        self.saves += 1

    def load(self) -> Optional[Dict[str, Any]]:
        """Read and decode ``path``; ``None`` if missing or torn."""
        try:
            raw = self.path.read_bytes()
        except OSError:
            return None
        return decode_checkpoint(raw)
