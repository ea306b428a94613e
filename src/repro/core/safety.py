"""The safety core both control planes share.

The simulator's switch-local :class:`repro.core.failsafe.FailsafeGuard`
and the live service's OS-level loop and supervisor
(:mod:`repro.service`) place one safety layer around the paper's rate
rule (:meth:`repro.power.link_rates.RateLadder.slowest_covering`).
The rules that decide live here; the actions on each answer stay in
each driver, because the two act on different plants.  This module
imports neither :mod:`repro.sim` nor :mod:`repro.service`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, MutableMapping, Optional, Tuple

FRESH, HOLD, FLOOR = "fresh", "hold", "floor"
OFF, ON = "off", "on"


def bounded_put(journal: MutableMapping, key, value, cap: int) -> bool:
    """Insert ``key -> value`` under ``cap`` entries; returns whether
    the oldest entry was evicted.  Insertion order is the age order
    (updating a key re-inserts it as the youngest)."""
    if key in journal:
        del journal[key]
    elif len(journal) >= cap:
        del journal[next(iter(journal))]
        journal[key] = value
        return True
    journal[key] = value
    return False


def staleness(age: int, ttl: int, forced: bool = False) -> str:
    """The staleness ladder for telemetry ``age`` epochs old:
    :data:`FLOOR` past ``ttl`` or when ``forced``, :data:`FRESH` at 0,
    else :data:`HOLD` (silence is never read as idleness)."""
    if forced or age > ttl:
        return FLOOR
    if age == 0:
        return FRESH
    return HOLD


class PowerJournal:
    """DecisionLog tap: each group's last power intent, and the time of
    the last controller restart, across controller incarnations.

    ``off_reasons`` mark a group dark and ``on_reasons`` lit (with
    ``lit_on_change``, so does any other changed record);
    ``restart_reasons`` stamp :attr:`last_restart_ns`.  At most ``cap``
    groups are kept (:func:`bounded_put`, counted in :attr:`evictions`).
    """

    def __init__(self, off_reasons: Iterable[str],
                 on_reasons: Iterable[str],
                 restart_reasons: Iterable[str] = (),
                 lit_on_change: bool = False, cap: int = 4096):
        self._off = frozenset(off_reasons)
        self._restart = frozenset(restart_reasons)
        self._watched = self._off | self._restart | frozenset(on_reasons)
        self.lit_on_change = lit_on_change
        self.cap = cap
        #: group -> (:data:`OFF` | :data:`ON`, time_ns), oldest first.
        self.last_power: Dict[str, Tuple[str, float]] = {}
        self.last_restart_ns: Optional[float] = None
        self.evictions = 0

    def observe(self, reason: str, group: str, time_ns: float,
                changed: bool) -> None:
        """The tap callable: one set lookup for an unwatched record."""
        if reason in self._watched:
            if reason in self._restart:
                self.last_restart_ns = time_ns
            else:
                self.put(group, OFF if reason in self._off else ON,
                         time_ns)
        elif changed and self.lit_on_change:
            self.put(group, ON, time_ns)

    def put(self, group: str, state: str, time_ns: float) -> None:
        """Journal a power intent (also a driver's own safety wake)."""
        if bounded_put(self.last_power, group, (state, time_ns),
                       self.cap):
            self.evictions += 1

    def gated_before_restart(self, group: str) -> bool:
        """Whether ``group`` was last powered off before the last
        restart, so the restarted controller no longer owns it."""
        entry = self.last_power.get(group)
        return (entry is not None and entry[0] == OFF
                and self.last_restart_ns is not None
                and entry[1] < self.last_restart_ns)

    def dark_groups(self) -> List[str]:
        """Groups whose last power intent was a power-off, sorted."""
        return sorted(name for name, (state, _)
                      in self.last_power.items() if state == OFF)
