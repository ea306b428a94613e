"""Keyed random draws: one reseeded stream instead of a new one per key.

Every stochastic choice of the fault layers, the failsafe's retry
jitter and the service's traces is a *keyed* draw: a fresh
``random.Random(key)`` seeded with a string such as
``"ctl:{seed}:{kind}:{group}:{epoch}"``, so the outcome depends only
on the key — not on ``PYTHONHASHSEED`` (CPython seeds a string through
SHA-512, not ``hash()``), nor on how many other draws came before, nor
on which arm of a campaign is asking.

Reseeding one shared instance with the same key puts it in exactly
the state a fresh ``random.Random(key)`` starts in (``Random.__init__``
is ``self.seed(key)``), without building a new generator per draw.
Every call reseeds it completely, so nothing one caller draws can
reach the next.  :func:`keyed_stream` hands back that shared stream
for callers that take several draws from one key; it is only valid
until the next keyed call, so take what you need from it before
drawing again.  The shared state makes these helpers unsafe across
threads; the library runs simulations and services one per process.
"""

from __future__ import annotations

import random

_STREAM = random.Random()


def keyed_stream(key: str) -> random.Random:
    """The shared stream, reseeded with ``key``: it yields what
    ``random.Random(key)`` would, until the next keyed call."""
    _STREAM.seed(key)
    return _STREAM


def keyed_draw(key: str) -> float:
    """``random.Random(key).random()``, without a new generator."""
    _STREAM.seed(key)
    return _STREAM.random()
