"""Left-to-right float sums: the same bits on every supported Python.

Python 3.12 changed the built-in ``sum()`` of floats to compensated
(Neumaier) summation, so a float total can differ in its last bit
between interpreters.  The control loops feed such a bit back into
their decisions, so a run's results would depend on the interpreter.
:func:`left_sum` is the plain left-to-right sum every result was
pinned with: on Python 3.11 and older it *is* the built-in ``sum``
(an alias, so the hot paths pay nothing); on 3.12 and newer it is an
explicit loop.

Use it for every float ``sum()`` on the simulated and service paths.
Integer sums are exact on every version and keep the built-in.
``math.fsum`` would also be version-independent, but it rounds
differently from the pinned results.
"""

from __future__ import annotations

import sys

__all__ = ["left_sum"]

if sys.version_info < (3, 12):
    left_sum = sum
else:
    def left_sum(iterable, start=0):
        """``sum(iterable, start)``, added strictly left to right."""
        total = start
        for value in iterable:
            total += value
        return total
