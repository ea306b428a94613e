"""Plain-text table rendering and paper claims for experiment outputs."""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, NamedTuple, Sequence


class Claim(NamedTuple):
    """One of the paper's claims as a predicate over an experiment's
    result.  An experiment module lists its claims in ``CLAIMS``; the
    CLI checks every one against the result it has just computed."""

    text: str
    holds: Callable[[Any], bool]


def pct(value: float, digits: int = 1) -> str:
    """Render a fraction as a percentage string."""
    return f"{100.0 * value:.{digits}f}%"


def us(value_ns: float, digits: int = 1) -> str:
    """Render nanoseconds as microseconds."""
    return f"{value_ns / 1000.0:.{digits}f}us"


def dollars(value: float) -> str:
    """Render a dollar amount with thousands separators."""
    return f"${value:,.0f}"


def watts(value: float) -> str:
    """Render a wattage with thousands separators."""
    return f"{value:,.0f} W"


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render rows as an aligned ASCII table."""
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has "
                f"{len(headers)} columns: {row}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)
