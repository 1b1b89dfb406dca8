"""Text rendering of the paper's tables and figures.

The benches render their regenerated rows with these helpers and save
them under ``benchmarks/out/``, to be compared with the paper side by
side.
"""

from __future__ import annotations

from collections.abc import Sequence


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width ASCII table."""
    columns = [list(map(str, col)) for col in zip(headers, *rows)]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def cdf_at(samples: Sequence[float], value: float) -> float:
    """Empirical CDF of ``samples`` evaluated at ``value``."""
    if not samples:
        return 0.0
    return sum(1 for s in samples if s <= value) / len(samples)

