"""Plain-text table rendering for experiment output.

Benchmarks print tables in the same row/column structure as the paper's
tables and figures so paper-vs-measured comparison is mechanical.
"""

from typing import List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Render an aligned monospace table.

    Cells are stringified with ``str``; floats should be pre-formatted by
    the caller so each experiment controls its own precision.
    """
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(fmt_row(row))
    return "\n".join(lines)

