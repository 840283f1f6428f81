"""Plain-text tables and bar charts for the benchmark harness output."""

from __future__ import annotations

from typing import Dict, Sequence


def format_table(rows: Sequence[Dict], columns: Sequence[str] = None,
                 title: str = "", float_format: str = "%.2f") -> str:
    """Render dict rows as an aligned ASCII table."""
    rows = list(rows)
    if not rows:
        return title + "\n(empty)" if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value) -> str:
        if isinstance(value, float):
            return float_format % value
        return str(value)

    cells = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(row[i]) for row in cells))
              for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def ascii_bars(labels: Sequence[str], values: Sequence[float],
               width: int = 50, title: str = "",
               unit: str = "") -> str:
    """Render a horizontal bar chart in plain text (for bench artifacts)."""
    labels = list(labels)
    values = list(values)
    if len(labels) != len(values) or not labels:
        raise ValueError("labels and values must be non-empty and equal length")
    if any(v < 0 for v in values):
        raise ValueError("bar values must be >= 0")
    peak = max(values) or 1.0
    label_width = max(len(label) for label in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(1 if value > 0 else 0, round(value / peak * width))
        lines.append("%s  %s %.2f%s"
                     % (label.ljust(label_width), bar.ljust(width), value,
                        unit))
    return "\n".join(lines)
