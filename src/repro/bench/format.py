"""Plain-text rendering of figure-shaped result tables."""

from __future__ import annotations

from typing import Mapping


def format_series(title: str, series: Mapping[str, Mapping[str, float]],
                  unit: str = "s", precision: int = 4) -> str:
    """Render ``{config: {dataset: value}}`` as a figure-style table.

    This is the data behind one grouped-bar figure: one row per config
    (e.g. DGL vs PyG), one column per dataset.
    """
    columns: list = []
    for row in series.values():
        for key in row:
            if key not in columns:
                columns.append(key)
    label_w = max(10, max((len(k) for k in series), default=10) + 1)
    # Columns must fit the widest *name* too, not just the numbers —
    # "ogbn-products" is 13 chars and would overflow a numeric-only width.
    name_w = max((len(c) for c in columns), default=0)
    col_w = max(12, precision + 8, name_w + 2)
    lines = [title, "=" * len(title)]
    header = f"{'':<{label_w}}" + "".join(f"{c:>{col_w}}" for c in columns)
    lines.append(header)
    for label, row in series.items():
        cells = []
        for column in columns:
            value = row.get(column)
            if value is None:
                cells.append(f"{'-':>{col_w}}")
            elif isinstance(value, str):
                cells.append(f"{value:>{col_w}}")
            else:
                cells.append(f"{value:>{col_w}.{precision}f}")
        lines.append(f"{label:<{label_w}}" + "".join(cells))
    lines.append(f"(values in {unit})")
    return "\n".join(lines)
