"""Plain-text rendering of paper-style tables.

The benchmark harness prints every reproduced table/figure as text in
aligned columns.  Keeping this purely textual makes ``pytest benchmarks/``
output self-contained in CI logs.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


class Table:
    """Aligned monospace table builder.

    >>> t = Table(["policy", "p99"], title="T1")
    >>> t.add_row(["single", 123.4])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, columns: Sequence[str], title: str = "") -> None:
        self.columns = list(columns)
        self.title = title
        self.rows: List[List[str]] = []

    def add_row(self, values: Iterable) -> None:
        """Append one row; floats are rendered with adaptive precision."""
        row = []
        for v in values:
            if isinstance(v, float):
                if v != v:  # nan
                    row.append("nan")
                elif abs(v) >= 1000:
                    row.append(f"{v:,.0f}")
                elif abs(v) >= 10:
                    row.append(f"{v:.1f}")
                else:
                    row.append(f"{v:.3f}")
            else:
                row.append(str(v))
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        """Render the table as an aligned string."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(f"== {self.title} ==")
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
