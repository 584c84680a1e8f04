"""Common experiment infrastructure: table formatting and result records.

The experiment drivers in this package regenerate the rows/series of the
paper's tables and figures.  Results are plain lists of dictionaries so that
benchmarks can print them, tests can assert on them, and users can post-
process them (e.g. into pandas) without any dependency on a plotting stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class ExperimentResult:
    """A named table of result rows, with free-form notes."""

    name: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, key: str) -> List[object]:
        return [row.get(key) for row in self.rows]

    # ------------------------------------------------------------------
    def to_table(self) -> str:
        """Render the rows as an aligned text table (the form the benchmark
        harness prints)."""
        if not self.rows:
            return f"{self.name}: (no rows)"
        columns: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        widths = {key: len(str(key)) for key in columns}
        rendered_rows = []
        for row in self.rows:
            rendered = {key: _render(row.get(key)) for key in columns}
            rendered_rows.append(rendered)
            for key in columns:
                widths[key] = max(widths[key], len(rendered[key]))
        lines = [self.name, self.description, ""]
        header = "  ".join(str(key).ljust(widths[key]) for key in columns)
        lines.append(header)
        lines.append("  ".join("-" * widths[key] for key in columns))
        for rendered in rendered_rows:
            lines.append("  ".join(rendered[key].ljust(widths[key]) for key in columns))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_table()


def _render(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3f}"
    if isinstance(value, int) and abs(value) >= 1000:
        return f"{value:,}"
    return str(value)
