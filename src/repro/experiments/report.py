"""Plain-text result tables for the experiment runners.

Every experiment returns an :class:`ExperimentResult` whose rows mirror
the series of the corresponding paper figure; ``to_text()`` renders the
aligned table the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence


def format_cell(value: object) -> str:
    """Human-friendly cell formatting (floats to 4 significant places)."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table."""
    formatted = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in formatted:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Output of one experiment runner (one paper figure/table)."""

    experiment_id: str
    description: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    notes: List[str] = field(default_factory=list)

    def to_text(self) -> str:
        """The full printable report."""
        parts = [
            render_table(
                self.headers,
                self.rows,
                title=f"{self.experiment_id}: {self.description}",
            )
        ]
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def column(self, name: str) -> List[object]:
        """Extract one column by header name."""
        index = list(self.headers).index(name)
        return [row[index] for row in self.rows]

    def filtered(self, **criteria: object) -> List[Sequence[object]]:
        """Rows matching all header=value criteria."""
        indices = {name: list(self.headers).index(name) for name in criteria}
        return [
            row
            for row in self.rows
            if all(row[indices[k]] == v for k, v in criteria.items())
        ]
