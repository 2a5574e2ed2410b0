"""Experiment result containers and text/CSV rendering.

Every experiment returns an :class:`ExperimentResult`: a labelled table of
measured values, optionally carrying the corresponding numbers published in
the paper so the harness can print a side-by-side "paper vs measured"
comparison (EXPERIMENTS.md is generated from exactly these tables).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = ["ExperimentResult", "format_table"]


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]], columns: Sequence[str]) -> str:
    """Render rows as a fixed-width text table."""
    headers = list(columns)
    rendered = [[_format_value(row.get(col, "")) for col in headers] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


@dataclass(slots=True)
class ExperimentResult:
    """Measured output of one experiment (one paper table or figure).

    Attributes
    ----------
    experiment_id:
        Identifier such as ``"table5"`` or ``"fig6"``.
    title:
        Human-readable description matching the paper caption.
    columns:
        Ordered column names; every row dict uses these keys.
    rows:
        Measured rows.
    paper_reference:
        Optional rows holding the values published in the paper (same column
        convention) for side-by-side comparison.
    notes:
        Free-form commentary, e.g. the qualitative shape the reproduction is
        expected to (and does) exhibit.
    """

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    paper_reference: list[dict[str, Any]] | None = None
    notes: str = ""

    def add_row(self, **values: Any) -> None:
        """Append one measured row."""
        self.rows.append(dict(values))

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def row_by(self, **match: Any) -> dict[str, Any]:
        """First row whose values match all the given key/value pairs."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError(f"no row matching {match!r}")

    # ------------------------------------------------------------------ #
    def to_text(self) -> str:
        """Render the result (and the paper reference, when present) as text."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        if "section" in self.columns:
            # Sectioned rows (a ledger with several row shapes): one table each.
            for name in dict.fromkeys(row["section"] for row in self.rows):
                rows = [row for row in self.rows if row["section"] == name]
                columns = list(dict.fromkeys(key for row in rows for key in row))[1:]
                parts += [f"-- {name} --", format_table(rows, columns)]
        else:
            parts.append(format_table(self.rows, self.columns))
        if self.paper_reference:
            parts.append("-- paper reference (published values) --")
            reference_columns = list(self.paper_reference[0].keys())
            parts.append(format_table(self.paper_reference, reference_columns))
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)

    def to_csv(self, path: str | Path) -> None:
        """Write the measured rows to a CSV file."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({col: row.get(col, "") for col in self.columns})

    def to_markdown(self) -> str:
        """Render the measured rows as a GitHub-flavoured markdown table."""
        header = "| " + " | ".join(self.columns) + " |"
        separator = "| " + " | ".join("---" for _ in self.columns) + " |"
        body = [
            "| " + " | ".join(_format_value(row.get(col, "")) for col in self.columns) + " |"
            for row in self.rows
        ]
        return "\n".join([header, separator, *body])
