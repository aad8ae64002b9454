"""Plain-text table formatting for experiment results."""

from __future__ import annotations

from typing import Mapping


def format_table(results: Mapping[str, Mapping[str, float]], title: str = "",
                 float_fmt: str = "{:.3f}", name_header: str = "model") -> str:
    """Render {row → {column → value}} as an aligned text table."""
    rows = list(results)
    columns: list[str] = []
    for row in rows:
        for column in results[row]:
            if column not in columns:
                columns.append(column)
    widths = {c: max(len(str(c)), 8) for c in columns}
    name_width = max([len(r) for r in rows] + [len(name_header)])

    def fmt(value) -> str:
        if isinstance(value, float):
            return float_fmt.format(value)
        return str(value)

    lines = []
    if title:
        lines.append(title)
    header = name_header.ljust(name_width) + "  " + "  ".join(
        str(c).rjust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        cells = "  ".join(
            fmt(results[row].get(c, "")).rjust(widths[c]) for c in columns)
        lines.append(row.ljust(name_width) + "  " + cells)
    return "\n".join(lines)


def format_claims(claims: Mapping[str, Mapping[str, object]]) -> str:
    """One ``claim <name>: holds — <detail>`` line per checked claim."""
    return "\n".join(
        f"claim {name}: {'holds' if claim['holds'] else 'DOES NOT HOLD'} — {claim['detail']}"
        for name, claim in claims.items())


def format_comparison(measured: Mapping[str, Mapping[str, float]],
                      paper: Mapping[str, Mapping[str, float]],
                      title: str = "") -> str:
    """Side-by-side measured vs. paper-reported table.

    Both sides are ``{row → {column → value}}``; each column appears as
    ``"<column> (ours)"`` and ``"<column> (paper)"``. Rows missing on
    either side are shown with blanks so the rows always line up with the
    paper's roster.
    """
    merged: dict[str, dict[str, object]] = {}
    for row in list(paper) + [r for r in measured if r not in paper]:
        cells = {f"{c} (ours)": v for c, v in measured.get(row, {}).items()}
        cells.update({f"{c} (paper)": v for c, v in paper.get(row, {}).items()})
        merged[row] = cells
    return format_table(merged, title=title)
