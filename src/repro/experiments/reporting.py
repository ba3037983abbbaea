"""Plain-text rendering of experiment series.

The CLI prints each regenerated figure as an aligned text table — the
same rows/series the paper plots — so a ``repro figureN`` run doubles as
the reproduction record.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.api.config import ExperimentSeries

__all__ = ["series_to_rows", "render_series"]


def series_to_rows(series: ExperimentSeries) -> list[list[str]]:
    """Tabulate a series: header row, then one row per sweep point."""
    if not isinstance(series, ExperimentSeries):
        raise ValidationError(
            f"expected an ExperimentSeries, got {type(series).__name__}"
        )
    header = [series.x_label] + series.methods
    rows = [header]
    for index, x in enumerate(series.x_values):
        row = [_format_number(x)]
        row.extend(
            _format_number(series.series[method][index])
            for method in series.methods
        )
        rows.append(row)
    return rows


def render_series(series: ExperimentSeries, *, title: str | None = None) -> str:
    """Render a series as an aligned text table with a metadata header.

    Parameters
    ----------
    series:
        The regenerated figure data.
    title:
        Optional heading; defaults to the series name.
    """
    rows = series_to_rows(series)
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(rows[0]))
    ]
    lines = []
    heading = title or f"Experiment: {series.name}"
    lines.append(heading)
    if series.metadata:
        meta = ", ".join(
            f"{key}={_format_value(value)}"
            for key, value in sorted(series.metadata.items())
        )
        lines.append(f"  [{meta}]")
    separator = "-+-".join("-" * width for width in widths)
    for row_index, row in enumerate(rows):
        padded = " | ".join(
            cell.rjust(width) for cell, width in zip(row, widths)
        )
        lines.append(padded)
        if row_index == 0:
            lines.append(separator)
    return "\n".join(lines)


def _format_number(value: float) -> str:
    value = float(value)
    # NaN marks a failed attack's curve point (the pipeline records the
    # error and carries on); render it literally instead of crashing on
    # int(nan).
    if not math.isfinite(value):
        return str(value)
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.4f}"


def _format_value(value) -> str:
    if isinstance(value, float):
        return _format_number(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    return str(value)
