"""Unit tests for the ASCII series plotter."""

import numpy as np
import pytest

from repro.api.config import ExperimentSeries
from repro.exceptions import ValidationError
from repro.experiments.ascii_plot import plot_series


def _series():
    return ExperimentSeries(
        name="demo",
        x_label="m",
        x_values=[0.0, 1.0, 2.0, 3.0],
        series={
            "flat": [4.0, 4.0, 4.0, 4.0],
            "falling": [5.0, 4.0, 3.0, 2.0],
        },
    )


class TestPlotSeries:
    def test_contains_legend_and_title(self):
        text = plot_series(_series())
        assert "demo" in text
        assert "* flat" in text
        assert "o falling" in text

    def test_dimensions_respected(self):
        text = plot_series(_series(), width=40, height=10)
        lines = text.splitlines()
        canvas_rows = [line for line in lines if "|" in line]
        assert len(canvas_rows) == 10

    def test_y_axis_labels_bracket_data(self):
        text = plot_series(_series())
        labelled = [
            line for line in text.splitlines()
            if "|" in line and line.split("|")[0].strip()
        ]
        top = float(labelled[0].split("|")[0])
        bottom = float(labelled[-1].split("|")[0])
        # Padded axis must bracket the data range [2, 5].
        assert top >= 5.0
        assert bottom <= 2.0

    def test_flat_curve_occupies_single_row(self):
        series = ExperimentSeries(
            name="flat-only",
            x_label="x",
            x_values=[0.0, 1.0, 2.0],
            series={"flat": [4.0, 4.0, 4.0]},
        )
        text = plot_series(series)
        rows_with_glyph = [
            line for line in text.splitlines() if "*" in line and "|" in line
        ]
        assert len(rows_with_glyph) == 1

    def test_monotone_curve_renders_monotone(self):
        series = ExperimentSeries(
            name="mono",
            x_label="x",
            x_values=np.arange(10.0),
            series={"down": np.linspace(10.0, 0.0, 10)},
        )
        text = plot_series(series, width=40, height=12)
        # First glyph column index per canvas row must increase downward.
        columns = []
        for line in text.splitlines():
            if "|" in line and "*" in line:
                columns.append(line.index("*"))
        assert columns == sorted(columns)

    def test_rejects_non_series(self):
        with pytest.raises(ValidationError):
            plot_series({"x": [1]})

    def test_rejects_too_many_curves(self):
        series = ExperimentSeries(
            name="many",
            x_label="x",
            x_values=[0.0, 1.0],
            series={f"c{i}": [1.0, 2.0] for i in range(9)},
        )
        with pytest.raises(ValidationError, match="more than"):
            plot_series(series)

    def test_rejects_tiny_canvas(self):
        with pytest.raises(ValidationError):
            plot_series(_series(), width=5)

    def test_single_point_series(self):
        series = ExperimentSeries(
            name="one",
            x_label="x",
            x_values=[2.0],
            series={"p": [3.0]},
        )
        text = plot_series(series)
        assert "*" in text


class TestBarChart:
    def test_basic_render(self):
        from repro.experiments.ascii_plot import bar_chart

        text = bar_chart(["a", "b"], [4.0, 2.0], width=8)
        first, second = text.splitlines()
        assert first.count("#") == 8
        assert second.count("#") == 4
        assert first.startswith("a")
        assert "|" in first

    def test_tiny_nonzero_value_keeps_one_glyph(self):
        from repro.experiments.ascii_plot import bar_chart

        text = bar_chart(["big", "tiny"], [1000.0, 0.001], width=10)
        assert text.splitlines()[1].count("#") == 1

    def test_zero_values_draw_no_bar(self):
        from repro.experiments.ascii_plot import bar_chart

        text = bar_chart(["empty"], [0.0])
        assert "#" not in text

    def test_value_format_hook(self):
        from repro.experiments.ascii_plot import bar_chart

        text = bar_chart(["x"], [0.5], value_format=lambda v: f"<{v}>")
        assert text.endswith("<0.5>")

    def test_long_labels_truncated(self):
        from repro.experiments.ascii_plot import bar_chart

        text = bar_chart(["L" * 50, "s"], [1.0, 1.0])
        assert text.splitlines()[0].startswith("L" * 32 + " ")

    def test_validation(self):
        from repro.experiments.ascii_plot import bar_chart

        with pytest.raises(ValidationError, match="labels"):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ValidationError, match="at least one"):
            bar_chart([], [])
        with pytest.raises(ValidationError, match="non-negative"):
            bar_chart(["a"], [-1.0])
        with pytest.raises(ValidationError, match="non-negative"):
            bar_chart(["a"], [float("nan")])
        with pytest.raises(ValidationError, match="width"):
            bar_chart(["a"], [1.0], width=4)
