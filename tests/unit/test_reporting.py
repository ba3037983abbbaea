"""Unit tests for repro.experiments.reporting."""

import pytest

from repro.api.config import ExperimentSeries
from repro.exceptions import ValidationError
from repro.experiments.reporting import render_series, series_to_rows


def _series():
    return ExperimentSeries(
        name="figureX",
        x_label="m",
        x_values=[5.0, 10.0],
        series={"UDR": [4.5, 4.4999], "BE-DR": [3.0, 2.0]},
        metadata={"n_records": 100, "noise_std": 5.0},
    )


class TestSeriesToRows:
    def test_header_row(self):
        rows = series_to_rows(_series())
        assert rows[0] == ["m", "UDR", "BE-DR"]

    def test_one_row_per_point(self):
        rows = series_to_rows(_series())
        assert len(rows) == 3

    def test_integers_rendered_without_decimals(self):
        rows = series_to_rows(_series())
        assert rows[1][0] == "5"
        assert rows[1][2] == "3"

    def test_floats_rendered_with_precision(self):
        rows = series_to_rows(_series())
        assert rows[2][1] == "4.4999"

    def test_rejects_non_series(self):
        with pytest.raises(ValidationError):
            series_to_rows({"x": [1, 2]})


class TestRenderSeries:
    def test_contains_title_and_metadata(self):
        text = render_series(_series())
        assert "figureX" in text
        assert "n_records=100" in text
        assert "noise_std=5" in text

    def test_custom_title(self):
        text = render_series(_series(), title="Figure 1 (reproduced)")
        assert text.startswith("Figure 1 (reproduced)")

    def test_columns_aligned(self):
        text = render_series(_series())
        lines = [
            line for line in text.splitlines() if "|" in line and "-" not in line
        ]
        positions = [line.index("|") for line in lines]
        assert len(set(positions)) == 1

    def test_every_method_in_header(self):
        text = render_series(_series())
        assert "UDR" in text and "BE-DR" in text
