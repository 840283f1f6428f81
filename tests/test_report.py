"""Tests for report formatting, including the ASCII bar charts."""

import pytest

from repro.analysis.report import ascii_bars, format_table


class TestAsciiBars:
    def test_bars_scale_to_peak(self):
        text = ascii_bars(["a", "b"], [10.0, 5.0], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_title_and_units(self):
        text = ascii_bars(["x"], [1.0], title="T", unit=" Gbps")
        assert text.startswith("T\n")
        assert "Gbps" in text

    def test_zero_values_allowed(self):
        text = ascii_bars(["a", "b"], [0.0, 2.0])
        assert "0.00" in text

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ascii_bars([], [])
        with pytest.raises(ValueError):
            ascii_bars(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            ascii_bars(["a"], [-1.0])

    def test_labels_aligned(self):
        text = ascii_bars(["short", "a-much-longer-label"], [1.0, 2.0])
        lines = text.splitlines()
        assert lines[0].index("#") == lines[1].index("#")


class TestFormatTableEdgeCases:
    def test_missing_columns_render_empty(self):
        text = format_table([{"a": 1}], ["a", "b"])
        assert "a" in text

    def test_custom_float_format(self):
        text = format_table([{"v": 3.14159}], ["v"], float_format="%.4f")
        assert "3.1416" in text
