"""Unit tests for the table rendering and CDF helpers."""

from repro.eval import cdf_at, render_table


class TestRenderTable:
    def test_contains_headers_and_rows(self):
        text = render_table(("a", "b"), [(1, 2), (3, 4)], title="T")
        assert "T" in text
        assert "a" in text and "b" in text
        assert "3" in text and "4" in text

    def test_column_alignment(self):
        text = render_table(("name", "n"), [("longvalue", 1)])
        lines = text.splitlines()
        assert len({len(line) for line in lines[:1]}) == 1

    def test_empty_rows(self):
        text = render_table(("x",), [])
        assert "x" in text


class TestCdf:
    def test_cdf_at_basic(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert cdf_at(samples, 2.0) == 0.5
        assert cdf_at(samples, 0.0) == 0.0
        assert cdf_at(samples, 10.0) == 1.0

    def test_cdf_at_empty(self):
        assert cdf_at([], 5.0) == 0.0
