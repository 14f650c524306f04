"""Tests for the ASCII chart helpers."""

import pytest

from repro.metrics import bar_chart


class TestBarChart:
    def test_scales_to_maximum(self):
        out = bar_chart("t", [("a", 10.0), ("b", 5.0)], width=10)
        lines = out.splitlines()
        assert lines[0] == "== t =="
        assert lines[1].count("#") == 10
        assert lines[2].count("#") == 5

    def test_labels_aligned(self):
        out = bar_chart("t", [("short", 1.0), ("much-longer", 2.0)])
        lines = out.splitlines()[1:]
        assert lines[0].index("|") == lines[1].index("|")

    def test_unit_appended(self):
        out = bar_chart("t", [("a", 1.5)], unit="s")
        assert "1.5s" in out

    def test_zero_values(self):
        out = bar_chart("t", [("a", 0.0), ("b", 0.0)])
        assert "#" not in out

    def test_empty_items(self):
        assert bar_chart("t", []) == "== t =="

    def test_bad_width(self):
        with pytest.raises(ValueError):
            bar_chart("t", [("a", 1.0)], width=0)


class TestEncodingFallback:
    """Charts must degrade to pure ASCII when stdout can't do Unicode."""

    class _AsciiStdout:
        encoding = "ascii"

    def _force_ascii(self, monkeypatch):
        import sys

        monkeypatch.setattr(sys, "stdout", self._AsciiStdout())

    def test_sparkline_falls_back(self, monkeypatch):
        from repro.metrics.ascii import ASCII_SPARK_BLOCKS, sparkline

        self._force_ascii(monkeypatch)
        out = sparkline([0, 1, 3, 7])
        out.encode("ascii")  # must not raise
        assert set(out) <= set(ASCII_SPARK_BLOCKS)
        assert sparkline([1, 1]).encode("ascii") == b"__"

    def test_sparkline_unicode_by_default(self):
        from repro.metrics.ascii import SPARK_BLOCKS, sparkline

        assert set(sparkline([0, 1, 3, 7])) <= set(SPARK_BLOCKS)

    def test_flame_chart_falls_back(self, monkeypatch):
        from repro.metrics.ascii import flame_chart

        self._force_ascii(monkeypatch)
        out = flame_chart(
            {"miss;execute": 5.0, "miss;tiny": 0.001}, min_share=0.01
        )
        out.encode("ascii")  # must not raise
        assert "#" in out and "..." in out

    def test_block_char_probe(self, monkeypatch):
        from repro.metrics.ascii import block_char

        assert block_char() == "█"
        self._force_ascii(monkeypatch)
        assert block_char() == "#"

    def test_timeline_render_falls_back(self, monkeypatch):
        from repro.obs.analyze import render_timeline
        from repro.obs.trace import Span, TraceDump

        self._force_ascii(monkeypatch)
        root = Span(1, 1, None, "request", "n0", "other", 0.0, 0,
                    {"outcome": "exec"})
        root.close(1.0)
        child = Span(1, 2, 1, "execute", "n0", "cpu", 0.2, 0, {})
        child.close(0.8)
        out = render_timeline(TraceDump([root, child], []))
        out.encode("ascii")  # must not raise
        assert "#" in out
