"""Tests for ASCII phase timelines."""

import pytest

from repro.analysis.timeline import phase_glyphs, render_timeline
from repro.errors import TraceError


class TestPhaseGlyphs:
    def test_transition_is_dot(self):
        mapping = phase_glyphs([0, 1, 2])
        assert mapping[0] == "."

    def test_first_appearance_order(self):
        mapping = phase_glyphs([5, 3, 5, 9])
        assert mapping[5] == "A"
        assert mapping[3] == "B"
        assert mapping[9] == "C"

    def test_overflow_shares_glyph(self):
        stream = list(range(1, 80))
        mapping = phase_glyphs(stream)
        overflow = [g for g in mapping.values() if g == "?"]
        assert overflow  # some phases exceeded the alphabet

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            phase_glyphs([])


class TestRenderTimeline:
    def test_basic_rendering(self):
        out = render_timeline([1, 1, 0, 2, 2], width=10)
        assert "AA.BB" in out
        assert "legend:" in out
        assert "transition" in out

    def test_wrapping(self):
        out = render_timeline([1] * 100, width=40, legend=False)
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("0000 ")
        assert lines[1].startswith("0040 ")

    def test_legend_counts(self):
        out = render_timeline([1, 1, 1, 2], width=16)
        assert "A=phase 1 (3, 75%)" in out

    def test_legend_truncation(self):
        stream = list(range(1, 30))
        out = render_timeline(stream, max_legend_entries=3)
        assert "..." in out

    def test_no_legend_option(self):
        out = render_timeline([1, 2], legend=False)
        assert "legend" not in out

    def test_width_validation(self):
        with pytest.raises(TraceError):
            render_timeline([1], width=4)

    def test_real_classification_renders(self, classified_small):
        out = render_timeline(classified_small.phase_ids)
        assert out.count("\n") >= 1
