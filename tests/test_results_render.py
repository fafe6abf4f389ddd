"""Rendering tests for result tables."""

import pytest

from repro.harness import ExperimentTable


@pytest.fixture
def table():
    t = ExperimentTable("figX", "demo ratios", columns=["a", "b"])
    t.add_row("alpha", [0.5, 1.0])
    t.add_row("beta", [1.5, 0.9])
    t.notes.append("a note")
    return t


class TestRender:
    def test_render_contains_rows_and_notes(self, table):
        text = table.render()
        assert "alpha" in text and "beta" in text
        assert "GEOMEAN" in text
        assert "note: a note" in text

    def test_custom_format(self, table):
        text = table.render(fmt="{:.1f}")
        assert "0.5" in text and "0.50" not in text
