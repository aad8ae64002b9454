"""Tests of report formatting."""

from repro.experiments import format_claims, format_comparison, format_table


class TestFormatTable:
    def test_contains_rows_and_columns(self):
        text = format_table({"GNMR": {"HR@10": 0.857, "NDCG@10": 0.575}},
                            title="Table II")
        assert "Table II" in text
        assert "GNMR" in text
        assert "0.857" in text and "0.575" in text

    def test_missing_cells_blank(self):
        text = format_table({"a": {"x": 1.0}, "b": {"y": 2.0}})
        lines = text.splitlines()
        assert any("a" in line for line in lines)
        assert "2.000" in text

    def test_column_order_is_first_seen(self):
        text = format_table({"r": {"z": 1.0, "a": 2.0}})
        header = text.splitlines()[0]
        assert header.index("z") < header.index("a")


class TestFormatComparison:
    def test_shows_both_sides(self):
        measured = {"GNMR": {"HR@10": 0.40, "NDCG@10": 0.25}}
        paper = {"GNMR": {"HR@10": 0.857, "NDCG@10": 0.575}}
        text = format_comparison(measured, paper)
        assert "HR@10 (ours)" in text and "NDCG@10 (paper)" in text
        assert "0.400" in text and "0.857" in text

    def test_paper_only_rows_included(self):
        text = format_comparison({}, {"BiasMF": {"HR@10": 0.7, "NDCG@10": 0.4}})
        assert "BiasMF" in text


class TestFormatClaims:
    def test_one_line_each(self):
        text = format_claims({"a": {"holds": True, "detail": "1 ≥ 0"},
                              "b": {"holds": False, "detail": "0 ≥ 1"}})
        assert text.splitlines() == ["claim a: holds — 1 ≥ 0",
                                     "claim b: DOES NOT HOLD — 0 ≥ 1"]
