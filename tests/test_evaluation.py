"""Gold files, gram matching, and MRR assembly."""

import pytest

from helpers import CONFIG
from pivotmine.config import RunConfig
from pivotmine.errors import DataError
from pivotmine.evaluation import (
    MATCH_MODES,
    gram_matches,
    mrr,
    mrr_table,
    read_gold,
    reciprocal_rank,
)


class TestReadGold:
    def test_parses_and_merges(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text(
            "# planted markers\n"
            "paa_t\tpast\tko,ka\n"
            "paa_t\tpast\tki\n"
            "saa_t\tfuture\tva\n"
            "\n",
            encoding="utf-8",
        )
        gold = read_gold(path)
        assert gold[("paa_t", "past")] == {"ko", "ka", "ki"}
        assert gold[("saa_t", "future")] == {"va"}

    def test_malformed(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("paa_t\tpast\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_gold(bad)
        empty_forms = tmp_path / "empty.tsv"
        empty_forms.write_text("paa_t\tpast\t,\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_gold(empty_forms)


class TestGramMatches:
    def test_modes(self):
        gold = {"ed"}
        assert gram_matches("ed ", gold, "gold_in_gram")
        assert not gram_matches("ed ", gold, "gram_in_gold")
        assert gram_matches("e", gold, "gram_in_gold")
        assert not gram_matches("e", gold, "gold_in_gram")
        assert gram_matches("ed ", gold, "both")
        assert gram_matches("e", gold, "both")
        assert not gram_matches("xy", gold, "both")

    def test_any_gold_form_suffices(self):
        assert gram_matches("zz", {"aa", "zzz"}, "gram_in_gold")

    def test_unknown_mode(self):
        # RunConfig checks match_mode (test_cli's
        # TestConfig::test_validation_bounds); every mode is accepted there
        assert MATCH_MODES == ("both", "gold_in_gram", "gram_in_gold")
        for mode in MATCH_MODES:
            RunConfig(match_mode=mode)


class TestReciprocalRank:
    def test_first_match_position(self):
        assert reciprocal_rank(["xx", "ka", "ka"], {"ka"}, CONFIG.match_mode) == 0.5
        assert reciprocal_rank(["ka"], {"ka"}, CONFIG.match_mode) == 1.0
        assert reciprocal_rank(["xx", "yy"], {"ka"}, CONFIG.match_mode) == 0.0
        assert reciprocal_rank([], {"ka"}, CONFIG.match_mode) == 0.0


class TestMrr:
    def gold(self):
        return {
            ("paa_t", "past"): {"ko"},
            ("pba_t", "past"): {"ti"},
        }

    def test_perfect(self):
        ranked = {
            "paa_t": {2: ["ko", "xx"], 3: ["kox", "yy"]},
            "pba_t": {2: ["ti"]},
        }
        result = mrr(ranked, self.gold(), "past", CONFIG.match_mode)
        assert result.per_translation == {"paa_t": 1.0, "pba_t": 1.0}
        assert result.aggregate == 1.0
        assert result.excluded == []

    def test_mixed_ranks_average_over_n(self):
        ranked = {"paa_t": {2: ["xx", "ko"], 3: ["zz", "yy"]}}
        result = mrr(ranked, self.gold(), "past", CONFIG.match_mode)
        # rank 2 at n=2 and no match at n=3: (0.5 + 0) / 2
        assert result.per_translation["paa_t"] == pytest.approx(0.25)

    def test_excluded_listed(self):
        ranked = {"paa_t": {2: ["ko"]}, "naa_t": {2: ["qq"]}}
        result = mrr(ranked, self.gold(), "past", CONFIG.match_mode)
        assert result.excluded == ["naa_t"]
        assert "naa_t" not in result.per_translation

    def test_empty_ranking_scores_zero(self):
        result = mrr({"paa_t": {}}, self.gold(), "past", CONFIG.match_mode)
        assert result.per_translation == {"paa_t": 0.0}

    def test_no_gold_anywhere(self):
        with pytest.raises(DataError):
            mrr({"naa_t": {2: ["x"]}}, self.gold(), "past", CONFIG.match_mode)


class TestMrrTable:
    def test_layout(self):
        from pivotmine.evaluation import MrrResult

        past = MrrResult("past", {"paa_t": 1.0, "pba_t": 0.5}, 0.75, [])
        future = MrrResult("future", {"paa_t": 0.0}, 0.0, ["pba_t"])
        table = mrr_table([past, future])
        assert table["features"] == ["past", "future"]
        assert table["rows"]["paa_t"] == {"past": 1.0, "future": 0.0, "all": 0.5}
        assert table["rows"]["pba_t"] == {"past": 0.5, "future": None, "all": 0.5}
        assert table["aggregates"] == {
            "past": 0.75, "future": 0.0, "all": pytest.approx(0.375)
        }
        assert table["excluded"] == {"past": [], "future": ["pba_t"]}
