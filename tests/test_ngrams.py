"""Positional profiles, windowed gram counting, and mining."""

import logging
import math

import pytest

from helpers import make_corpus
from pivotmine.errors import DataError
from pivotmine.ngrams import (
    _window_gram_counts,
    accumulate_profile,
    escape_gram,
    mine_ngrams,
    pivot_relative_positions,
    position_profile,
    read_ngrams_tsv,
    unescape_gram,
    write_ngrams_tsv,
)
from pivotmine.pivots import Pivot, PivotSet
from pivotmine.synth import generate, preset_tiny8

PEAK = 1.0 / (6.0 * math.sqrt(2.0 * math.pi))


def ngram_occurrences(text: str, n: int) -> list[tuple[str, int]]:
    """All length-n character substrings with start offsets.

    No tokenization: spaces are characters, grams cross token boundaries.
    Brute-force oracle for the windowed counting in _window_gram_counts.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return [(text[s : s + n], s) for s in range(len(text) - n + 1)]


class TestOccurrences:
    def test_basic(self):
        assert ngram_occurrences("abc", 2) == [("ab", 0), ("bc", 1)]

    def test_crosses_spaces(self):
        assert ngram_occurrences("a a", 3) == [("a a", 0)]

    def test_too_short(self):
        assert ngram_occurrences("ab", 3) == []

    def test_n_validation(self):
        with pytest.raises(ValueError):
            ngram_occurrences("abc", 0)


class TestProfile:
    def test_center_and_peak(self):
        profile = position_profile("v", "x" * 100, [0.62])
        assert profile.x_max == 62
        assert profile.scores[62] == pytest.approx(PEAK, abs=1e-4)
        assert profile.pivot_hits == 1

    def test_leftmost_argmax_of_equal_bells(self):
        profile = position_profile("v", "x" * 100, [0.2, 0.8])
        assert profile.x_max == 20

    def test_center_clamped_into_text(self):
        profile = position_profile("v", "x" * 10, [0.999])
        assert profile.x_max == 9

    def test_no_hits_flat_zero(self):
        profile = position_profile("v", "x" * 30, [])
        assert profile.x_max == 0 and profile.x_min == 0
        assert not profile.scores.any()

    def test_empty_text(self):
        profile = position_profile("v", "", [0.5])
        assert profile.scores.shape == (0,)
        assert profile.pivot_hits == 1

    def test_mass_preserved_away_from_edges(self):
        scores = accumulate_profile(200, [100], 6.0)
        assert scores.sum() == pytest.approx(1.0, abs=1e-3)

    def test_two_centers_double_mass(self):
        scores = accumulate_profile(400, [100, 300], 6.0)
        assert scores.sum() == pytest.approx(2.0, abs=2e-3)


class TestWindowCounts:
    def test_overlap_bounds(self):
        # spans [s, s+n) overlapping [center-w, center+w] means
        # s in [center-w-n+1, center+w]
        from collections import Counter

        sink = {2: Counter()}
        added = _window_gram_counts("abcdefghij", 4, 1, (2, 2), sink)
        assert added == {2: 4}
        assert sorted(sink[2]) == ["cd", "de", "ef", "fg"]

    def test_agrees_with_brute_force(self):
        from collections import Counter

        text = "the quick brown fox"
        center, w = 8, 3
        for n in (1, 2, 3, 4):
            sink = {n: Counter()}
            _window_gram_counts(text, center, w, (n, n), sink)
            expected = Counter(
                g
                for g, s in ngram_occurrences(text, n)
                if s + n - 1 >= center - w and s <= center + w
            )
            assert sink[n] == expected

    def test_n_longer_than_text(self):
        from collections import Counter

        sink = {5: Counter()}
        added = _window_gram_counts("abc", 1, 2, (5, 5), sink)
        assert added == {5: 0}
        assert not sink[5]


class TestRelativePositions:
    def test_token_midpoints(self):
        corpus = make_corpus({"paa_t": {"00000001": "aa ko bb"}})
        pivot = Pivot("paa", "paa_t", "ko", 1.0)
        ps = PivotSet(pivot, [pivot])
        rels = pivot_relative_positions(corpus, ps)
        assert rels == {"00000001": [0.5]}

    def test_repeated_token_counts_twice(self):
        corpus = make_corpus({"paa_t": {"00000001": "ko ko"}})
        pivot = Pivot("paa", "paa_t", "ko", 1.0)
        rels = pivot_relative_positions(corpus, PivotSet(pivot, [pivot]))
        assert rels == {"00000001": [0.2, 0.8]}


@pytest.fixture(scope="module")
def tiny():
    corpus, truth = generate(preset_tiny8())
    return corpus.select(len(corpus.verse_universe)), truth


def particle_pivot_set(corpus, truth, feature: str) -> PivotSet:
    info = truth["languages"]["paa"]
    surface = info["markers"][feature][0]
    pivot = Pivot("paa", info["translation_id"], surface, 1.0)
    return PivotSet(pivot, [pivot])


class TestMining:
    def test_planted_suffix_ranks_first(self, tiny):
        corpus, truth = tiny
        ps = particle_pivot_set(corpus, truth, "past")
        for iso in ("saa", "sba"):
            info = truth["languages"][iso]
            suffix = info["markers"]["past"][0]
            result = mine_ngrams(corpus, info["translation_id"], ps)
            grams = result.top_grams(len(suffix))
            assert grams and grams[0] == suffix

    def test_counters_and_flags(self, tiny):
        corpus, truth = tiny
        ps = particle_pivot_set(corpus, truth, "past")
        result = mine_ngrams(corpus, truth["languages"]["saa"]["translation_id"], ps)
        assert 0 < result.verses_positive < result.verses_scored
        assert 0 <= result.overlap_flagged <= result.verses_positive
        for n, cands in result.by_n.items():
            assert len(cands) <= 10
            assert [c.rank for c in cands] == list(range(1, len(cands) + 1))
            scores = [c.score for c in cands]
            assert scores == sorted(scores, reverse=True)

    def test_explicit_positions_match_derived(self, tiny):
        corpus, truth = tiny
        ps = particle_pivot_set(corpus, truth, "past")
        tid = truth["languages"]["saa"]["translation_id"]
        rels = pivot_relative_positions(corpus, ps)
        direct = mine_ngrams(corpus, tid, ps)
        via_override = mine_ngrams(corpus, tid, ps, relative_positions=rels)
        assert direct == via_override

    def test_no_shared_verses_warns(self, caplog):
        corpus = make_corpus(
            {"paa_t": {"00000001": "aa ko bb"}, "tgt_t": {}}
        )
        pivot = Pivot("paa", "paa_t", "ko", 1.0)
        ps = PivotSet(pivot, [pivot])
        with caplog.at_level(logging.WARNING):
            result = mine_ngrams(corpus, "tgt_t", ps)
        assert result.verses_scored == 0
        assert not result.by_n.get(2)
        assert "shares no selected verses" in caplog.text

    def test_no_pivot_coverage_warns(self, caplog):
        corpus = make_corpus(
            {
                "paa_t": {"00000001": "aa bb", "00000002": "cc dd"},
                "tgt_t": {"00000001": "xx yy", "00000002": "zz ww"},
            }
        )
        pivot = Pivot("paa", "paa_t", "ko", 1.0)
        ps = PivotSet(pivot, [pivot])
        with caplog.at_level(logging.WARNING):
            result = mine_ngrams(corpus, "tgt_t", ps)
        assert result.verses_positive == 0
        assert "no pivot coverage" in caplog.text

    def test_validation(self, tiny):
        corpus, truth = tiny
        ps = particle_pivot_set(corpus, truth, "past")
        tid = truth["languages"]["saa"]["translation_id"]
        with pytest.raises(ValueError):
            mine_ngrams(corpus, tid, ps, n_range=(0, 2))
        with pytest.raises(ValueError):
            mine_ngrams(corpus, tid, ps, n_range=(3, 2))
        with pytest.raises(ValueError):
            mine_ngrams(corpus, tid, ps, w=-1)
        with pytest.raises(DataError):
            mine_ngrams(corpus, "nope_t", ps)


class TestSerialization:
    def test_escape_round_trip(self):
        gram = "a b\tc"
        assert escape_gram(gram) == "a␣b\\tc"
        assert unescape_gram(escape_gram(gram)) == gram

    def test_tsv_round_trip(self, tiny, tmp_path):
        corpus, truth = tiny
        ps = particle_pivot_set(corpus, truth, "past")
        result = mine_ngrams(corpus, truth["languages"]["saa"]["translation_id"], ps)
        path = tmp_path / "grams.tsv"
        write_ngrams_tsv(result, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("n\trank\tgram\tpos\tneg\tchi2\n")
        loaded = read_ngrams_tsv(path)
        assert set(loaded) == set(result.by_n)
        for n in loaded:
            assert loaded[n] == result.top_grams(n)

    def test_tsv_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("nope\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_ngrams_tsv(bad)
        worse = tmp_path / "worse.tsv"
        worse.write_text("n\trank\tgram\tpos\tneg\tchi2\n2\t1\tka\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_ngrams_tsv(worse)
