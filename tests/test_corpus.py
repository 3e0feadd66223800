"""Corpus loading, tokenization, verse selection, query merging."""

import logging
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_corpus, tokenize_reference
from pivotmine.corpus import (
    DELIMITERS,
    MultiCorpus,
    Translation,
    apply_query_merge,
    coverage_counts,
    is_verse_id,
    load_corpus,
    read_families,
    select_covered_verses,
    tokenize_verse,
    write_coverage_report,
)
from pivotmine.errors import DataError


def surfaces(tokens) -> list[str]:
    return [t.surface for t in tokens]


class TestTokenize:
    def test_standard_delimiters(self):
        assert surfaces(tokenize_verse("Met! Manz en pe.")) == ["met", "manz", "en", "pe"]

    def test_offsets_skip_delimiter_runs(self):
        tokens = tokenize_verse("a  b")
        assert [(t.start, t.end) for t in tokens] == [(0, 1), (3, 4)]

    def test_offsets_index_original_text(self):
        text = "Say: YES, twice."
        for tok in tokenize_verse(text):
            assert tok.surface == text[tok.start : tok.end].lower()

    def test_empty_text(self):
        assert tokenize_verse("") == ()

    def test_all_delimiters(self):
        assert tokenize_verse("... !?  ") == ()

    def test_tokens_are_slotted_and_in_a_tuple(self):
        tokens = tokenize_verse("a b")
        assert isinstance(tokens, tuple)
        assert not hasattr(tokens[0], "__dict__")

    @given(st.text(alphabet=DELIMITERS + string.ascii_uppercase + "İßΣé", max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_matches_character_loop_oracle(self, text):
        got = [(t.surface, t.start, t.end) for t in tokenize_verse(text)]
        assert got == tokenize_reference(text)

    @given(st.text(alphabet="ab .,!", max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_tokens_are_maximal_delimiter_free_runs(self, text):
        delims = set(DELIMITERS)
        covered = set()
        for tok in tokenize_verse(text):
            span = text[tok.start : tok.end]
            assert span and not (set(span) & delims)
            # maximality: neighbours are delimiters or edges
            assert tok.start == 0 or text[tok.start - 1] in delims
            assert tok.end == len(text) or text[tok.end] in delims
            covered.update(range(tok.start, tok.end))
        for i, ch in enumerate(text):
            assert (i in covered) == (ch not in delims)


class TestVerseIds:
    def test_is_verse_id(self):
        assert is_verse_id("40001001")
        assert not is_verse_id("4001001")
        assert not is_verse_id("40001001x")
        assert not is_verse_id("4000100a")
        assert not is_verse_id("")


@pytest.fixture
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "aaa_first.txt").write_text(
        "00000001\tMet! Manz en pe.\n00000002\tok manz\n", encoding="utf-8"
    )
    (d / "bbb_second.txt").write_text(
        "00000001\tone two\n00000003\tthree\n", encoding="utf-8"
    )
    return d


class TestLoadCorpus:
    def test_loads_translations_and_universe(self, corpus_dir):
        corpus = load_corpus(corpus_dir)
        assert sorted(corpus.translations) == ["aaa_first", "bbb_second"]
        assert corpus.translations["aaa_first"].iso3 == "aaa"
        assert corpus.verse_universe == ("00000001", "00000002", "00000003")

    def test_bad_filename_skipped_with_warning(self, corpus_dir, caplog):
        (corpus_dir / "notaname.txt").write_text("00000001\tx\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(corpus_dir)
        assert "notaname.txt" in caplog.text
        assert "notaname" not in corpus.translations

    def test_malformed_lines_counted(self, corpus_dir, caplog):
        (corpus_dir / "ccc_third.txt").write_text(
            "00000001\tfine\nnotanid\tbad\n123\talso bad\n", encoding="utf-8"
        )
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(corpus_dir)
        assert corpus.malformed_lines == 2
        assert corpus.translations["ccc_third"].verses == {"00000001": "fine"}

    def test_duplicate_verse_keeps_first(self, corpus_dir, caplog):
        (corpus_dir / "ddd_dup.txt").write_text(
            "00000001\tfirst\n00000001\tsecond\n", encoding="utf-8"
        )
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(corpus_dir)
        assert corpus.translations["ddd_dup"].verses["00000001"] == "first"
        assert "duplicate" in caplog.text

    def test_empty_dir_is_data_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises(DataError):
            load_corpus(empty)
        with pytest.raises(DataError):
            load_corpus(tmp_path / "missing")

    def test_families_metadata(self, corpus_dir, tmp_path):
        meta = tmp_path / "families.tsv"
        meta.write_text("aaa\tfamA\nbbb\tfamB\n", encoding="utf-8")
        corpus = load_corpus(corpus_dir, iso_metadata=meta)
        assert corpus.families == {"aaa": "famA", "bbb": "famB"}

    def test_read_families_rejects_malformed(self, tmp_path):
        meta = tmp_path / "families.tsv"
        meta.write_text("aaa famA\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_families(meta)

    def test_read_families_skips_comments(self, tmp_path):
        meta = tmp_path / "families.tsv"
        meta.write_text("# header\naaa\tfamA\n\n", encoding="utf-8")
        assert read_families(meta) == {"aaa": "famA"}


class TestSelection:
    def test_identity_when_target_is_universe(self):
        corpus = make_corpus(
            {"aaa_t": {"00000001": "a", "00000002": "b"}}, select=False
        )
        assert select_covered_verses(corpus, 2) == ["00000001", "00000002"]

    def test_bounds(self):
        corpus = make_corpus({"aaa_t": {"00000001": "a"}}, select=False)
        with pytest.raises(ValueError):
            select_covered_verses(corpus, 0)
        with pytest.raises(ValueError):
            select_covered_verses(corpus, 2)

    def test_brute_force_oracle_and_monotonicity(self):
        rng = random.Random(404)
        vids = [f"{i:08d}" for i in range(1, 41)]
        verses_by_tid = {}
        for t in range(6):
            tid = f"t{t:02d}_x"[:3] + f"_v{t}"
            keep = {v for v in vids if rng.random() < 0.6}
            verses_by_tid[tid] = {v: "w" for v in keep}
        corpus = make_corpus(verses_by_tid, select=False)
        counts = coverage_counts(corpus)
        oracle = sorted(corpus.verse_universe, key=lambda v: (-counts[v], v))
        prev = set()
        for target in range(1, len(corpus.verse_universe) + 1):
            got = select_covered_verses(corpus, target)
            assert got == sorted(oracle[:target])
            assert got == sorted(got)
            assert prev <= set(got)
            prev = set(got)
            worst_in = min(counts[v] for v in got)
            excluded = set(corpus.verse_universe) - set(got)
            if excluded:
                assert worst_in >= max(counts[v] for v in excluded) or any(
                    counts[v] == worst_in for v in excluded
                )

    def test_selected_coverage_dominates_excluded(self):
        corpus = make_corpus(
            {
                "aaa_t": {f"{i:08d}": "x" for i in range(1, 11)},
                "bbb_t": {f"{i:08d}": "x" for i in range(1, 6)},
            },
            select=False,
        )
        got = select_covered_verses(corpus, 5)
        assert got == [f"{i:08d}" for i in range(1, 6)]

    def test_select_returns_new_corpus(self):
        corpus = make_corpus({"aaa_t": {"00000001": "a"}}, select=False)
        picked = corpus.select(1)
        assert picked.selected_verses == ("00000001",)
        assert corpus.selected_verses == ()

    def test_coverage_report_format(self, tmp_path):
        corpus = make_corpus(
            {"aaa_t": {"00000001": "a", "00000002": "b"}, "bbb_t": {"00000001": "c"}},
            select=False,
        )
        path = tmp_path / "coverage.tsv"
        write_coverage_report(corpus, path)
        assert path.read_text() == "00000001\t2\n00000002\t1\n"


class TestQueryMerge:
    def test_merges_each_form(self):
        trans = Translation("aaa_t", "aaa", {"00000001": "he is here"})
        merged = apply_query_merge(trans, {"is", "are", "am"}, "QTOK")
        assert merged.verses["00000001"] == "he QTOK here"

    def test_merges_repeated_tokens(self):
        trans = Translation("aaa_t", "aaa", {"00000001": "will will"})
        merged = apply_query_merge(trans, {"will"}, "QTOK")
        assert merged.verses["00000001"] == "QTOK QTOK"

    def test_preserves_surrounding_punctuation(self):
        trans = Translation("aaa_t", "aaa", {"00000001": "Is he? He is!"})
        merged = apply_query_merge(trans, {"is"}, "QTOK")
        assert merged.verses["00000001"] == "QTOK he? He QTOK!"

    def test_delimiter_in_synthetic_rejected(self):
        trans = Translation("aaa_t", "aaa", {"00000001": "x"})
        with pytest.raises(ValueError):
            apply_query_merge(trans, {"x"}, "bad token")
        with pytest.raises(ValueError):
            apply_query_merge(trans, {"x"}, "")

    def test_collision_with_existing_token_rejected(self):
        trans = Translation("aaa_t", "aaa", {"00000001": "qtok stays"})
        with pytest.raises(DataError):
            apply_query_merge(trans, {"stays"}, "qtok")

    def test_zero_matches_warns(self, caplog):
        trans = Translation("aaa_t", "aaa", {"00000001": "nothing here"})
        with caplog.at_level(logging.WARNING):
            merged = apply_query_merge(trans, {"absent"}, "QTOK")
        assert "matched no tokens" in caplog.text
        assert merged.verses == trans.verses

    def test_case_folded_matching(self):
        trans = Translation("aaa_t", "aaa", {"00000001": "IS is Is"})
        merged = apply_query_merge(trans, {"is"}, "QTOK")
        assert merged.verses["00000001"] == "QTOK QTOK QTOK"


SCAN_ALPHABET = DELIMITERS + string.ascii_uppercase + "abİiΣσςé"


class TestSurfaceSpans:
    """The token-free scan against the cached tokens."""

    def test_tokens_lowercased_one_at_a_time(self):
        # Lowercasing "ΑΣ'Α" as a whole gives "ασ'α"; the token ΑΣ is "ας".
        corpus = make_corpus({"ell_t": {"00000001": "ΑΣ'Α ασ", "00000002": "ΑΣΑ"}})
        assert corpus.surface_spans("ell_t", "ας") == [[(0, 2)], []]
        assert corpus.surface_spans("ell_t", "ασ") == [[(5, 7)], []]
        assert not corpus._token_cache

    def test_missing_verse_is_none(self):
        corpus = make_corpus(
            {"aaa_t": {"00000001": "x", "00000003": ""}, "bbb_t": {"00000002": "y"}}
        )
        assert corpus.surface_spans("aaa_t", "x") == [[(0, 1)], None, []]

    @given(
        st.lists(st.text(alphabet=SCAN_ALPHABET, max_size=40), min_size=1, max_size=4),
        st.sampled_from(["a", "b", "ab", "i̇", "σ", "ς", "aς", "é"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_cached_tokens(self, texts, surface):
        verses = {f"{i:08d}": t for i, t in enumerate(texts, 1)}
        corpus = make_corpus({"aaa_t": verses, "bbb_t": {"00000009": "z"}})
        spans = corpus.surface_spans("aaa_t", surface)
        assert not corpus._token_cache
        toks = corpus.tokenized("aaa_t")
        expected = [
            None
            if vid not in toks
            else [(t.start, t.end) for t in toks[vid] if t.surface == surface]
            for vid in corpus.selected_verses
        ]
        assert spans == expected


class TestCorpusMethods:
    def test_token_frequencies_selected_only(self):
        corpus = make_corpus(
            {"aaa_t": {"00000001": "a b a", "00000002": "c"}}, select=False
        )
        corpus = corpus.select(1)
        freqs = corpus.token_frequencies("aaa_t")
        assert freqs == {"a": 2, "b": 1}
        full = corpus.token_frequencies("aaa_t", selected_only=False)
        assert full == {"a": 2, "b": 1, "c": 1}

    def test_languages_and_translations_for(self):
        corpus = make_corpus(
            {
                "aaa_one": {"00000001": "x"},
                "aaa_two": {"00000001": "y"},
                "bbb_one": {"00000001": "z"},
            },
            select=False,
        )
        assert corpus.languages() == ["aaa", "bbb"]
        assert corpus.translations_for("aaa") == ["aaa_one", "aaa_two"]

    def test_with_translation_extends_universe(self):
        corpus = make_corpus({"aaa_t": {"00000001": "x"}}, select=False)
        newer = corpus.with_translation(
            Translation("bbb_t", "bbb", {"00000002": "y"})
        )
        assert newer.verse_universe == ("00000001", "00000002")
        assert "bbb_t" in newer.translations

    def test_tokenized_cache_survives_reuse(self):
        corpus = make_corpus({"aaa_t": {"00000001": "a b"}}, select=False)
        first = corpus.tokenized("aaa_t")
        assert corpus.tokenized("aaa_t") is first

    def test_with_translation_shares_cache_but_not_replaced_entry(self):
        corpus = make_corpus(
            {"aaa_t": {"00000001": "a b"}, "bbb_t": {"00000001": "c d"}}, select=False
        )
        original = corpus.tokenized("aaa_t")
        copy = corpus.with_translation(Translation("aaa_t", "aaa", {"00000001": "x y"}))
        # a tokenization made on one copy is reused by the other
        kept = copy.tokenized("bbb_t")
        assert corpus.tokenized("bbb_t") is kept
        # the replaced translation is tokenized afresh on each side
        assert surfaces(copy.tokenized("aaa_t")["00000001"]) == ["x", "y"]
        again = corpus.tokenized("aaa_t")
        assert surfaces(again["00000001"]) == ["a", "b"]
        assert again == original
