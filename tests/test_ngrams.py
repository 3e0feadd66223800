"""Positional profiles, gram ids, mining against its oracle, its scratch memory, and TSV cells."""

import logging
import math
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ngrams_oracle as oracle
from helpers import corpus_state, make_corpus, mining, positions_by_verse, verses_of, with_positions
from pivotmine import ngrams as ngrams_module
from pivotmine.corpus import DELIMITERS, dense_index
from pivotmine.errors import DataError
from pivotmine.gramtsv import (
    GRAM_SPACE_ESCAPE, escape_gram, read_ngrams_tsv, unescape_gram, write_ngrams_tsv,
)
from pivotmine.ngrams import MiningResult, NgramCandidate, _gram_ids, _profiles, mine_ngrams
from pivotmine.pivots import Pivot, PivotSet
from pivotmine.synth import generate, preset_marking24, preset_tiny8

PEAK = 1.0 / (6.0 * math.sqrt(2.0 * math.pi))


def ngram_occurrences(text: str, n: int) -> list[tuple[str, int]]:
    """All length-n character substrings with start offsets.

    No tokenization: spaces are characters, grams cross token boundaries.
    Brute-force oracle for the windowed counting in the oracle's
    _window_gram_counts.
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


def profile(length: int, rels: list[float], sigma: float = 6.0):
    """(scores, x_max, x_min) of one verse of the given length."""
    owner = np.zeros(len(rels), dtype=np.int64)
    scores, x_max, x_min = _profiles(np.array([length]), owner, np.array(rels, dtype=float), sigma)
    return scores, int(x_max[0]), int(x_min[0])


def assert_profiles_match_the_oracle(verses: list[tuple[int, list[float]]], sigma: float) -> None:
    """_profiles of (length, relative centers) verses is bit for bit the
    oracle's one-verse-at-a-time profile of each."""
    lengths = [length for length, _ in verses]
    owner = np.repeat(np.arange(len(verses)), [len(r) for _, r in verses])
    rel = np.array([x for _, r in verses for x in r], dtype=float)
    scores, x_max, x_min = _profiles(np.array(lengths), owner, rel, sigma)
    offset = 0
    for i, (length, rels) in enumerate(verses):
        ref = oracle.position_profile("v", "x" * length, rels, sigma)
        assert scores[offset : offset + length].tobytes() == ref.scores.tobytes()
        assert (x_max[i], x_min[i]) == (ref.x_max, ref.x_min)
        offset += length


class TestProfile:
    def test_center_and_peak(self):
        scores, x_max, _ = profile(100, [0.62])
        assert x_max == 62
        assert scores[62] == pytest.approx(PEAK, abs=1e-4)

    def test_leftmost_argmax_of_equal_bells(self):
        assert profile(100, [0.2, 0.8])[1] == 20

    def test_center_clamped_into_text(self):
        assert profile(10, [0.999])[1] == 9

    def test_no_hits_flat_zero(self):
        scores, x_max, x_min = profile(30, [])
        assert x_max == 0 and x_min == 0
        assert not scores.any()

    def test_empty_text(self):
        # an empty verse is never profiled: mining scores only verses with
        # text, even where a pivot marks the empty one
        corpus = make_corpus(
            {
                "paa_t": {"00000001": "ko", "00000002": "ko"},
                "tgt_t": {"00000001": "", "00000002": "ab"},
            }
        )
        pivot = Pivot("paa", "paa_t", "ko", 1.0)
        ps = PivotSet.scan(corpus, pivot, [pivot])
        result = mine_ngrams(corpus, "tgt_t", ps, **mining(n_range=(1, 1)))
        assert (result.verses_scored, result.verses_positive) == (1, 1)

    def test_mass_preserved_away_from_edges(self):
        scores = profile(200, [0.5])[0]
        assert scores.sum() == pytest.approx(1.0, abs=1e-3)

    def test_two_centers_double_mass(self):
        scores = profile(400, [0.25, 0.75])[0]
        assert scores.sum() == pytest.approx(2.0, abs=2e-3)

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 90),
                st.lists(st.floats(-0.1, 1.1, allow_nan=False), max_size=6),
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from([0.3, 1.5, 6.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_is_bit_identical_to_one_verse_at_a_time(self, verses, sigma):
        assert_profiles_match_the_oracle(verses, sigma)


    @pytest.mark.parametrize("sigma", [0.3, 6.0])
    def test_many_bells_per_verse_clamped_at_both_ends(self, sigma):
        # more than 16 bells in each verse, with centers before the start
        # and past the end clamped into it
        rng = random.Random(17)
        verses = [
            (length, [rng.uniform(-0.3, 1.3) for _ in range(count)] + [-0.5, 1.5, 0.0, 1.0])
            for length, count in ((1, 17), (7, 20), (40, 33), (3, 18))
        ]
        assert_profiles_match_the_oracle(verses, sigma)


class TestWindowCounts:
    """The oracle's window counting against the window definition."""

    def test_overlap_bounds(self):
        # spans [s, s+n) overlapping [center-w, center+w] means
        # s in [center-w-n+1, center+w]
        sink = {2: Counter()}
        added = oracle._window_gram_counts("abcdefghij", 4, 1, (2, 2), sink)
        assert added == {2: 4}
        assert sorted(sink[2]) == ["cd", "de", "ef", "fg"]

    def test_agrees_with_brute_force(self):
        text = "the quick brown fox"
        center, w = 8, 3
        for n in (1, 2, 3, 4):
            sink = {n: Counter()}
            oracle._window_gram_counts(text, center, w, (n, n), sink)
            expected = Counter(
                g
                for g, s in ngram_occurrences(text, n)
                if s + n - 1 >= center - w and s <= center + w
            )
            assert sink[n] == expected

    def test_n_longer_than_text(self):
        sink = {5: Counter()}
        added = oracle._window_gram_counts("abc", 1, 2, (5, 5), sink)
        assert added == {5: 0}
        assert not sink[5]


# 1,600 code points, far more than a short text's length, so gram ids
# are numbered by sorting rather than from a presence table.
WIDE_ALPHABET = "".join(chr(c) for c in range(0x4E00, 0x4E00 + 1600))


def assert_ids_order_like_grams(text: str, n_max: int) -> None:
    for n, ids, size in _gram_ids(text, range(1, n_max + 1)):
        grams = [text[s : s + n] for s in range(len(text) - n + 1)]
        assert len(ids) == len(grams)
        assert size == len(set(grams))
        assert sorted(set(ids.tolist())) == list(range(size))
        order = sorted(range(len(grams)), key=lambda i: (grams[i], i))
        assert np.argsort(ids, kind="stable").tolist() == order
        for i, j in zip(order, order[1:]):
            assert (ids[i] == ids[j]) == (grams[i] == grams[j])


def record_dense_index(monkeypatch) -> list[bool]:
    """Patch the miner's dense_index to record, per call, whether it read a
    presence table (key space no larger than the keys)."""
    tables = []

    def recording(keys, space):
        tables.append(space <= keys.size)
        return dense_index(keys, space)

    monkeypatch.setattr(ngrams_module, "dense_index", recording)
    return tables


class TestGramIds:
    def test_ids_order_like_grams(self, monkeypatch):
        tables = record_dense_index(monkeypatch)
        assert_ids_order_like_grams("abracadabra cab" * 10, 6)
        assert tables == [True] * 6

    def test_wide_alphabet_sorts_without_overflow(self, monkeypatch):
        rng = random.Random(5)
        text = "".join(rng.choice(WIDE_ALPHABET[:1550]) for _ in range(3000))
        text += text[:500]  # repeated 12-grams
        assert len(set(text)) ** 12 > 2**63
        tables = record_dense_index(monkeypatch)
        assert_ids_order_like_grams(text, 12)
        assert tables == [False] * 12

    def test_keys_widen_to_int64_from_2_to_the_31(self, monkeypatch):
        # about 39,000 distinct astral characters, and nearly every pair
        # distinct, so the key space of the 3-grams passes 2**31
        rng = random.Random(2)
        text = "".join(chr(rng.randrange(0x20000, 0x30000)) for _ in range(60_000))
        calls = []

        def recording(keys, space):
            calls.append((keys.dtype, space))
            return dense_index(keys, space)

        monkeypatch.setattr(ngrams_module, "dense_index", recording)
        assert_ids_order_like_grams(text, 3)
        (_, pairs), (_, triples) = calls[1:]
        assert pairs < 2**31 <= triples
        assert [dtype for dtype, _ in calls[1:]] == [np.int32, np.int64]

    def test_only_requested_lengths(self):
        assert [n for n, _, _ in _gram_ids("abcd", range(2, 4))] == [2, 3]

    @given(st.text(alphabet="ab Σς\t\u0100" + chr(0x10FFFF), max_size=40), st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_ids_order_like_grams_property(self, text, n_max):
        assert_ids_order_like_grams(text, n_max)


class TestRelativePositions:
    def test_token_midpoints(self):
        corpus = make_corpus({"paa_t": {"00000001": "aa ko bb"}})
        pivot = Pivot("paa", "paa_t", "ko", 1.0)
        ps = PivotSet.scan(corpus, pivot, [pivot])
        rels = positions_by_verse(corpus, ps)
        assert rels == {"00000001": [0.5]}

    def test_repeated_token_counts_twice(self):
        corpus = make_corpus({"paa_t": {"00000001": "ko ko"}})
        pivot = Pivot("paa", "paa_t", "ko", 1.0)
        rels = positions_by_verse(corpus, PivotSet.scan(corpus, pivot, [pivot]))
        assert rels == {"00000001": [0.2, 0.8]}

    def test_matches_token_cache_and_caches_nothing(self):
        corpus = make_corpus(
            {
                "paa_t": {
                    "00000001": "ΑΣ'Α ας, Ας! ασ",
                    "00000002": "İki İKİ iki\tİki",
                    "00000003": "",
                },
                "pbb_t": {"00000001": "Don't DON'T don (t) don t", "00000004": "x"},
            }
        )
        members = [
            Pivot("paa", "paa_t", "ας", 1.0),
            Pivot("paa", "paa_t", "i̇ki", 1.0),
            Pivot("pbb", "pbb_t", "don", 1.0),
            Pivot("pbb", "pbb_t", "t", 1.0),
        ]
        before = corpus_state(corpus)
        ps = PivotSet.scan(corpus, members[0], members)
        assert corpus_state(corpus) == before
        rels = positions_by_verse(corpus, ps)
        assert rels == oracle.token_relative_positions(corpus, ps)
        assert len(rels["00000001"]) == 3 + 4 + 4
        assert len(rels["00000002"]) == 2

    @given(
        st.lists(
            st.text(alphabet=DELIMITERS + "abAB'İΣσςé", max_size=30), min_size=1, max_size=5
        ),
        st.sampled_from(["a", "ab", "σ", "ς", "aς", "i̇", "é"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_token_cache_property(self, texts, surface):
        verses = {f"{i:08d}": t for i, t in enumerate(texts, 1)}
        corpus = make_corpus({"paa_t": verses, "pbb_t": {"00000009": "x"}})
        pivot = Pivot("paa", "paa_t", surface, 1.0)
        ps = PivotSet.scan(corpus, pivot, [pivot])
        assert positions_by_verse(corpus, ps) == oracle.token_relative_positions(
            corpus, ps
        )


@pytest.fixture(scope="module")
def tiny():
    corpus, truth = generate(preset_tiny8())
    return corpus.select(len(corpus.verse_universe)), truth


def particle_pivot_set(corpus, truth, feature: str) -> PivotSet:
    info = truth["languages"]["paa"]
    surface = info["markers"][feature][0]
    pivot = Pivot("paa", info["translation_id"], surface, 1.0)
    return PivotSet.scan(corpus, pivot, [pivot])


class TestMining:
    def test_planted_suffix_ranks_first(self, tiny):
        corpus, truth = tiny
        ps = particle_pivot_set(corpus, truth, "past")
        for iso in ("saa", "sba"):
            info = truth["languages"][iso]
            suffix = info["markers"]["past"][0]
            result = mine_ngrams(corpus, info["translation_id"], ps, **mining())
            grams = result.top_grams(len(suffix))
            assert grams and grams[0] == suffix

    def test_counters_and_flags(self, tiny):
        corpus, truth = tiny
        ps = particle_pivot_set(corpus, truth, "past")
        result = mine_ngrams(
            corpus, truth["languages"]["saa"]["translation_id"], ps, **mining()
        )
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
        # the scan's positions, regrouped by verse and laid out again
        rebuilt = with_positions(corpus, ps, positions_by_verse(corpus, ps))
        assert rebuilt.rows.tobytes() == ps.rows.tobytes()
        assert rebuilt.rel.tobytes() == ps.rel.tobytes()
        got = mine_ngrams(corpus, tid, ps, **mining())
        assert got == mine_ngrams(corpus, tid, rebuilt, **mining())

    def test_no_shared_verses_warns(self, caplog):
        corpus = make_corpus(
            {"paa_t": {"00000001": "aa ko bb"}, "tgt_t": {}}
        )
        pivot = Pivot("paa", "paa_t", "ko", 1.0)
        ps = PivotSet.scan(corpus, pivot, [pivot])
        with caplog.at_level(logging.WARNING):
            result = mine_ngrams(corpus, "tgt_t", ps, **mining())
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
        ps = PivotSet.scan(corpus, pivot, [pivot])
        with caplog.at_level(logging.WARNING):
            result = mine_ngrams(corpus, "tgt_t", ps, **mining())
        assert result.verses_positive == 0
        assert "no pivot coverage" in caplog.text

    def test_validation(self, tiny):
        corpus, truth = tiny
        ps = particle_pivot_set(corpus, truth, "past")
        # n_min, n_max and window are checked by RunConfig (test_cli's
        # TestConfig::test_validation_bounds)
        with pytest.raises(DataError):
            mine_ngrams(corpus, "nope_t", ps, **mining())


def assert_mining_agrees(corpus, tid, ps, relative_positions=None, **kw):
    """The miner and its oracle agree; relative_positions, per verse id,
    stand in for the pivot set's positions on both sides."""
    if relative_positions is not None:
        ps = with_positions(corpus, ps, relative_positions)
    got = mine_ngrams(corpus, tid, ps, **mining(**kw))
    ref = oracle.mine_ngrams(corpus, tid, ps, relative_positions=relative_positions, **kw)
    assert got.by_n == ref.by_n
    assert (got.verses_scored, got.verses_positive, got.overlap_flagged) == (
        ref.verses_scored,
        ref.verses_positive,
        ref.overlap_flagged,
    )
    return got


def random_corpus(rng: random.Random, alphabet: str, n_verses: int, max_len: int):
    """A target translation plus a pivot translation whose pivot word marks
    about half the verses; some target verses are empty or missing."""
    target, pivot = {}, {}
    for i in range(1, n_verses + 1):
        vid = f"{i:08d}"
        roll = rng.random()
        if roll < 0.05:
            target[vid] = ""
        elif roll >= 0.1:
            target[vid] = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
        words = [rng.choice(["ab", "ba", "aa"]) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.5:
            words.insert(rng.randrange(len(words) + 1), "Piv")
        if rng.random() < 0.2:
            words.append("piv")
        pivot[vid] = " ".join(words)
    corpus = make_corpus({"paa_p": pivot, "tgt_t": target})
    p = Pivot("paa", "paa_p", "piv", 1.0)
    return corpus, PivotSet.scan(corpus, p, [p])


MINING_SETTINGS = [
    {},
    {"w": 0},
    {"w": 3, "sigma": 1.0, "n_range": (1, 4)},
    {"n_range": (3, 12), "top": 10_000},
    {"w": 50, "n_range": (1, 2), "top": 1},
    {"w": 10**12, "n_range": (1, 3)},
]


def shuffled_letters_corpus():
    """Every marked verse holds the same letters in another order, so many
    grams share their counts and their chi-square."""
    verses, pivots = {}, {}
    rng = random.Random(3)
    for i in range(1, 41):
        vid = f"{i:08d}"
        letters = list("zyxwvut")
        rng.shuffle(letters)
        if i % 2:
            verses[vid] = "".join(letters) + " " + "q" * 30
            pivots[vid] = "piv y y y y y"
        else:
            verses[vid] = "q" * 30 + " " + "".join(letters)
            pivots[vid] = "y y y y y y"
    corpus = make_corpus({"paa_p": pivots, "tgt_t": verses})
    p = Pivot("paa", "paa_p", "piv", 1.0)
    return corpus, PivotSet.scan(corpus, p, [p])


def random_text(rng: random.Random, alphabet: str, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def marked_corpus(rng: random.Random, texts: list[str]):
    """A target translation of texts, one verse each, and a pivot
    translation whose pivot word marks every other verse."""
    target, pivot = {}, {}
    for i, text in enumerate(texts, 1):
        vid = f"{i:08d}"
        target[vid] = text
        words = ["ab"] * rng.randint(1, 8)
        if i % 2:
            words.insert(rng.randrange(len(words) + 1), "piv")
        pivot[vid] = " ".join(words)
    corpus = make_corpus({"paa_p": pivot, "tgt_t": target})
    p = Pivot("paa", "paa_p", "piv", 1.0)
    return corpus, PivotSet.scan(corpus, p, [p])


class TestOracleAgreement:
    """The array miner equals the Counter oracle in tests/ngrams_oracle.py."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("settings_", MINING_SETTINGS, ids=str)
    def test_random_corpora(self, seed, settings_):
        rng = random.Random(seed)
        alphabet = ["ab ", "abcdeΣς ", "abcdefghijklmnopqrstuvwxyz .,"][seed % 3]
        corpus, ps = random_corpus(rng, alphabet, 60, 40)
        assert_mining_agrees(corpus, "tgt_t", ps, **settings_)

    def test_wide_alphabet_at_n_max_12(self):
        rng = random.Random(11)
        corpus, ps = random_corpus(rng, WIDE_ALPHABET, 300, 60)
        target = verses_of(corpus, "tgt_t")
        assert len(set("".join(target.values()))) > 1500
        got = assert_mining_agrees(corpus, "tgt_t", ps, n_range=(1, 12), top=50)
        assert len(got.by_n[12]) == 50

    def test_texts_shorter_than_n_and_empty_or_missing_verses(self):
        corpus = make_corpus(
            {
                "paa_p": {f"0000000{i}": "piv x" for i in range(1, 7)},
                "tgt_t": {
                    "00000001": "ab",
                    "00000002": "",
                    "00000003": "abcde",
                    "00000004": "a",
                    "00000006": "abcdefghijklmnop",
                },
            }
        )
        p = Pivot("paa", "paa_p", "piv", 1.0)
        ps = PivotSet.scan(corpus, p, [p])
        for w, (n_min, n_max) in ((0, (1, 8)), (2, (3, 20))):
            got = assert_mining_agrees(corpus, "tgt_t", ps, w=w, n_range=(n_min, n_max))
            assert got.verses_scored == 4
            assert set(got.by_n) == set(range(n_min, n_max + 1))
        assert got.by_n[20] == []

    # The miner keeps per-character values clipped to n_max + 1 in the
    # smallest dtype that holds it: one byte to n_max 254 (126 were it
    # signed), two beyond.
    @pytest.mark.parametrize("n_range", [(1, 127), (120, 130), (250, 258)], ids=str)
    def test_n_max_around_the_one_byte_limits(self, n_range):
        rng = random.Random(n_range[1])
        texts = [random_text(rng, "ab c", rng.randint(200, 320)) for _ in range(10)]
        corpus, ps = marked_corpus(rng, texts)
        got = assert_mining_agrees(corpus, "tgt_t", ps, w=4, n_range=n_range)
        assert got.by_n[n_range[1]]

    # the longest verse has 320 characters
    @pytest.mark.parametrize("w", [0, 1, 319, 320, 321, 10**6])
    def test_window_zero_and_wider_than_the_longest_verse(self, w):
        rng = random.Random(w)
        texts = [random_text(rng, "abc ", length) for length in (320, 40, 7, 1, 300, 90)]
        corpus, ps = marked_corpus(rng, texts)
        assert_mining_agrees(corpus, "tgt_t", ps, w=w, n_range=(1, 5), top=30)

    def test_verses_longer_than_32767_characters(self):
        rng = random.Random(8)
        texts = [random_text(rng, "abcd ", length) for length in (40_000, 50, 33_000, 9)]
        corpus, ps = marked_corpus(rng, texts)
        got = assert_mining_agrees(corpus, "tgt_t", ps, w=30, n_range=(1, 4), top=20)
        assert got.verses_positive == 2

    def test_astral_code_points_and_dotted_capital_i(self):
        rng = random.Random(6)
        alphabet = "a i\u0130\u0307\U0001d538\U00010400\U0010ffff"
        texts = [random_text(rng, alphabet, rng.randint(5, 60)) for _ in range(40)]
        corpus, ps = marked_corpus(rng, texts)
        got = assert_mining_agrees(corpus, "tgt_t", ps, w=5, n_range=(1, 4), top=50)
        grams = {c.gram for cands in got.by_n.values() for c in cands}
        assert {"\u0130", "\U0001d538", "\U0010ffff"} <= grams

    def test_top_larger_than_gram_count(self):
        corpus = make_corpus({"paa_p": {"00000001": "piv"}, "tgt_t": {"00000001": "abcabc"}})
        p = Pivot("paa", "paa_p", "piv", 1.0)
        ps = PivotSet.scan(corpus, p, [p])
        got = assert_mining_agrees(corpus, "tgt_t", ps, n_range=(2, 3), top=100)
        assert [c.gram for c in got.by_n[2]] == ["ab", "bc", "ca"]

    def test_planted_ties_break_by_gram(self):
        corpus, ps = shuffled_letters_corpus()
        got = assert_mining_agrees(corpus, "tgt_t", ps, w=3, n_range=(1, 3), top=50)
        scores = [c.score for c in got.by_n[1]]
        assert len(set(scores)) < len(scores)
        for cands in got.by_n.values():
            keys = [(-c.score, c.gram) for c in cands]
            assert keys == sorted(keys)

    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.tuples(
                    st.text(alphabet="ab ␣\\tΣ", max_size=25),
                    st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=3),
                ),
            ),
            min_size=1,
            max_size=10,
        ),
        st.integers(0, 6),
        st.integers(1, 4),
        st.integers(0, 4),
        st.integers(1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_on_generated_verses(self, verses, w, n_min, n_extra, top):
        texts, rels = {}, {}
        for i, verse in enumerate(verses, 1):
            vid = f"{i:08d}"
            if verse is not None:
                texts[vid], found = verse
                if found:
                    rels[vid] = found
        corpus = make_corpus({"tgt_t": texts, "zzz_t": {f"{i:08d}": "x" for i in range(1, 11)}})
        ps = PivotSet.scan(corpus, Pivot("zzz", "zzz_t", "y", 1.0), [])
        assert_mining_agrees(
            corpus, "tgt_t", ps, w=w, n_range=(n_min, n_min + n_extra), top=top,
            sigma=2.0, relative_positions=rels,
        )


class TestScratchMemory:
    """Mining one target holds at most 25 bytes of traced memory per
    character of its joined text (the text itself included)."""

    def test_marking24_targets(self):
        corpus, truth = generate(preset_marking24())
        corpus = corpus.select(len(corpus.verse_universe))
        langs = truth["languages"]
        particle = sorted(
            iso for iso, info in langs.items()
            if info["style"] == "particle" and iso != truth["query"]["iso3"]
        )
        members = [
            Pivot(iso, langs[iso]["translation_id"], langs[iso]["markers"]["past"][0], 1.0)
            for iso in particle[:12]
        ]
        ps = PivotSet.scan(corpus, members[0], members)
        member_tids = {p.translation_id for p in members}
        peaks = {}
        for tid in sorted(set(corpus.translations) - member_tids):
            chars = len(corpus.joined_text(tid))
            tracemalloc.start()
            try:
                mine_ngrams(corpus, tid, ps, **mining())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks[tid] = peak / chars
        assert len(peaks) == 12
        assert max(peaks.values()) <= 25, peaks


class TestExactTopK:
    """Only the grams near the float score of rank top are scored exactly;
    the ranking must not show it."""

    def test_equal_scores_straddle_rank_top(self):
        corpus, ps = shuffled_letters_corpus()
        full = oracle.mine_ngrams(corpus, "tgt_t", ps, w=3, n_range=(1, 2), top=10**6)
        straddled = 0
        for n, cands in full.by_n.items():
            scores = [c.score for c in cands]
            for top in range(1, len(scores)):
                if scores[top - 1] == scores[top] > 0:
                    straddled += 1
                    got = assert_mining_agrees(corpus, "tgt_t", ps, w=3, n_range=(n, n), top=top)
                    assert got.by_n[n] == cands[:top]
        assert straddled >= 10

    @pytest.mark.parametrize("top", [1, 2, 10**6])
    def test_top_one_and_more_than_the_grams(self, tiny, top):
        corpus, truth = tiny
        ps = particle_pivot_set(corpus, truth, "past")
        tid = truth["languages"]["saa"]["translation_id"]
        got = assert_mining_agrees(corpus, tid, ps, n_range=(1, 3), top=top)
        for cands in got.by_n.values():
            assert len(cands) == top if top < 10**6 else 0 < len(cands) < top

    def test_every_score_zero(self):
        # Each window spans its whole verse, so positive and negative
        # counts are in the same proportion and ad - bc = 0 for every gram.
        corpus = make_corpus(
            {
                "paa_p": {f"0000000{i}": "piv" for i in range(1, 5)},
                "tgt_t": {f"0000000{i}": t for i, t in enumerate(["abcab", "bca", "cc", "abab"], 1)},
            }
        )
        p = Pivot("paa", "paa_p", "piv", 1.0)
        ps = PivotSet.scan(corpus, p, [p])
        with mock.patch.object(ngrams_module, "chi2", side_effect=AssertionError):
            for top in (1, 3, 100):
                got = assert_mining_agrees(corpus, "tgt_t", ps, w=100, n_range=(1, 3), top=top)
                assert {c.score for cands in got.by_n.values() for c in cands} == {0.0}
                assert [c.gram for c in got.by_n[1]] == ["a", "b", "c"][:top]

    def test_exact_scores_only_near_rank_top(self, tiny):
        corpus, truth = tiny
        ps = particle_pivot_set(corpus, truth, "past")
        tid = truth["languages"]["saa"]["translation_id"]
        scored = oracle.mine_ngrams(corpus, tid, ps, top=10**6)
        n_scored = sum(len(cands) for cands in scored.by_n.values())
        with mock.patch.object(ngrams_module, "chi2", wraps=ngrams_module.chi2) as exact:
            got = mine_ngrams(corpus, tid, ps, **mining())
        assert got.by_n == {n: cands[:10] for n, cands in scored.by_n.items()}
        assert n_scored > 1000
        assert exact.call_count < n_scored / 20


class TestSerialization:
    def test_escape_round_trip(self):
        gram = "a b\tc"
        assert escape_gram(gram) == "a␣b\\tc"
        assert unescape_gram(escape_gram(gram)) == gram

    def test_backslash_t_and_literal_box_read_back(self, tmp_path):
        grams = ["x\\ty", "a␣b", "\\", "a b\tc"]
        assert [unescape_gram(escape_gram(g)) for g in grams] == grams
        result = MiningResult(
            "t", by_n={4: [NgramCandidate(g, 4, r, 1, 0, 1.0) for r, g in enumerate(grams, 1)]}
        )
        path = write_ngrams_tsv(result, tmp_path / "grams.tsv")
        assert read_ngrams_tsv(path) == {4: grams}

    @given(st.text(alphabet=["\\", "t", GRAM_SPACE_ESCAPE, " ", "\t"], max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_escape_round_trip_property(self, gram):
        cell = escape_gram(gram)
        assert " " not in cell and "\t" not in cell
        assert unescape_gram(cell) == gram

    @given(st.text(alphabet=["a", "t", " ", "\t", "Σ"], max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_cells_unchanged_without_backslash_or_box(self, gram):
        assert escape_gram(gram) == gram.replace(" ", GRAM_SPACE_ESCAPE).replace("\t", "\\t")

    def test_tsv_round_trip(self, tiny, tmp_path):
        corpus, truth = tiny
        ps = particle_pivot_set(corpus, truth, "past")
        result = mine_ngrams(
            corpus, truth["languages"]["saa"]["translation_id"], ps, **mining()
        )
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
