"""IBM-1 aligner with diagonal prior: EM, Viterbi, caching, link counts."""

import logging
import random

import pytest

from helpers import make_corpus
from pivotmine.aligner import (
    AlignerConfig,
    LexTable,
    diagonal_prior,
    link_counts,
    load_lex_table,
    save_lex_table,
    train_alignment,
    train_pair,
    viterbi_align,
)
from pivotmine.errors import DataError

TOY_PAIRS = [
    (["the", "house"], ["la", "maison"]),
    (["the", "flower"], ["la", "fleur"]),
]


class TestConfig:
    def test_defaults_valid(self):
        AlignerConfig().validate()

    def test_bad_values(self):
        with pytest.raises(ValueError):
            AlignerConfig(em_iterations=0).validate()
        with pytest.raises(ValueError):
            AlignerConfig(diagonal_tension=-1).validate()
        with pytest.raises(ValueError):
            AlignerConfig(null_prob=1.0).validate()


class TestDiagonalPrior:
    def test_mass_is_one_minus_null(self):
        cfg = AlignerConfig()
        for src_len, tgt_len, j in [(5, 7, 0), (3, 3, 2), (12, 4, 1)]:
            ws = diagonal_prior(src_len, tgt_len, j, cfg)
            assert sum(ws) == pytest.approx(1.0 - cfg.null_prob, rel=1e-12)
            assert all(w > 0 for w in ws)

    def test_decays_with_distance_from_diagonal(self):
        cfg = AlignerConfig()
        ws = diagonal_prior(9, 9, 0, cfg)
        # target position 0 sits at relative 1/9; source weights fall
        # monotonically as source positions move right
        assert all(ws[i] > ws[i + 1] for i in range(len(ws) - 1))

    def test_zero_tension_is_uniform(self):
        ws = diagonal_prior(4, 6, 3, AlignerConfig(diagonal_tension=0.0))
        assert ws == pytest.approx([ws[0]] * 4)


class TestTrainAlignment:
    def test_toy_english_french(self):
        lex = train_alignment(TOY_PAIRS)
        row = lex.t["the"]
        assert max(row, key=row.get) == "la"
        assert lex.prob("the", "la") > 0.5

    def test_log_likelihood_non_decreasing(self):
        lex = train_alignment(TOY_PAIRS)
        lls = lex.log_likelihoods
        assert len(lls) == AlignerConfig().em_iterations
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_rows_are_distributions(self):
        rng = random.Random(5)
        vocab = [f"w{i}" for i in range(12)]
        pairs = []
        for _ in range(60):
            src = rng.sample(vocab, rng.randint(2, 6))
            tgt = [w.upper() for w in src]
            pairs.append((src, tgt))
        lex = train_alignment(pairs)
        for src, row in lex.t.items():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-6), src

    def test_identity_corpus_concentrates(self):
        rng = random.Random(9)
        vocab = ["a", "b", "c", "d", "e", "f", "g", "h"]
        pairs = []
        for _ in range(30):
            words = rng.sample(vocab, rng.randint(3, 6))
            pairs.append((list(words), list(words)))
        lex = train_alignment(pairs)
        assert lex.prob("a", "a") > 0.99

    def test_empty_pairs_skipped_and_all_empty_fatal(self):
        lex = train_alignment(TOY_PAIRS + [([], ["x"])])
        assert "x" not in lex.t.get("the", {})
        with pytest.raises(DataError):
            train_alignment([([], []), (["a"], [])])


class TestViterbi:
    def test_toy_links(self):
        lex = train_alignment(TOY_PAIRS)
        links = viterbi_align(lex, ["the", "house"], ["la", "maison"])
        assert set(links) == {(0, 0), (1, 1)}

    def test_oov_target_unlinked(self):
        lex = train_alignment(TOY_PAIRS)
        links = viterbi_align(lex, ["the", "house"], ["la", "inconnu"])
        assert links == [(0, 0)]

    def test_empty_sides(self):
        lex = train_alignment(TOY_PAIRS)
        assert viterbi_align(lex, [], ["la"]) == []
        assert viterbi_align(lex, ["the"], []) == []

    def test_null_absorbs_weak_tokens(self):
        lex = LexTable({None: {"f": 0.9}, "e": {"f": 1e-9}})
        assert viterbi_align(lex, ["e"], ["f"]) == []

    def test_must_strictly_beat_null(self):
        # single source position: prior = 1 - p0 = 0.92; with
        # t(e,f) = 0.08 and t(null,f) = 0.92 both weights are exactly
        # 0.92 * 0.08, and the tie goes to the null word
        lex = LexTable({None: {"f": 0.92}, "e": {"f": 0.08}})
        assert viterbi_align(lex, ["e"], ["f"]) == []

    def test_position_tie_goes_leftmost(self):
        cfg = AlignerConfig(diagonal_tension=0.0)
        lex = LexTable({None: {}, "e": {"f": 1.0}})
        links = viterbi_align(lex, ["e", "e", "e"], ["f"], cfg)
        assert links == [(0, 0)]


@pytest.fixture
def pair_corpus():
    rng = random.Random(31)
    vocab = [f"src{i}" for i in range(10)]
    mapping = {w: f"tgt{i}" for i, w in enumerate(vocab)}
    src, tgt = {}, {}
    for i in range(1, 41):
        vid = f"{i:08d}"
        words = rng.sample(vocab, rng.randint(3, 6))
        src[vid] = " ".join(words)
        tgt[vid] = " ".join(mapping[w] for w in words)
    return make_corpus({"aaa_src": src, "bbb_tgt": tgt})


class TestCache:
    def test_save_load_round_trip_exact(self, tmp_path):
        lex = train_alignment(TOY_PAIRS)
        path = tmp_path / "pair.lex.tsv"
        save_lex_table(lex, path, "k1")
        loaded = load_lex_table(path, "k1")
        assert loaded is not None
        assert loaded.t == lex.t

    def test_stale_key_misses(self, tmp_path):
        lex = train_alignment(TOY_PAIRS)
        path = tmp_path / "pair.lex.tsv"
        save_lex_table(lex, path, "k1")
        assert load_lex_table(path, "other") is None
        assert load_lex_table(tmp_path / "absent.tsv", "k1") is None

    def test_corrupt_cache_recomputed_with_warning(self, pair_corpus, tmp_path, caplog):
        cfg = AlignerConfig()
        first = train_pair(pair_corpus, "aaa_src", "bbb_tgt", cfg, tmp_path)
        files = list(tmp_path.glob("*.lex.tsv"))
        assert len(files) == 1
        # null row serializes as an empty source field
        assert any(line.startswith("\t") for line in files[0].read_text().splitlines())
        good = files[0].read_text()
        header = good.splitlines()[0]
        files[0].write_text(header + "\nnot\ta\tvalid float\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            again = train_pair(pair_corpus, "aaa_src", "bbb_tgt", cfg, tmp_path)
        assert "corrupt" in caplog.text
        assert again.t == first.t
        assert files[0].read_text() == good

    def test_cache_hit_equals_fresh_training(self, pair_corpus, tmp_path):
        cfg = AlignerConfig()
        fresh = train_pair(pair_corpus, "aaa_src", "bbb_tgt", cfg, None)
        warm = train_pair(pair_corpus, "aaa_src", "bbb_tgt", cfg, tmp_path)
        hit = train_pair(pair_corpus, "aaa_src", "bbb_tgt", cfg, tmp_path)
        assert warm.t == fresh.t
        assert hit.t == fresh.t


class TestLinkCounts:
    def test_counts_line_up(self, pair_corpus):
        stats = link_counts(pair_corpus, "aaa_src", "src0")
        assert set(stats) == {"bbb_tgt"}
        st = stats["bbb_tgt"]
        assert st.source_word_to_target.most_common(1)[0][0] == "tgt0"
        assert st.source_word_links == sum(st.source_word_to_target.values())
        assert st.total_links == sum(st.target_word_links.values())
        assert st.source_word_links <= st.total_links

    def test_absent_word_warns_empty(self, pair_corpus, caplog):
        with caplog.at_level(logging.WARNING):
            assert link_counts(pair_corpus, "aaa_src", "missing") == {}
        assert "absent" in caplog.text

    def test_no_shared_verses_skipped(self, caplog):
        corpus = make_corpus(
            {
                "aaa_src": {"00000001": "x y"},
                "bbb_tgt": {"00000002": "p q"},
            }
        )
        with caplog.at_level(logging.WARNING):
            stats = link_counts(corpus, "aaa_src", "x")
        assert stats == {}
        assert "no shared selected verses" in caplog.text

    def test_unknown_translation(self, pair_corpus):
        with pytest.raises(DataError):
            link_counts(pair_corpus, "zzz_nope", "x")
