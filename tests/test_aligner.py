"""IBM-1 aligner with diagonal prior: EM, Viterbi, caching, link counts."""

import hashlib
import json
import logging
import math
import random
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aligner_oracle as oracle
import encoding_oracle
import lex_tsv_oracle
import pivotmine.aligner as aligner_module
from helpers import (
    CONFIG,
    assert_encodings_equal,
    encode_surface_pairs,
    lex_rows,
    lex_table,
    make_corpus,
    tokenize_reference,
    verses_of,
)
from pivotmine.aligner import (
    CACHE_FORMAT,
    LexTable,
    PairEncoding,
    PairLinkStats,
    _first_occurrence,
    _pair_cache_key,
    _prior_matrix,
    _viterbi,
    diagonal_prior,
    encode_pairs,
    link_counts,
    load_lex_table,
    save_lex_table,
    texts_digest,
    train_alignment,
    train_pair,
)
from pivotmine.cli import main
from pivotmine.config import RunConfig
from pivotmine.corpus import MultiCorpus, dense_index
from pivotmine.errors import ConfigError, DataError
from pivotmine.pivots import synthetic_query_token
from pivotmine.synth import generate, preset_marking24, preset_tiny8, write_synth

TOY_PAIRS = [
    (["the", "house"], ["la", "maison"]),
    (["the", "flower"], ["la", "fleur"]),
]

# The lex-tsv-2 table of TOY_PAIRS under key "toy", as that format was first
# written: an earlier cache format, which the cache never reads.
TOY_CACHE = Path(__file__).parent / "data" / "toy_pairs.lex.tsv"


def train(pairs, cfg: RunConfig = CONFIG) -> LexTable:
    """train_alignment of (source, target) token surface lists."""
    return train_alignment(encode_surface_pairs(pairs), cfg)


class TestConfig:
    """RunConfig holds the aligner's defaults and checks its bounds when
    it is built."""

    def test_defaults_valid(self):
        # replace builds, and so checks, a new config from the defaults
        assert replace(CONFIG) == CONFIG == RunConfig()

    def test_bad_values(self):
        for field, bad, edge in [
            ("em_iterations", 0, 1),
            ("diagonal_tension", -1.0, 0.0),
            ("null_prob", 1.0, 0.0),
            ("null_prob", -0.1, 0.999),
        ]:
            with pytest.raises(ConfigError, match=field):
                RunConfig(**{field: bad})
            RunConfig(**{field: edge})


class TestDiagonalPrior:
    def test_mass_is_one_minus_null(self):
        cfg = CONFIG
        for src_len, tgt_len, j in [(5, 7, 0), (3, 3, 2), (12, 4, 1)]:
            ws = diagonal_prior(src_len, tgt_len, j, cfg)
            assert sum(ws) == pytest.approx(1.0 - cfg.null_prob, rel=1e-12)
            assert all(w > 0 for w in ws)

    def test_decays_with_distance_from_diagonal(self):
        cfg = CONFIG
        ws = diagonal_prior(9, 9, 0, cfg)
        # target position 0 sits at relative 1/9; source weights fall
        # monotonically as source positions move right
        assert all(ws[i] > ws[i + 1] for i in range(len(ws) - 1))

    def test_zero_tension_is_uniform(self):
        ws = diagonal_prior(4, 6, 3, replace(CONFIG, diagonal_tension=0.0))
        assert ws == pytest.approx([ws[0]] * 4)


class TestPriorMatrix:
    def test_rows_equal_diagonal_prior_exactly(self):
        cfg = CONFIG
        for src_len, tgt_len in [(1, 1), (5, 7), (12, 4)]:
            m = _prior_matrix(src_len, tgt_len, cfg)
            assert m.shape == (tgt_len, src_len + 1)
            for j in range(tgt_len):
                assert m[j, 0] == cfg.null_prob
                assert m[j, 1:].tolist() == diagonal_prior(src_len, tgt_len, j, cfg)

    def test_read_only_and_bounded(self):
        m = _prior_matrix(3, 4, CONFIG)
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
        assert _prior_matrix.cache_info().maxsize is not None


class TestTrainAlignment:
    def test_toy_english_french(self):
        lex = train(TOY_PAIRS)
        row = lex_rows(lex)["the"]
        assert max(row, key=row.get) == "la"
        assert row["la"] > 0.5

    def test_log_likelihood_non_decreasing(self):
        lex = train(TOY_PAIRS)
        lls = lex.log_likelihoods
        assert len(lls) == CONFIG.em_iterations
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_rows_are_distributions(self):
        rng = random.Random(5)
        vocab = [f"w{i}" for i in range(12)]
        pairs = []
        for _ in range(60):
            src = rng.sample(vocab, rng.randint(2, 6))
            tgt = [w.upper() for w in src]
            pairs.append((src, tgt))
        lex = train(pairs)
        for src, row in lex_rows(lex).items():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-6), src

    def test_identity_corpus_concentrates(self):
        rng = random.Random(9)
        vocab = ["a", "b", "c", "d", "e", "f", "g", "h"]
        pairs = []
        for _ in range(30):
            words = rng.sample(vocab, rng.randint(3, 6))
            pairs.append((list(words), list(words)))
        lex = train(pairs)
        assert lex_rows(lex)["a"]["a"] > 0.99

    def test_empty_pairs_skipped_and_all_empty_fatal(self):
        lex = train(TOY_PAIRS + [([], ["x"])])
        assert "x" not in lex_rows(lex).get("the", {})
        with pytest.raises(DataError):
            train([([], []), (["a"], [])])


def viterbi_links(rows: dict, source, target, cfg: RunConfig = CONFIG):
    """Links (source index, target index) of one verse pair under the rows
    {source: {target: p}}, decoded through _viterbi."""
    pairs = [(source, target)]
    (links,) = batched_links(
        lex_table(encode_surface_pairs(pairs), rows), pairs, cfg
    )
    return links


class TestViterbi:
    def test_toy_links(self):
        rows = lex_rows(train(TOY_PAIRS))
        links = viterbi_links(rows, ["the", "house"], ["la", "maison"])
        assert set(links) == {(0, 0), (1, 1)}

    def test_oov_target_unlinked(self):
        rows = lex_rows(train(TOY_PAIRS))
        links = viterbi_links(rows, ["the", "house"], ["la", "inconnu"])
        assert links == [(0, 0)]

    def test_empty_sides(self):
        # a pair with an empty side is not encoded, so it has no links
        rows = lex_rows(train(TOY_PAIRS))
        pairs = [([], ["la"]), (["the"], []), (["the", "house"], ["la", "maison"])]
        enc = encode_surface_pairs(pairs)
        assert [n for _, n, _, _ in enc.blocks] == [1]
        links = batched_links(lex_table(enc, rows), pairs, CONFIG)
        assert links[:2] == [[], []]
        assert set(links[2]) == {(0, 0), (1, 1)}
        with pytest.raises(DataError):
            viterbi_links(rows, [], ["la"])

    def test_null_absorbs_weak_tokens(self):
        rows = {None: {"f": 0.9}, "e": {"f": 1e-9}}
        assert viterbi_links(rows, ["e"], ["f"]) == []

    def test_must_strictly_beat_null(self):
        # single source position: prior = 1 - p0 = 0.92; with
        # t(e,f) = 0.08 and t(null,f) = 0.92 both weights are exactly
        # 0.92 * 0.08, and the tie goes to the null word
        rows = {None: {"f": 0.92}, "e": {"f": 0.08}}
        assert viterbi_links(rows, ["e"], ["f"]) == []

    def test_position_tie_goes_leftmost(self):
        cfg = replace(CONFIG, diagonal_tension=0.0)
        rows = {None: {}, "e": {"f": 1.0}}
        links = viterbi_links(rows, ["e", "e", "e"], ["f"], cfg)
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


def pair_encoding(corpus, src_id: str = "aaa_src", tgt_id: str = "bbb_tgt") -> PairEncoding:
    return encode_pairs(corpus.encode(src_id), corpus.encode(tgt_id))


def cache_key(corpus, src_id: str, tgt_id: str, cfg: RunConfig, merge: tuple = ()) -> str:
    """The pair key that link_counts gives a pair of corpus."""
    digests = texts_digest(corpus, src_id), texts_digest(corpus, tgt_id)
    return _pair_cache_key(src_id, tgt_id, cfg, merge, *digests)


def train_cached(corpus, src_id: str, tgt_id: str, enc: PairEncoding, cfg) -> LexTable:
    """train_pair under the pair's cache key."""
    return train_pair(src_id, tgt_id, enc, cfg, cache_key(corpus, src_id, tgt_id, cfg))


def cache_parts(path: Path) -> tuple[bytes, np.ndarray]:
    """The header line, newline included, and the probabilities of a
    cache file."""
    header, _, body = path.read_bytes().partition(b"\n")
    return header + b"\n", np.frombuffer(body, "<f8")


def cell_identity(enc: PairEncoding) -> bytes:
    """The cell identity of enc as the cache digests it: its words, the
    null word empty, and the int32 source and target ids of its cells."""
    identity = "\n".join(["", *enc.src_words[1:], *enc.tgt_words]).encode()
    return identity + enc.cell_src.astype("<i4").tobytes() + enc.cell_tgt.astype("<i4").tobytes()


# The reason a table whose bytes are not the pair's saved table is corrupt
DIGEST_DIFFERS = "digest differs from the pair's table"


def corrupt_reason(caplog) -> str:
    """The reason of the one corrupt-cache warning logged."""
    (record,) = [r for r in caplog.records if "corrupt alignment cache" in r.getMessage()]
    return str(record.args[1])


class TestCache:
    def test_save_load_round_trip_exact(self, tmp_path):
        lex = train(TOY_PAIRS)
        path = tmp_path / "pair.lex"
        save_lex_table(lex, path, "k1")
        loaded = load_lex_table(path, "k1", lex.enc)
        assert loaded is not None
        assert loaded.enc is lex.enc
        assert loaded.probs.tobytes() == lex.probs.tobytes()
        assert loaded.probs.dtype == np.float64 and loaded.probs.flags.writeable

    def test_round_trip_keeps_log_likelihoods_and_digests_the_table_in_the_header(self, tmp_path):
        lex = train(TOY_PAIRS)
        path = tmp_path / "pair.lex"
        save_lex_table(lex, path, "k1")
        header, probs = cache_parts(path)
        assert lex.enc.src_words == [None, "the", "house", "flower"]
        lls = ",".join(repr(x) for x in lex.log_likelihoods)
        table = cell_identity(lex.enc) + lls.encode() + lex.probs.tobytes()
        assert header.decode() == (
            f"# {CACHE_FORMAT} key=k1 lls={lls} digest={hashlib.sha256(table).hexdigest()}\n"
        )
        assert probs.tobytes() == lex.probs.tobytes()
        loaded = load_lex_table(path, "k1", lex.enc)
        assert loaded.log_likelihoods == lex.log_likelihoods

    def test_earlier_writer_bytes_kept(self, tmp_path):
        # the lex-tsv-2 oracle still writes the fixture and reads the
        # trained table back from it
        lex = train(TOY_PAIRS)
        path = tmp_path / "pair.lex.tsv"
        lex_tsv_oracle.save_lex_table(lex, path, "toy")
        assert path.read_bytes() == TOY_CACHE.read_bytes()
        loaded = lex_tsv_oracle.load_lex_table(TOY_CACHE, "toy", encode_surface_pairs(TOY_PAIRS))
        assert loaded.probs.tobytes() == lex.probs.tobytes()
        assert loaded.log_likelihoods == lex.log_likelihoods

    @pytest.mark.parametrize("damage", ["swapped", "other-target", "other-pair"])
    def test_pair_cache_with_foreign_cells_retrained(
        self, pair_corpus, tmp_path, caplog, damage
    ):
        # key, header and row sums all hold; only the digest gives the
        # damage away
        cfg = replace(CONFIG, cache_dir=tmp_path)
        enc = pair_encoding(pair_corpus)
        first = train_cached(pair_corpus, "aaa_src", "bbb_tgt", enc, cfg)
        (path,) = tmp_path.glob("*.lex")
        good = path.read_bytes()
        if damage == "swapped":
            # two neighbouring cells of one source word trade targets
            k = next(k for k in range(len(enc.cell_src)) if enc.cell_src[k] == enc.cell_src[k + 1])
            cell_tgt = enc.cell_tgt.copy()
            cell_tgt[[k, k + 1]] = cell_tgt[[k + 1, k]]
            foreign = LexTable(replace(enc, cell_tgt=cell_tgt), first.probs, first.log_likelihoods)
        elif damage == "other-target":
            tgt_words = [*enc.tgt_words[:-1], "elsewhere"]
            foreign = LexTable(replace(enc, tgt_words=tgt_words), first.probs, first.log_likelihoods)
        else:
            foreign = train(TOY_PAIRS)
            assert len(foreign.probs) != len(first.probs)
        key = cache_key(pair_corpus, "aaa_src", "bbb_tgt", cfg)
        save_lex_table(foreign, path, key)
        with caplog.at_level(logging.WARNING):
            again = train_cached(pair_corpus, "aaa_src", "bbb_tgt", enc, cfg)
        assert corrupt_reason(caplog) == DIGEST_DIFFERS
        assert again.probs.tobytes() == first.probs.tobytes()
        assert path.read_bytes() == good

    def test_earlier_format_is_a_silent_miss(self, tmp_path, caplog):
        enc = encode_surface_pairs(TOY_PAIRS)
        path = tmp_path / "pair.lex"
        with caplog.at_level(logging.WARNING):
            for earlier in (TOY_CACHE.read_bytes(), b"# lex-tsv-1 key=toy\n\tla\t1.0\n"):
                path.write_bytes(earlier)
                assert load_lex_table(path, "toy", enc) is None
        assert caplog.text == ""

    def test_previous_binary_format_is_a_silent_miss(self, pair_corpus, tmp_path, caplog):
        # a lex-bin-2 table, and a lex-bin-1 header, under the current key
        # are retrained, not corrupt
        cfg = replace(CONFIG, cache_dir=tmp_path)
        enc = pair_encoding(pair_corpus)
        first = train_cached(pair_corpus, "aaa_src", "bbb_tgt", enc, cfg)
        (path,) = tmp_path.glob("*.lex")
        good = path.read_bytes()
        assert CACHE_FORMAT == "lex-bin-3" and good.startswith(b"# lex-bin-3 key=")
        key = cache_key(pair_corpus, "aaa_src", "bbb_tgt", cfg)
        lls = ",".join(repr(x) for x in first.log_likelihoods)
        cells = hashlib.sha256(cell_identity(enc)).hexdigest()
        header = f"# lex-bin-2 key={key} lls={lls} cells={len(first.probs)} digest={cells}\n"
        previous = header.encode() + first.probs.tobytes()
        for earlier in (previous, previous.replace(b"# lex-bin-2 ", b"# lex-bin-1 ", 1)):
            path.write_bytes(earlier)
            with caplog.at_level(logging.WARNING):
                assert load_lex_table(path, key, enc) is None
                again = train_cached(pair_corpus, "aaa_src", "bbb_tgt", enc, cfg)
            assert caplog.text == ""
            assert again.probs.tobytes() == first.probs.tobytes()
            assert path.read_bytes() == good

    @pytest.mark.parametrize(
        "damage", ["cut-mid-number", "cut-at-row", "digits-dropped", "nan", "body-bit-flipped"]
    )
    def test_damaged_cache_recomputed_with_warning(
        self, pair_corpus, tmp_path, caplog, damage
    ):
        cfg = replace(CONFIG, cache_dir=tmp_path)
        enc = pair_encoding(pair_corpus)
        first = train_cached(pair_corpus, "aaa_src", "bbb_tgt", enc, cfg)
        (path,) = tmp_path.glob("*.lex")
        good = path.read_bytes()
        header, probs = cache_parts(path)
        # a probability that changes by more than the row-sum tolerance
        # when cut to two decimals, like 0.012346 read as 0.01
        k = next(k for k, p in enumerate(probs.tolist()) if p - math.floor(p * 100) / 100 > 1e-6)
        changed = probs.copy()
        changed[k] = math.floor(probs[k] * 100) / 100
        nan = probs.copy()
        nan[k] = math.nan
        # a cut between two source rows leaves every row summing to 1, and
        # a flipped low mantissa bit moves its row sum by about 1e-16,
        # well within the row-sum tolerance
        row_start = next(
            m for m in range(len(probs) // 2, len(probs)) if enc.cell_src[m] != enc.cell_src[m - 1]
        )
        at = len(header) + 8 * k
        damaged = {
            "cut-mid-number": good[: at + 4],
            "cut-at-row": good[: len(header) + 8 * row_start],
            "digits-dropped": header + changed.tobytes(),
            "nan": header + nan.tobytes(),
            "body-bit-flipped": good[:at] + bytes([good[at] ^ 0x01]) + good[at + 1 :],
        }[damage]
        path.write_bytes(damaged)
        with caplog.at_level(logging.WARNING):
            key = cache_key(pair_corpus, "aaa_src", "bbb_tgt", cfg)
            assert load_lex_table(path, key, enc) is None
        assert corrupt_reason(caplog) == DIGEST_DIFFERS
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            again = train_cached(pair_corpus, "aaa_src", "bbb_tgt", enc, cfg)
        assert "corrupt" in caplog.text
        assert again.probs.tobytes() == first.probs.tobytes()
        assert again.log_likelihoods == first.log_likelihoods
        assert path.read_bytes() == good

    @pytest.mark.parametrize("probs", ["scaled", "nan"])
    def test_saved_rows_that_do_not_sum_to_one_are_corrupt(self, tmp_path, caplog, probs):
        # the digest vouches for the bytes as saved; the row sums for what
        # they say
        lex = train(TOY_PAIRS)
        bad = lex.probs * 1.5 if probs == "scaled" else np.full_like(lex.probs, math.nan)
        path = tmp_path / "pair.lex"
        save_lex_table(LexTable(lex.enc, bad, lex.log_likelihoods), path, "k1")
        with caplog.at_level(logging.WARNING):
            assert load_lex_table(path, "k1", lex.enc) is None
        assert corrupt_reason(caplog) == "a row does not sum to 1"

    def test_stale_key_misses(self, tmp_path):
        lex = train(TOY_PAIRS)
        path = tmp_path / "pair.lex"
        save_lex_table(lex, path, "k1")
        assert load_lex_table(path, "other", lex.enc) is None
        assert load_lex_table(tmp_path / "absent.lex", "k1", lex.enc) is None

    def test_corrupt_cache_recomputed_with_warning(self, pair_corpus, tmp_path, caplog):
        cfg = replace(CONFIG, cache_dir=tmp_path)
        enc = pair_encoding(pair_corpus)
        first = train_cached(pair_corpus, "aaa_src", "bbb_tgt", enc, cfg)
        (path,) = tmp_path.glob("*.lex")
        good = path.read_bytes()
        header, _ = cache_parts(path)
        body = good[len(header) :]
        cells = b" cells=%d digest=" % (len(body) // 8)
        garbled = {
            "log-likelihood": header.replace(b" lls=", b" lls=x,") + body,
            "cell count": header.replace(b" digest=", cells) + body,
            "field dropped": header.replace(b" digest=", b" ") + body,
            "field added": header.replace(b" digest=", b" more digest=") + body,
            "undecodable": header.replace(b" digest=", b" digest=\xff") + body,
            "unterminated": header[:-1],
            "cut in header": header[: len(header) // 2],
        }
        for name, damaged in garbled.items():
            path.write_bytes(damaged)
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                again = train_cached(pair_corpus, "aaa_src", "bbb_tgt", enc, cfg)
            assert "corrupt" in caplog.text, name
            assert again.probs.tobytes() == first.probs.tobytes(), name
            assert path.read_bytes() == good, name

    def test_cache_hit_equals_fresh_training(self, pair_corpus, tmp_path):
        cfg = replace(CONFIG, cache_dir=tmp_path)
        enc = pair_encoding(pair_corpus)
        fresh = train_cached(pair_corpus, "aaa_src", "bbb_tgt", enc, CONFIG)
        warm = train_cached(pair_corpus, "aaa_src", "bbb_tgt", enc, cfg)
        hit = train_cached(pair_corpus, "aaa_src", "bbb_tgt", enc, cfg)
        assert warm.probs.tobytes() == fresh.probs.tobytes()
        assert hit.probs.tobytes() == fresh.probs.tobytes()
        assert hit.log_likelihoods == fresh.log_likelihoods


class TestLinkCounts:
    def test_counts_line_up(self, pair_corpus):
        stats = link_counts(pair_corpus, "aaa_src", "src0", CONFIG)
        assert set(stats) == {"bbb_tgt"}
        st = stats["bbb_tgt"]
        assert st.source_word_to_target.most_common(1)[0][0] == "tgt0"
        assert st.source_word_links == sum(st.source_word_to_target.values())
        assert st.total_links == sum(st.target_word_links.values())
        assert st.source_word_links <= st.total_links

    def test_absent_word_warns_empty(self, pair_corpus, caplog):
        with caplog.at_level(logging.WARNING):
            stats = link_counts(
                pair_corpus, "aaa_src", "missing", CONFIG
            )
        assert stats == {}
        assert "absent" in caplog.text

    def test_no_shared_verses_skipped(self, caplog):
        corpus = make_corpus(
            {
                "aaa_src": {"00000001": "x y"},
                "bbb_tgt": {"00000002": "p q"},
            }
        )
        with caplog.at_level(logging.WARNING):
            stats = link_counts(corpus, "aaa_src", "x", CONFIG)
        assert stats == {}
        assert "no shared selected verses" in caplog.text

    def test_unknown_translation(self, pair_corpus):
        with pytest.raises(DataError):
            link_counts(pair_corpus, "zzz_nope", "x", CONFIG)

    def test_verse_pairs_keep_verses_with_tokens_on_both_sides(self):
        corpus = make_corpus(
            {
                "aaa_src": {
                    "00000001": "A b",
                    "00000002": "...",
                    "00000003": "c",
                    "00000004": "E",
                    "00000005": "d",
                },
                "bbb_tgt": {"00000001": "x", "00000002": "y", "00000003": "Z z", "00000004": "w"},
            }
        )
        enc = encode_pairs(corpus.encode("aaa_src"), corpus.encode("bbb_tgt"))
        pairs = [(["a", "b"], ["x"]), (["c"], ["z", "z"]), (["e"], ["w"])]
        assert_encodings_equal(enc, encode_surface_pairs(pairs))

    def test_source_lists_built_once_per_call(self, monkeypatch):
        # the source is encoded once per call, each target once
        corpus = random_corpus(3, 4)
        built = []
        real = MultiCorpus.encode

        def spy(self, translation_id):
            built.append(translation_id)
            return real(self, translation_id)

        monkeypatch.setattr(MultiCorpus, "encode", spy)
        stats = link_counts(corpus, "aaa_src", "w0", CONFIG)
        assert len(stats) == 4
        assert built == ["aaa_src", *sorted(stats)]

    def test_target_frequencies_count_linked_words(self, pair_corpus):
        stats = link_counts(
            pair_corpus, "aaa_src", "src0", CONFIG
        )["bbb_tgt"]
        freq = pair_corpus.encode("bbb_tgt").frequencies()
        assert stats.target_frequencies == {w: freq[w] for w in stats.source_word_to_target}


# --- agreement with the dict-of-dicts oracle ----------------------------------

ORACLE_CONFIGS = [
    CONFIG,
    replace(CONFIG, diagonal_tension=0.0),
    replace(CONFIG, null_prob=0.0),
    replace(CONFIG, em_iterations=3, diagonal_tension=0.0, null_prob=0.0),
]


def random_pairs(seed: int, n: int = 80) -> list[tuple[list[str], list[str]]]:
    """Verse pairs over small vocabularies, with repeated words (so that
    source positions tie) and lengths from 1 to 7."""
    rng = random.Random(seed)
    src_vocab = [f"s{i}" for i in range(rng.randint(2, 12))]
    tgt_vocab = [f"t{i}" for i in range(rng.randint(2, 12))]
    return [
        (
            rng.choices(src_vocab, k=rng.randint(1, 7)),
            rng.choices(tgt_vocab, k=rng.randint(1, 7)),
        )
        for _ in range(n)
    ]


def assert_tables_agree(lex: LexTable, ref: oracle.DictTable) -> None:
    """Identical keys, cells within 1e-9, log-likelihoods within 1e-9
    relative: the two EMs sum in different orders."""
    rows = lex_rows(lex)
    assert list(rows) == list(ref.t)
    for src, row in ref.t.items():
        assert list(rows[src]) == list(row)
        for tgt, p in row.items():
            assert abs(rows[src][tgt] - p) <= 1e-9, (src, tgt)
    assert len(lex.log_likelihoods) == len(ref.log_likelihoods)
    for a, b in zip(lex.log_likelihoods, ref.log_likelihoods):
        assert abs(a - b) <= 1e-9 * abs(b)


def batched_links(lex: LexTable, pairs, cfg: RunConfig) -> list[list[tuple[int, int]]]:
    """Per-verse links of the batched decoding oracle, back in input
    order, for a table over the encoding of pairs; the link cells of
    _viterbi must be those of the oracle.

    Blocks hold verse pairs by (src_len, tgt_len) in sorted order, each
    block in input order. A pair with an empty side is not encoded and
    gets no links.
    """
    assert_link_cells_agree(lex, cfg)
    positions = oracle.viterbi_positions(lex, cfg)
    rows = [row for block in positions for row in block.tolist()]
    kept = [k for k, (s, t) in enumerate(pairs) if s and t]
    order = sorted(kept, key=lambda k: (len(pairs[k][0]), len(pairs[k][1])))
    out: list = [[] for _ in pairs]
    for k, row in zip(order, rows):
        out[k] = [(i, j) for j, i in enumerate(row) if i >= 0]
    return out


def assert_link_cells_agree(lex: LexTable, cfg: RunConfig) -> np.ndarray:
    """The link cells of _viterbi, which must equal the decoding oracle's
    in value and order."""
    got = _viterbi(lex, cfg)
    want = oracle.link_cells(lex, cfg)
    assert got.dtype == want.dtype == lex.enc.cells.dtype
    assert got.tolist() == want.tolist()
    return got


def reference_pairs(corpus, src_id: str, tgt_id: str):
    """Surface lists of the selected verses both translations hold with a
    token, from the reference tokenizer."""
    src = verses_of(corpus, src_id)
    tgt = verses_of(corpus, tgt_id)
    pairs = []
    for vid in corpus.selected_verses:
        s = [tok for tok, _, _ in tokenize_reference(src.get(vid, ""))]
        t = [tok for tok, _, _ in tokenize_reference(tgt.get(vid, ""))]
        if s and t:
            pairs.append((s, t))
    return pairs


def oracle_link_stats(ref, pairs, source_word, cfg) -> PairLinkStats:
    stats = PairLinkStats(source_word)
    for src, tgt in pairs:
        for i, j in oracle.viterbi_align(ref.t, src, tgt, cfg):
            stats.target_word_links[tgt[j]] += 1
            stats.total_links += 1
            if src[i] == source_word:
                stats.source_word_to_target[tgt[j]] += 1
                stats.source_word_links += 1
    return stats


class TestOracleAgreement:
    @pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=["default", "tension0", "null0", "both0"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_pairs(self, seed, cfg):
        pairs = random_pairs(seed)
        lex = train(pairs, cfg)
        assert_tables_agree(lex, oracle.train_alignment(pairs, cfg))
        rows = lex_rows(lex)
        expected = [oracle.viterbi_align(rows, s, t, cfg) for s, t in pairs]
        assert batched_links(lex, pairs, cfg) == expected

    def test_ties_and_null_on_a_handmade_table(self):
        # "e" at positions 0 and 2 weighs the same (tension 0) and the
        # leftmost wins; "x" onto "f" and "e" onto "g" tie the null word
        # exactly and stay unlinked
        cfg = replace(CONFIG, diagonal_tension=0.0, null_prob=0.5)
        rows = {None: {"f": 0.1, "g": 0.25}, "e": {"f": 0.5, "g": 0.25}, "x": {"f": 0.1}}
        pairs = [(["e", "x", "e"], ["f", "g"]), (["x"], ["f"]), (["e"], ["g", "f"])]
        lex = lex_table(encode_surface_pairs(pairs), rows)
        expected = [oracle.viterbi_align(rows, s, t, cfg) for s, t in pairs]
        assert expected == [[(0, 0)], [], [(0, 1)]]
        assert batched_links(lex, pairs, cfg) == expected

    @pytest.mark.parametrize(
        "preset, targets",
        [
            (preset_tiny8, None),
            (preset_marking24, ["paa_synth", "saa_synth"]),
        ],
        ids=["tiny8", "marking24"],
    )
    def test_synthetic_corpora(self, preset, targets):
        corpus, truth = generate(preset())
        corpus = corpus.select(len(corpus.verse_universe))
        query = truth["query"]["translation_id"]
        freq = corpus.encode(query).frequencies()
        word = max(freq.items(), key=lambda kv: (kv[1], kv[0]))[0]
        targets = targets or sorted(t for t in corpus.translations if t != query)
        cfg = CONFIG
        stats = link_counts(corpus, query, word, cfg, targets)
        assert sorted(stats) == targets
        for tgt in targets:
            pairs = reference_pairs(corpus, query, tgt)
            enc = encode_pairs(corpus.encode(query), corpus.encode(tgt))
            assert_encodings_equal(enc, encode_surface_pairs(pairs))
            lex = train_alignment(enc, cfg)
            ref = oracle.train_alignment(pairs, cfg)
            assert_tables_agree(lex, ref)
            expected = [oracle.viterbi_align(ref.t, s, t, cfg) for s, t in pairs]
            assert batched_links(lex, pairs, cfg) == expected
            assert stats[tgt] == oracle_link_stats(ref, pairs, word, cfg)


# --- properties -----------------------------------------------------------------

def random_corpus(seed: int, n_targets: int):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(rng.randint(3, 8))]
    tids = ["aaa_src"] + [f"t{k:02d}_tgt" for k in range(n_targets)]
    verses = {tid: {} for tid in tids}
    for v in range(1, rng.randint(3, 25)):
        vid = f"{v:08d}"
        for tid in tids:
            if tid == "aaa_src" or rng.random() < 0.9:
                verses[tid][vid] = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
    # one verse every translation shares, holding the tracked word "w0"
    for tid in tids:
        verses[tid]["00000000"] = "w0" if tid == "aaa_src" else rng.choice(vocab)
    return make_corpus(verses)


class TestProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_cache_hit_equals_fresh_run(self, seed):
        corpus = random_corpus(seed, 1)
        cfg = CONFIG
        enc = pair_encoding(corpus, "aaa_src", "t00_tgt")
        fresh = train_cached(corpus, "aaa_src", "t00_tgt", enc, cfg)
        with tempfile.TemporaryDirectory() as cache:
            cached = replace(cfg, cache_dir=cache)
            train_cached(corpus, "aaa_src", "t00_tgt", enc, cached)
            (path,) = Path(cache).glob("*.lex")
            key = cache_key(corpus, "aaa_src", "t00_tgt", cfg)
            hit = load_lex_table(path, key, enc)
            assert hit is not None
            assert hit.probs.tobytes() == fresh.probs.tobytes()
            assert hit.log_likelihoods == fresh.log_likelihoods
            stats = link_counts(corpus, "aaa_src", "w0", cached)
        assert stats == link_counts(corpus, "aaa_src", "w0", cfg)

    @given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_link_counts_ignore_target_order(self, seed, rnd):
        corpus = random_corpus(seed, 4)
        targets = sorted(t for t in corpus.translations if t != "aaa_src")
        shuffled = list(targets)
        rnd.shuffle(shuffled)
        cfg = CONFIG
        assert link_counts(corpus, "aaa_src", "w0", cfg, shuffled) == link_counts(
            corpus, "aaa_src", "w0", cfg, targets
        )


VERSE_TEXT = st.one_of(st.none(), st.text(alphabet="abcAB .,'Σσς", max_size=16))


def rows_corpus(rows):
    """A corpus of (source, target) verse texts, None being a verse that
    side lacks; a third translation holds every verse, so each one is
    selected."""
    verses = {"aaa_src": {}, "bbb_tgt": {}, "ccc_all": {}}
    for i, (s, t) in enumerate(rows, 1):
        vid = f"{i:08d}"
        verses["ccc_all"][vid] = "x"
        if s is not None:
            verses["aaa_src"][vid] = s
        if t is not None:
            verses["bbb_tgt"][vid] = t
    return make_corpus(verses)


class TestEncodePairs:
    """encode_pairs over two translation encodings against the encoding of
    the same pairs as surface lists."""

    @given(st.lists(st.tuples(VERSE_TEXT, VERSE_TEXT), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_translation_encodings_match_surface_lists(self, rows):
        corpus = rows_corpus(rows)
        pairs = reference_pairs(corpus, "aaa_src", "bbb_tgt")
        src, tgt = corpus.encode("aaa_src"), corpus.encode("bbb_tgt")
        if not pairs:
            with pytest.raises(DataError):
                encode_pairs(src, tgt)
            return
        assert_encodings_equal(encode_pairs(src, tgt), encode_surface_pairs(pairs))

    def test_ids_follow_first_occurrence_within_the_pair(self):
        # "b" and "q" come first in their translations, but in verses the
        # other side lacks, so within the pair they follow "a" and "p"
        corpus = make_corpus(
            {
                "aaa_src": {"00000001": "b", "00000003": "a b", "00000004": "c"},
                "bbb_tgt": {"00000002": "q", "00000003": "p q", "00000004": ""},
            }
        )
        assert corpus.encode("aaa_src").vocab == ["b", "a", "c"]
        assert corpus.encode("bbb_tgt").vocab == ["q", "p"]
        enc = encode_pairs(corpus.encode("aaa_src"), corpus.encode("bbb_tgt"))
        assert enc.src_words == [None, "a", "b"]
        assert enc.tgt_words == ["p", "q"]


def dense_index_by_table(keys, space):
    """dense_index forced onto its presence table: the keys padded with
    copies of one of them until they are at least as many as the space."""
    distinct, index = dense_index(np.concatenate([keys, np.full(space, keys[0])]), space)
    return distinct, index[: keys.size]


def dense_index_by_sorting(keys, space):
    """dense_index forced onto sorting: a key space larger than the keys."""
    return dense_index(keys, keys.size + 1)


def encode_both_ways(src, tgt) -> dict[str, PairEncoding]:
    """encode_pairs as it chooses, and forced onto each cell numbering."""
    out = {"chosen": encode_pairs(src, tgt)}
    for name, forced in (("dense", dense_index_by_table), ("sorted", dense_index_by_sorting)):
        with mock.patch.object(aligner_module, "dense_index", forced):
            out[name] = encode_pairs(src, tgt)
    return out


def encode_recording_keys(src, tgt) -> tuple[PairEncoding, np.dtype]:
    """encode_pairs(src, tgt), and the dtype of the keys it numbers."""
    with mock.patch.object(aligner_module, "dense_index", wraps=dense_index) as spy:
        enc = encode_pairs(src, tgt)
    return enc, spy.call_args.args[0].dtype


class TestEncodePairsOracle:
    """encode_pairs against the np.unique encoder it replaced."""

    @given(st.lists(st.tuples(VERSE_TEXT, VERSE_TEXT), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_both_numberings_match_the_oracle(self, rows):
        corpus = rows_corpus(rows)
        src, tgt = corpus.encode("aaa_src"), corpus.encode("bbb_tgt")
        try:
            want = encoding_oracle.encode_pairs(src, tgt)
        except DataError:
            with pytest.raises(DataError):
                encode_pairs(src, tgt)
            return
        for got in encode_both_ways(src, tgt).values():
            assert_encodings_equal(got, want)

    def test_synthetic_pairs_take_the_dense_table(self):
        corpus, _ = generate(preset_tiny8())
        corpus = corpus.select(len(corpus.verse_universe))
        tids = sorted(corpus.translations)
        src = corpus.encode(tids[0])
        for tid in tids[1:]:
            tgt = corpus.encode(tid)
            want = encoding_oracle.encode_pairs(src, tgt)
            with mock.patch.object(np, "argsort", side_effect=AssertionError):
                assert_encodings_equal(encode_pairs(src, tgt), want)
            for got in encode_both_ways(src, tgt).values():
                assert got.cells.dtype == np.intp
                assert_encodings_equal(got, want)

    def test_keys_are_int32_while_the_key_space_fits(self):
        corpus, _ = generate(preset_tiny8())
        corpus = corpus.select(len(corpus.verse_universe))
        src, tgt = (corpus.encode(tid) for tid in sorted(corpus.translations)[:2])
        got, key_type = encode_recording_keys(src, tgt)
        assert key_type == np.int32
        assert_encodings_equal(got, encoding_oracle.encode_pairs(src, tgt))

    def test_key_space_past_2_31_takes_int64_keys(self):
        # every token distinct, so the key space (46,341 + 1) * 46,341
        # passes 2**31 and int32 keys would wrap
        n = 46_341
        corpus = rows_corpus([(f"s{i}", f"t{i}") for i in range(n)])
        src, tgt = corpus.encode("aaa_src"), corpus.encode("bbb_tgt")
        got, key_type = encode_recording_keys(src, tgt)
        assert (n + 1) * n >= 2**31 and key_type == np.int64
        assert_encodings_equal(got, encoding_oracle.encode_pairs(src, tgt))

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=40), st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_first_occurrence(self, values, extra):
        ids = np.array(values, dtype=np.int32)
        distinct, index = _first_occurrence(ids, max(values) + 1 + extra)
        want_distinct, want_index = encoding_oracle.first_occurrence(ids)
        assert distinct.dtype == want_distinct.dtype and index.dtype == want_index.dtype
        assert distinct.tolist() == want_distinct.tolist()
        assert index.tolist() == want_index.tolist()

    @given(st.lists(st.integers(0, 15), min_size=21, max_size=60), st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_dense_and_sorted_cells_agree(self, values, extra):
        keys = np.array(values, dtype=np.int64)
        space = max(values) + 1 + extra
        with mock.patch.object(np, "argsort", side_effect=AssertionError):
            uniq, cells = dense_index(keys, space)
        want_uniq, want_cells = dense_index_by_sorting(keys, space)
        assert uniq.tolist() == want_uniq.tolist() == sorted(set(values))
        assert cells.dtype == want_cells.dtype == np.int32
        assert cells.tolist() == want_cells.tolist()
        forced_uniq, forced_cells = dense_index_by_table(keys, space + keys.size)
        assert forced_uniq.tolist() == uniq.tolist()
        assert forced_cells.tolist() == cells.tolist()


def assert_int32_cells_agree(enc: PairEncoding, cfg: RunConfig) -> None:
    """EM and decoding give the oracles' bits on enc and on its copy with
    the int32 cell ids that encode_pairs once returned."""
    assert enc.cells.dtype == np.intp
    narrow = replace(enc, cells=enc.cells.astype(np.int32))
    probs, lls = oracle.em(enc, cfg)
    for e in (enc, narrow):
        assert_em_agrees(e, cfg)
        assert_link_cells_agree(LexTable(e, probs, lls), cfg)


def assert_em_agrees(enc: PairEncoding, cfg: RunConfig) -> tuple[np.ndarray, list[float]]:
    """_em of enc, whose probabilities and log-likelihoods must equal the
    EM oracle's bit for bit."""
    probs, lls = aligner_module._em(enc, cfg)
    want_probs, want_lls = oracle.em(enc, cfg)
    assert probs.tobytes() == want_probs.tobytes()
    assert lls == want_lls
    return probs, lls


WORDS = st.lists(st.sampled_from("abcdefg"), min_size=0, max_size=7)


@pytest.fixture(scope="module")
def tiny8_tables(tmp_path_factory) -> list[tuple[LexTable, RunConfig]]:
    """Every table that a tiny8 `pipeline --feature past` trains, with the
    config it was trained under."""
    root = tmp_path_factory.mktemp("tiny8")
    write_synth(preset_tiny8(), root)
    config = RunConfig(
        corpus_dir=str(root / "corpus"),
        queries=str(root / "queries.tsv"),
        allowlist=str(root / "allowlist.txt"),
        gold=str(root / "gold.tsv"),
        families=str(root / "families.tsv"),
        coverage_target=400,
        k=6,
        min_count=5,
    )
    (root / "config.json").write_text(json.dumps(asdict(config)), encoding="utf-8")
    trained = []

    def spy(enc, cfg):
        lex = train_alignment(enc, cfg)
        trained.append((lex, cfg))
        return lex

    argv = ["pipeline", "--config", str(root / "config.json"),
            "--feature", "past", "--out", str(root / "out")]
    with mock.patch.object(aligner_module, "train_alignment", spy):
        assert main(argv) == 0
    assert trained
    return trained


class TestIntpCells:
    """EM and Viterbi on intp cells against the same encoding with int32
    cells, bit for bit."""

    @given(
        st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=20),
        st.sampled_from(ORACLE_CONFIGS),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_pair_corpora(self, pairs, cfg):
        try:
            enc = encode_surface_pairs(pairs)
        except DataError:
            return
        assert_int32_cells_agree(enc, cfg)

    def test_every_pair_of_a_tiny8_pipeline(self, tiny8_tables):
        for lex, cfg in tiny8_tables:
            assert_int32_cells_agree(lex.enc, cfg)


class TestEmOracle:
    """_em against the EM oracle, which gathers under numpy's buffered
    mode="raise", bit for bit; and the cell id range that makes its
    unbuffered gathers safe."""

    @given(
        st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=20),
        st.sampled_from(ORACLE_CONFIGS),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_pair_corpora(self, pairs, cfg):
        try:
            enc = encode_surface_pairs(pairs)
        except DataError:
            return
        assert_em_agrees(enc, cfg)

    def test_every_pair_of_a_tiny8_pipeline(self, tiny8_tables):
        for lex, cfg in tiny8_tables:
            probs, lls = assert_em_agrees(lex.enc, cfg)
            assert probs.tobytes() == lex.probs.tobytes()
            assert lls == lex.log_likelihoods

    @pytest.mark.parametrize("bad", [-1, "n_cells"])
    def test_cell_id_out_of_range_raises(self, bad):
        enc = encode_surface_pairs(TOY_PAIRS)
        n_cells = len(enc.cell_src)
        cells = enc.cells.copy()
        cells[-1] = n_cells if bad == "n_cells" else bad
        with pytest.raises(ValueError, match=rf"cell ids outside \[0, {n_cells}\)"):
            replace(enc, cells=cells)
        with pytest.raises(ValueError, match="cell ids outside"):
            PairEncoding(
                enc.src_words, enc.tgt_words, enc.cell_src, enc.cell_tgt, cells, enc.blocks
            )

    def test_table_of_another_length_raises(self):
        enc = encode_surface_pairs(TOY_PAIRS)
        n_cells = len(enc.cell_src)
        for n in (n_cells - 1, n_cells + 1):
            with pytest.raises(ValueError, match=f"{n} probabilities for {n_cells} cells"):
                LexTable(enc, np.full(n, 0.5), [])


class TestDecodingOracle:
    """_viterbi and _link_stats against the decoding oracle: the same link
    cells, in the same order, and the same PairLinkStats."""

    @staticmethod
    def assert_stats_agree(lex: LexTable, cfg: RunConfig, words) -> None:
        for word in words:
            got = aligner_module._link_stats(lex, cfg, word)
            assert got == oracle.link_stats(lex, cfg, word)

    @given(
        st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=20),
        st.sampled_from(ORACLE_CONFIGS),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_pair_corpora(self, pairs, cfg):
        try:
            enc = encode_surface_pairs(pairs)
        except DataError:
            return
        lex = train_alignment(enc, cfg)
        assert_link_cells_agree(lex, cfg)
        self.assert_stats_agree(lex, cfg, [*enc.src_words[1:], "absent"])

    @pytest.mark.parametrize(
        "rows, want",
        [
            # every source weight zero: the null word's weight is not beaten
            ({None: {"f": 0.5}}, []),
            ({None: {}}, []),
            # both source positions tie the null word exactly: each prior is
            # 0.25 and the null prior 0.5, so every weight is 0.0625
            ({None: {"f": 0.125}, "e": {"f": 0.25}, "x": {"f": 0.25}}, []),
            # the two positions tie above the null word: the leftmost wins
            ({None: {"f": 0.1}, "e": {"f": 0.5}, "x": {"f": 0.5}}, [(0, 0)]),
        ],
        ids=["zero-sources", "all-zero", "tie-with-null", "tie-between-positions"],
    )
    def test_handmade_rows(self, rows, want):
        cfg = replace(CONFIG, diagonal_tension=0.0, null_prob=0.5)
        pairs = [(["e", "x"], ["f"])]
        lex = lex_table(encode_surface_pairs(pairs), rows)
        assert batched_links(lex, pairs, cfg) == [want]
        assert [oracle.viterbi_align(rows, s, t, cfg) for s, t in pairs] == [want]
        self.assert_stats_agree(lex, cfg, ["e", "x", "absent"])

    def test_every_pair_of_a_tiny8_pipeline(self, tiny8_tables):
        for lex, cfg in tiny8_tables:
            assert len(assert_link_cells_agree(lex, cfg))
            self.assert_stats_agree(lex, cfg, [*lex.enc.src_words[1:4], "absent"])


class TestLexTsvOracle:
    """The binary cache round trip against the lex-tsv-2 oracle's: both
    give the trained table's probabilities and log-likelihoods bit for
    bit."""

    @staticmethod
    def assert_round_trips_agree(lex: LexTable) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            binary, text = Path(tmp) / "pair.lex", Path(tmp) / "pair.lex.tsv"
            save_lex_table(lex, binary, "k")
            lex_tsv_oracle.save_lex_table(lex, text, "k")
            loaded = [
                load_lex_table(binary, "k", lex.enc),
                lex_tsv_oracle.load_lex_table(text, "k", lex.enc),
            ]
        for got in loaded:
            assert got.probs.tobytes() == lex.probs.tobytes()
            assert got.log_likelihoods == lex.log_likelihoods

    @given(
        st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=20),
        st.sampled_from(ORACLE_CONFIGS),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_pair_corpora(self, pairs, cfg):
        try:
            enc = encode_surface_pairs(pairs)
        except DataError:
            return
        self.assert_round_trips_agree(train_alignment(enc, cfg))

    def test_every_pair_of_a_tiny8_pipeline(self, tiny8_tables):
        for lex, _ in tiny8_tables:
            self.assert_round_trips_agree(lex)


class TestCacheKey:
    @given(st.lists(st.tuples(VERSE_TEXT, VERSE_TEXT), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_verse_hashing(self, rows):
        corpus = rows_corpus(rows)
        cfg = CONFIG
        for src, tgt in (("aaa_src", "bbb_tgt"), ("bbb_tgt", "ccc_all")):
            assert cache_key(corpus, src, tgt, cfg) == encoding_oracle.pair_cache_key(
                corpus, src, tgt, cfg
            )

    def test_matches_per_verse_hashing_on_a_synthetic_corpus(self):
        corpus, truth = generate(preset_tiny8())
        corpus = corpus.select(len(corpus.verse_universe) - 7)
        query = truth["query"]["translation_id"]
        cfg = replace(CONFIG, em_iterations=3)
        for tgt in sorted(corpus.translations):
            assert cache_key(corpus, query, tgt, cfg) == encoding_oracle.pair_cache_key(
                corpus, query, tgt, cfg
            )

    def test_query_pairs_of_two_features_get_their_own_keys(self, tmp_path):
        corpus, truth = generate(preset_tiny8())
        corpus = corpus.select(len(corpus.verse_universe) - 7)
        query, forms = truth["query"]["translation_id"], truth["query"]["forms"]
        cfg = CONFIG
        tgt = "paa_synth"

        def key_of(call) -> str:
            """The cache key prefix of the one table a link_counts call wrote."""
            cache = tmp_path / str(len(list(tmp_path.iterdir())))
            call(cache)
            (path,) = cache.iterdir()
            return path.name.split(".")[1]

        plain = key_of(
            lambda cache: link_counts(
                corpus, query, forms["past"][0], replace(cfg, cache_dir=cache), [tgt]
            )
        )
        assert plain == encoding_oracle.pair_cache_key(corpus, query, tgt, cfg)[:16]
        merged = {}
        for feature in ("past", "present"):
            word = synthetic_query_token(feature)
            merged[feature] = key_of(lambda cache: link_counts(
                corpus, query, word, replace(cfg, cache_dir=cache), [tgt],
                frozenset(forms[feature])
            ))
            assert merged[feature] == encoding_oracle.pair_cache_key(
                corpus, query, tgt, cfg, [sorted(forms[feature]), word]
            )[:16]
        assert len({plain, *merged.values()}) == 3


def digest_corpus(src: dict[str, str] | None = None, tgt: dict[str, str] | None = None):
    """A source, a target and a third translation over verses 1 to 4,
    with verse 5 in the source alone: the one verse that select(4) leaves
    out. src and tgt replace texts of their side."""
    verses = {
        "aaa_src": {"00000001": "w a", "00000002": "b w", "00000003": "c", "00000004": "w",
                    "00000005": "w d"},
        "bbb_tgt": {"00000001": "x y", "00000002": "z x", "00000003": "u", "00000004": "x"},
        "ccc_all": {f"{i:08d}": "o" for i in range(1, 5)},
    }
    verses["aaa_src"].update(src or {})
    verses["bbb_tgt"].update(tgt or {})
    corpus = make_corpus(verses, select=False).select(4)
    assert corpus.selected_verses == tuple(f"{i:08d}" for i in range(1, 5))
    return corpus


def pairs_trained(corpus, cache, targets=None) -> int:
    """The tables that link_counts of aaa_src's "w" trains against cache."""
    trained = []

    def spy(enc, cfg):
        trained.append(enc)
        return train_alignment(enc, cfg)

    with mock.patch.object(aligner_module, "train_alignment", spy):
        link_counts(corpus, "aaa_src", "w", replace(CONFIG, cache_dir=cache), targets)
    return len(trained)


class TestCacheKeyDigests:
    """The pair key hashes one digest per translation's selected texts."""

    def test_warm_rerun_hits_every_pair(self, tmp_path):
        corpus = random_corpus(5, 4)
        cfg = replace(CONFIG, cache_dir=tmp_path)
        cold = link_counts(corpus, "aaa_src", "w0", cfg)
        files = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert len(files) == len(cold) == 4
        with mock.patch.object(aligner_module, "train_alignment", side_effect=AssertionError):
            assert link_counts(corpus, "aaa_src", "w0", cfg) == cold
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_each_translation_hashed_once_per_call(self, tmp_path, monkeypatch):
        corpus = random_corpus(6, 4)
        hashed = []
        real = aligner_module.texts_digest

        def spy(corpus, translation_id):
            hashed.append(translation_id)
            return real(corpus, translation_id)

        monkeypatch.setattr(aligner_module, "texts_digest", spy)
        stats = link_counts(corpus, "aaa_src", "w0", replace(CONFIG, cache_dir=tmp_path))
        assert hashed == ["aaa_src", *sorted(stats)]
        hashed.clear()
        link_counts(corpus, "aaa_src", "w0", CONFIG)
        assert hashed == []  # no cache, no key

    @pytest.mark.parametrize(
        "edit, misses",
        [
            (dict(src={"00000002": "b w e"}), True),
            (dict(tgt={"00000003": "u v"}), True),
            (dict(src={"00000005": "w d e"}), False),  # not selected
        ],
        ids=["selected-source-verse", "selected-target-verse", "unselected-verse"],
    )
    def test_edit_misses_only_on_selected_verses(self, tmp_path, edit, misses):
        assert pairs_trained(digest_corpus(), tmp_path, ["bbb_tgt"]) == 1
        assert pairs_trained(digest_corpus(), tmp_path, ["bbb_tgt"]) == 0
        assert pairs_trained(digest_corpus(**edit), tmp_path, ["bbb_tgt"]) == int(misses)

    def test_missing_verse_differs_from_empty_verse(self):
        lacking = digest_corpus()
        empty = digest_corpus(tgt={"00000005": ""})
        assert empty.selected_verses == lacking.selected_verses
        # bbb_tgt lacks verse 5 in one and holds it empty in the other,
        # but verse 5 is not selected: the digests agree
        assert texts_digest(lacking, "bbb_tgt") == texts_digest(empty, "bbb_tgt")
        gap = make_corpus({"aaa_src": {"00000001": "w", "00000002": "w"}, "bbb_tgt": {"00000001": "x"}})
        blank = make_corpus(
            {"aaa_src": {"00000001": "w", "00000002": "w"}, "bbb_tgt": {"00000001": "x", "00000002": ""}}
        )
        assert texts_digest(gap, "bbb_tgt") != texts_digest(blank, "bbb_tgt")
        assert texts_digest(gap, "aaa_src") == texts_digest(blank, "aaa_src")
