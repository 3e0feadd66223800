"""Corpus loading, tokenization and encoding, verse selection, query merging."""

import ast
import contextlib
import json
import logging
import os
import random
import re
import string
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import encoding_oracle as oracle
import loader_oracle
import ngrams_oracle
import pivotmine.corpus as corpus_module
import pivotmine.pivots as pivots_module
from helpers import (
    CONFIG, assert_encodings_equal, corpus_state, encode_surfaces, make_corpus, positions_by_verse,
    spy_scans, tokenize_reference, verse_texts, verses_of, view_of, with_translation,
)
from pivotmine.aligner import encode_pairs
from pivotmine.cli import main
from pivotmine.corpus import (
    BLOCK_VERSES,
    DELIMITERS,
    INDEX_SLICE,
    MultiCorpus,
    coverage_counts,
    dense_index,
    find_surfaces,
    is_verse_id,
    load_corpus,
    read_families,
    tokenize_block,
    write_coverage_report,
    write_verses,
)
from pivotmine.errors import DataError
from pivotmine.pivots import (
    Pivot, PivotSet, Query, expand_pivots, find_head_pivot, rank_pivot_candidates,
    scan_pivots, synthetic_query_token,
)
from pivotmine.synth import PRESETS, generate, write_synth


def verse_surfaces(text: str) -> list[str]:
    """The surfaces of one verse's tokens, from tokenize_block."""
    return tokenize_block(*view_of([text]))[0]


class TestTokenize:
    def test_standard_delimiters(self):
        assert verse_surfaces("Met! Manz en pe.") == ["met", "manz", "en", "pe"]

    def test_empty_text(self):
        assert verse_surfaces("") == []
        assert tokenize_block(*view_of([""]))[1].tolist() == [0]

    def test_all_delimiters(self):
        assert verse_surfaces("... !?  ") == []

    @given(st.text(alphabet=DELIMITERS + string.ascii_uppercase + "İßΣé", max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_matches_character_loop_oracle(self, text):
        assert verse_surfaces(text) == [tok for tok, _, _ in tokenize_reference(text)]

    @given(st.text(alphabet="ab .,!", max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_tokens_are_maximal_delimiter_free_runs(self, text):
        delims = set(DELIMITERS)
        got = verse_surfaces(text)
        assert all(tok and not (set(tok) & delims) for tok in got)
        # maximality: one token per run, and together they hold every
        # non-delimiter character
        runs = sum(ch not in delims and (i == 0 or text[i - 1] in delims)
                   for i, ch in enumerate(text))
        assert len(got) == runs
        assert "".join(got) == "".join(ch for ch in text if ch not in delims)


# Texts that tell whole-string from per-token lowercasing and raw from
# lowercased offsets: a final sigma before every delimiter and at the end of
# a verse whose neighbour starts with a cased letter, İ (whose lowercase is
# two code points), and U+00A0 (whitespace inside a token).
TRICKY_TEXTS = [
    *(f"ΑΣ{d}Α" for d in DELIMITERS),
    "ΑΣ",
    "Α ΑΣ",
    "İİ aİb İ.",
    "a\u00a0b \u00a0",
    "",
    "... !?",
    "ΑΣ'Α ασ",
]
BLOCK_ALPHABET = DELIMITERS + string.ascii_uppercase + "abİiΣσςΑé\u00a0"


class TestBlockTokenizer:
    """tokenize_block over several verses against the reference tokenizer,
    one verse at a time."""

    def check(self, texts):
        got, counts = tokenize_block(*view_of(texts))
        expected = [[tok for tok, _, _ in tokenize_reference(text)] for text in texts]
        assert got == [tok for row in expected for tok in row]
        assert counts.tolist() == [len(row) for row in expected]

    def test_tricky_texts(self):
        self.check(TRICKY_TEXTS)
        assert tokenize_block(*view_of(["ΑΣ", "Α"]))[0] == ["ας", "α"]

    def test_no_texts(self):
        self.check([])

    @given(st.lists(st.text(alphabet=BLOCK_ALPHABET, max_size=30), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_tokenizer(self, texts):
        self.check(texts)


def assert_same_encoding(got, want) -> None:
    """got holds the values of the int32 oracle encoding want; its offsets
    are int32 too, and its ids take the smallest dtype that holds their
    largest value."""
    assert got.vocab == want.vocab
    for name in ("ids", "offsets"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.tolist() == b.tolist(), name
    assert got.offsets.dtype == want.offsets.dtype == np.int32
    assert got.ids.dtype == np.min_scalar_type(want.ids.max(initial=0))


def corpus_of(texts):
    """A corpus whose translation aaa_t holds texts, None being a verse it
    lacks; bbb_t holds every verse, so each one is selected."""
    verses = {f"{i:08d}": t for i, t in enumerate(texts, 1) if t is not None}
    other = {f"{i:08d}": "z" for i in range(1, len(texts) + 1)}
    return make_corpus({"aaa_t": verses, "bbb_t": other})


class TestEncodingOracle:
    """MultiCorpus.encode against the per-verse regex loop it replaced."""

    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.text(alphabet=BLOCK_ALPHABET, max_size=30),
                st.sampled_from(TRICKY_TEXTS),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_small_blocks(self, texts, block):
        # blocks of a few verses, so the selection spans several of them
        corpus = corpus_of(texts)
        with mock.patch.object(corpus_module, "BLOCK_VERSES", block):
            got = corpus.encode("aaa_t")
        assert_same_encoding(got, oracle.encode(corpus, "aaa_t"))

    def test_selection_spanning_several_blocks(self):
        rng = random.Random(7)
        words = ["ΑΣ", "Α", "İ", "a\u00a0b", "Σ", "x", "ΑΣΑ", "...", ""]
        texts = []
        for _ in range(3 * BLOCK_VERSES + 17):
            roll = rng.random()
            if roll < 0.05:
                texts.append(None)
            elif roll < 0.1:
                texts.append("" if roll < 0.075 else "!? ,")
            else:
                texts.append("".join(
                    rng.choice(words) + rng.choice(DELIMITERS) for _ in range(rng.randint(1, 9))
                ))
        corpus = corpus_of(texts)
        got = corpus.encode("aaa_t")
        assert_same_encoding(got, oracle.encode(corpus, "aaa_t"))
        assert None in texts and len(got.vocab) > 1

    def test_empty_selection(self):
        corpus = make_corpus({"aaa_t": {"00000001": "x"}}, select=False)
        assert_same_encoding(corpus.encode("aaa_t"), oracle.encode(corpus, "aaa_t"))

    def test_more_than_65535_surfaces_take_uint32_ids(self):
        words = [f"w{i}" for i in range(2**16 + 1)]
        texts = [" ".join(words[lo : lo + 1000]) for lo in range(0, len(words), 1000)]
        corpus = corpus_of(texts)
        got = corpus.encode("aaa_t")
        assert_same_encoding(got, oracle.encode(corpus, "aaa_t"))
        assert got.ids.dtype == np.uint32


class TestVerseIds:
    def test_is_verse_id(self):
        assert is_verse_id("40001001")
        assert not is_verse_id("4001001")
        assert not is_verse_id("40001001x")
        assert not is_verse_id("4000100a")
        assert not is_verse_id("")

    @pytest.mark.parametrize(
        "value",
        [
            "40001001",
            "4000100",  # 7 digits
            "400010011",  # 9 digits
            "\u0664\u0660\u0660\u0660\u0661\u0660\u0660\u0661",  # Arabic-Indic digits
            "\uff14\uff10\uff10\uff10\uff11\uff10\uff10\uff11",  # full-width digits
            "4000100\u0661",  # one Arabic-Indic digit
            "40001001 ",
            " 4000100",
            "",
        ],
    )
    def test_matches_the_eight_digit_pattern(self, value):
        # "$" also matches before a final newline; a line split from its
        # file has none.
        assert is_verse_id(value) == bool(re.match(r"^[0-9]{8}$", value))


class TestVerseFiles:
    def test_written_verses_load_back(self, tmp_path):
        # in the given order, an empty text kept, and a tab, U+2028 and
        # U+0085 inside a text kept as written
        verses = [("00000003", "ein"), ("00000001", ""), ("00000007", "a\tb\u2028c\x85\u00e9")]
        (tmp_path / "corpus").mkdir()
        path = write_verses(tmp_path / "corpus" / "aaa_t.txt", verses)
        assert path.read_text(encoding="utf-8") == (
            "00000003\tein\n00000001\t\n00000007\ta\tb\u2028c\x85\u00e9\n"
        )
        corpus = load_corpus(tmp_path / "corpus", None)
        assert corpus.malformed_lines == 0
        assert list(verses_of(corpus, "aaa_t").items()) == verses


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
        corpus = load_corpus(corpus_dir, CONFIG.families)
        assert sorted(corpus.translations) == ["aaa_first", "bbb_second"]
        assert corpus.translations["aaa_first"].iso3 == "aaa"
        assert corpus.verse_universe == ("00000001", "00000002", "00000003")

    def test_loading_and_selecting_leave_numpy_ma_unimported(self, corpus_dir):
        # importing numpy.ma costs every command that loads a corpus; ids
        # out of order and repeated take load_corpus's other path
        (corpus_dir / "ccc_third.txt").write_text(
            "00000003\tx\n00000001\ty\n00000003\tz\n", encoding="utf-8"
        )
        child = (
            "import sys, numpy\n"
            "if 'numpy.ma' in sys.modules:\n"
            "    print('preloaded')\n"
            "else:\n"
            "    from pivotmine.corpus import load_corpus\n"
            "    load_corpus(sys.argv[1], None).select(2)\n"
            "    print('numpy.ma' in sys.modules)\n"
        )
        # the child imports the package this test imported
        src = str(Path(corpus_module.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", child, str(corpus_dir)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        if proc.stdout.strip() == "preloaded":
            pytest.skip("import numpy loads numpy.ma in this numpy version")
        assert proc.stdout.strip() == "False"

    def test_bad_filename_skipped_with_warning(self, corpus_dir, caplog):
        (corpus_dir / "notaname.txt").write_text("00000001\tx\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(corpus_dir, CONFIG.families)
        assert "notaname.txt" in caplog.text
        assert "notaname" not in corpus.translations

    def test_malformed_lines_counted(self, corpus_dir, caplog):
        (corpus_dir / "ccc_third.txt").write_text(
            "00000001\tfine\nnotanid\tbad\n123\talso bad\n", encoding="utf-8"
        )
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(corpus_dir, CONFIG.families)
        assert corpus.malformed_lines == 2
        assert verses_of(corpus, "ccc_third") == {"00000001": "fine"}

    def test_duplicate_verse_keeps_first(self, corpus_dir, caplog):
        (corpus_dir / "ddd_dup.txt").write_text(
            "00000001\tfirst\n00000001\tsecond\n", encoding="utf-8"
        )
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(corpus_dir, CONFIG.families)
        assert verses_of(corpus, "ddd_dup")["00000001"] == "first"
        assert "duplicate" in caplog.text

    def test_malformed_count_exact_for_ids_seen_before(self, corpus_dir):
        # 00000001 and 00000003 are valid ids of other files; a line that
        # starts with one but has no tab is still malformed
        (corpus_dir / "ccc_third.txt").write_text(
            "00000001\tfine\n00000001\n\n00000003 no tab\nnotanid\tbad\n"
            "0000001\tseven\n00000003\tok\n",
            encoding="utf-8",
        )
        corpus = load_corpus(corpus_dir, CONFIG.families)
        assert corpus.malformed_lines == 4
        assert verses_of(corpus, "ccc_third") == {"00000001": "fine", "00000003": "ok"}
        assert corpus.verse_universe == ("00000001", "00000002", "00000003")

    def test_duplicate_count_exact(self, corpus_dir, caplog):
        (corpus_dir / "ddd_dup.txt").write_text(
            "00000001\ta\n00000001\tb\n00000004\tc\n00000004\td\n00000001\te\n",
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(corpus_dir, CONFIG.families)
        assert "ddd_dup: 3 duplicate verse ids" in caplog.text
        assert verses_of(corpus, "ddd_dup") == {"00000001": "a", "00000004": "c"}
        assert corpus.malformed_lines == 0

    def test_one_string_per_verse_id(self, corpus_dir):
        corpus = load_corpus(corpus_dir, CONFIG.families)
        first, second = (verses_of(corpus, t) for t in ("aaa_first", "bbb_second"))
        shared = next(iter(first))
        assert shared == "00000001"
        assert next(iter(second)) is shared and corpus.verse_universe[0] is shared

    def test_empty_dir_is_data_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises(DataError):
            load_corpus(empty, CONFIG.families)
        with pytest.raises(DataError):
            load_corpus(tmp_path / "missing", CONFIG.families)

    def test_families_metadata(self, corpus_dir, tmp_path):
        meta = tmp_path / "families.tsv"
        meta.write_text("aaa\tfamA\nbbb\tfamB\n", encoding="utf-8")
        corpus = load_corpus(corpus_dir, iso_metadata=meta)
        assert corpus.families == {"aaa": "famA", "bbb": "famB"}

    def test_line_ends_only_at_newlines(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        verses = {
            "00000001": "foo\u2028bar baz",
            "00000002": "next\x85line",
            "00000003": "a\vb\fc\x1cd\x1de\x1ef\u2029g",
        }
        lines = "".join(f"{vid}\t{text}\n" for vid, text in verses.items())
        (d / "aaa_t.txt").write_text(lines + "00000004\tcr\r\n", encoding="utf-8")
        corpus = load_corpus(d, CONFIG.families)
        assert corpus.malformed_lines == 0
        assert verses_of(corpus, "aaa_t") == {**verses, "00000004": "cr"}

    def test_read_families_rejects_malformed(self, tmp_path):
        meta = tmp_path / "families.tsv"
        meta.write_text("aaa famA\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_families(meta)

    def test_read_families_skips_comments(self, tmp_path):
        meta = tmp_path / "families.tsv"
        meta.write_text("# header\naaa\tfamA\n\n", encoding="utf-8")
        assert read_families(meta) == {"aaa": "famA"}

    @pytest.mark.parametrize(
        "text, line", [("aaa\tfamA\tfamB\n", 1), ("# c\naaa\tfamA\nbbb\t\tfamB\n", 3)],
        ids=["first-line", "after-a-comment"],
    )
    def test_read_families_third_cell_is_a_data_error(self, tmp_path, text, line):
        meta = tmp_path / "families.tsv"
        meta.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=f"^{meta} line {line}: expected 2 cells, found 3$"):
            read_families(meta)

    def test_read_families_strips_cells(self, tmp_path):
        meta = tmp_path / "families.tsv"
        meta.write_text("\u00a0aaa \t\x85famA\u2028\n", encoding="utf-8")
        assert read_families(meta) == {"aaa": "famA"}

    def test_read_families_iso3_listed_twice_is_a_data_error(self, tmp_path):
        meta = tmp_path / "families.tsv"
        meta.write_text("# c\naaa\tfamA\nbbb\tfamB\n\n aaa\tfamC\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{meta} lines 2 and 5: iso3 'aaa' listed twice$"):
            read_families(meta)


def load_both(root):
    """load_corpus and the parent loader (loader_oracle) of root: each
    one's result, or the DataError it raised, and its warnings."""
    out = []
    log = logging.getLogger("pivotmine.corpus")
    for load in (lambda: load_corpus(root, None), lambda: loader_oracle.load_corpus(root)):
        records: list[logging.LogRecord] = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = records.append
        log.addHandler(handler)
        try:
            result = load()
        except DataError as exc:
            result = exc
        finally:
            log.removeHandler(handler)
        out.append((result, [r.getMessage() for r in records]))
    return out


def assert_loads_like_the_oracle(root) -> None:
    """load_corpus of root keeps what the parent loader kept: every
    translation's verses in file order, the universe, the malformed count
    and the warnings; or both raise the same DataError."""
    (corpus, logged), (want, want_logged) = load_both(root)
    assert logged == want_logged
    if isinstance(want, DataError):
        assert str(corpus) == str(want)
        return
    translations, universe, malformed = want
    assert corpus.verse_universe == universe
    assert corpus.malformed_lines == malformed
    assert list(corpus.translations) == list(translations)
    for tid, (iso3, verses) in translations.items():
        assert corpus.translations[tid].iso3 == iso3
        assert list(verses_of(corpus, tid).items()) == list(verses.items())


VERSE_IDS = [f"{i:08d}" for i in (1, 2, 3, 40001001, 99999999)]
LOADER_TEXT = st.text(alphabet="ab \tΣé\u2028\x85\x0b\x1c", max_size=8)
LOADER_LINE = st.one_of(
    st.tuples(st.sampled_from(VERSE_IDS), LOADER_TEXT).map("\t".join),
    # malformed or empty: short, long or non-ASCII ids, no tab, nothing
    st.text(alphabet="0123456789\t x\u0664\uff14", max_size=12),
)
LOADER_FILE = st.tuples(
    st.sampled_from(["aaa_one", "bbb_two", "ccc_x", "ccc_y", "Abc_bad", "zz_bad", "ddd_"]),
    st.lists(LOADER_LINE, max_size=8),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
)


def write_corpus_files(root, files) -> None:
    """Write (stem, lines, line ending, final ending) files under root. A
    line given as bytes is written as it is, a str as UTF-8."""
    root.mkdir()
    for stem, lines, ending, final in files:
        lines = [line if isinstance(line, bytes) else line.encode("utf-8") for line in lines]
        ending = ending.encode("utf-8")
        body = ending.join(lines) + (ending if final and lines else b"")
        (root / f"{stem}.txt").write_bytes(body)


class TestLoaderOracle:
    """load_corpus against the parent's dict-per-translation loader."""

    @given(st.lists(LOADER_FILE, max_size=5, unique_by=lambda f: f[0]))
    @settings(max_examples=300, deadline=None)
    def test_random_files(self, tmp_path_factory, files):
        root = tmp_path_factory.mktemp("loader") / "corpus"
        write_corpus_files(root, files)
        assert_loads_like_the_oracle(root)

    @pytest.mark.parametrize(
        "files",
        [
            pytest.param([("aaa_t", ["00000001\ta", "00000001\tb", "00000002\tc", "00000001\td"],
                           "\n", True)], id="duplicates"),
            pytest.param([("aaa_t", ["00000001\ta"], "\n", True), ("bbb_empty", [], "\n", False),
                          ("ccc_blank", ["", ""], "\n", True)], id="empty-files"),
            pytest.param([("aaa_t", ["00000001\ta"], "\n", True), ("notaname", ["00000001\tb"], "\n", True),
                          ("AAA_t", ["00000001\tb"], "\n", True)], id="bad-names"),
            pytest.param([("aaa_cr", ["00000001\ta b", "00000002\tc"], "\r", True),
                          ("bbb_crlf", ["00000002\td", "00000003\te"], "\r\n", False)], id="cr-crlf"),
            pytest.param([("aaa_t", ["00000009\tnine", "00000002\ttwo", "00000005\tfive"],
                           "\n", True)], id="unsorted"),
            pytest.param([("aaa_t", ["00000001\t", "00000002\t\t", "00000003\tx"], "\n", False)],
                         id="empty-texts"),
            pytest.param([("aaa_t", ["0000001\ta", "000000011\tb", "1234567x\tc", "12345678",
                                     "\u0664\u0660\u0660\u0660\u0660\u0660\u0660\u0661\td",
                                     "00000001 \te", "00000001\tok"], "\n", True)], id="malformed"),
            pytest.param([("bbb_none", ["x", "y\tz"], "\n", True)], id="no-usable-file"),
            pytest.param([("aaa_t", ["00000001\ta"], "\n", True),
                          ("bbb_t", ["00000001\tb", b"0000\xff002\tc"], "\r\n", True)],
                         id="invalid-byte-in-malformed-line"),
            pytest.param([("aaa_t", ["00000001\ta", b"00000002\tb\xed\xa0\x80c"], "\n", True)],
                         id="encoded-surrogate"),
            pytest.param([("aaa_t", ["\ufeff00000001\ta", "00000002\tb"], "\r", False)], id="bom"),
        ],
    )
    def test_named_cases(self, tmp_path, files):
        root = tmp_path / "corpus"
        write_corpus_files(root, files)
        assert_loads_like_the_oracle(root)

    def test_synthetic_corpus(self, tmp_path):
        write_synth(PRESETS["tiny8"](), tmp_path)
        assert_loads_like_the_oracle(tmp_path / "corpus")


HOT_PATH_MODULES = ("aligner.py", "cluster.py", "ngrams.py", "pivots.py")


def verse_id_loops(tree: ast.AST) -> list[int]:
    """Lines that loop over a corpus's verse ids: a for, a comprehension
    or a map/filter/zip over .selected_verses or .verse_universe."""
    def over_ids(node) -> bool:
        return any(
            isinstance(n, ast.Attribute) and n.attr in ("selected_verses", "verse_universe")
            for n in ast.walk(node)
        )

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)) and over_ids(node.iter):
            lines.append(node.iter.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("map", "filter", "zip")
            and any(over_ids(arg) for arg in node.args)
        ):
            lines.append(node.lineno)
    return lines


def text_reads(tree: ast.AST) -> list[int]:
    """Lines that read an attribute named text: a translation's string,
    which only corpus.py may read (MultiCorpus.verses is the read path)."""
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "text"]


class TestCompactLayout:
    """A loaded corpus keeps one string per translation, no package module
    reads texts verse id by verse id, and only corpus.py reads that string."""

    def test_a_translation_holds_no_object_per_verse(self, tmp_path):
        write_synth(PRESETS["tiny8"](), tmp_path)
        corpus = load_corpus(tmp_path / "corpus", None).select(300)
        for trans in corpus.translations.values():
            assert set(vars(trans)) == {"translation_id", "iso3", "text", "offsets", "verse_index"}
            for name, value in vars(trans).items():
                assert isinstance(value, str) or (
                    isinstance(value, np.ndarray) and value.dtype.kind in "iu"
                ), name
            assert trans.offsets.dtype == np.int64 and trans.verse_index.dtype == np.int32
            assert len(trans.offsets) == len(trans.verse_index) + 1
        # the verse ids are the universe's strings, one per id
        assert len(set(map(id, corpus.verse_universe))) == len(corpus.verse_universe)

    def test_accessors_cache_nothing(self):
        corpus = make_corpus({"aaa_t": {"00000001": "a b", "00000003": ""}, "bbb_t": {"00000002": "c"}})
        before = corpus_state(corpus)
        text, lengths = corpus.verses("aaa_t")
        assert text == "a b" and lengths.tolist() == [3, -1, 0]
        assert corpus.verses("aaa_t")[1] is not lengths
        corpus.encode("aaa_t")
        assert corpus_state(corpus) == before
        assert set(vars(corpus)) == {f.name for f in fields(MultiCorpus)}

    def test_no_module_reads_texts_by_verse_id(self):
        package = Path(corpus_module.__file__).parent
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
            verses = [
                n.lineno for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and n.attr == "verses"
                # MultiCorpus.verses() is the read path, and the --verses
                # option of project is a path
                and id(n) not in called
                and not (isinstance(n.value, ast.Attribute) and n.value.attr == "args")
            ]
            assert verses == [], f"{path.name} reads a per-verse mapping at lines {verses}"
            if path.name != "corpus.py":
                reads = text_reads(tree)
                assert reads == [], f"{path.name} reads a translation's text at lines {reads}"
            if path.name in HOT_PATH_MODULES:
                loops = verse_id_loops(tree)
                assert loops == [], f"{path.name} loops over verse ids at lines {loops}"

    def test_guard_finds_a_per_verse_lookup(self):
        # the parent's scan, which the guard must reject
        code = """
verses = corpus.translations[tid].verses
lengths = [len(verses[vid]) for vid in corpus.selected_verses]
missing = np.fromiter((vid not in verses for vid in corpus.selected_verses), bool)
has = list(map(verses.__contains__, corpus.selected_verses))
"""
        assert sorted(verse_id_loops(ast.parse(code))) == [3, 4, 5]

    def test_guard_finds_a_text_read(self):
        # a read of a translation's string past the view, which the guard
        # must reject
        code = """
trans = corpus.translations[tid]
verse = trans.text[trans.offsets[0]:trans.offsets[1]]
text, lengths = corpus.verses(tid)
"""
        assert text_reads(ast.parse(code)) == [3]


def assert_view_matches_the_per_verse_texts(corpus, translation_id, index=None) -> None:
    """verses() is the texts of the reference (helpers.verse_texts) end to
    end, and their lengths, -1 for a verse the translation lacks."""
    text, lengths = corpus.verses(translation_id, index)
    want = verse_texts(corpus, translation_id, index)
    assert text == "".join(filter(None, want)), (translation_id, index)
    assert lengths.dtype == np.int64
    assert lengths.tolist() == [-1 if t is None else len(t) for t in want], (translation_id, index)


class TestJoinedText:
    """verses() is the selected verses' texts end to end (one slice per run
    of consecutive file rows) and their lengths, as the per-verse
    reference gives them."""

    # file order is not verse-id order; 00000004 is missing, 00000005 empty
    VERSES = {
        "aaa_t": {
            "00000003": "gamma", "00000001": "alpha", "00000002": "beta",
            "00000005": "", "00000006": "zeta", "00000007": "eta",
        },
        "bbb_t": {f"0000000{i}": f"b{i}" for i in range(1, 8)},
    }

    @pytest.mark.parametrize("selected", [
        range(7), [0, 1, 2], [0, 2, 4, 5], [1, 3, 4, 6], [3], [4], [5, 6], [],
    ])
    def test_matches_the_per_verse_texts(self, selected):
        corpus = make_corpus(self.VERSES)
        picked = replace(corpus, selected_index=np.array(selected, dtype=np.intp))
        for tid in self.VERSES:
            assert_view_matches_the_per_verse_texts(picked, tid)

    def test_random_selections(self):
        rng = random.Random(5)
        for _ in range(50):
            verses = {
                f"{t}_t": {
                    f"{v:08d}": "".join(rng.choices("ab ", k=rng.randrange(4)))
                    for v in rng.sample(range(1, 30), rng.randrange(1, 20))
                }
                for t in ("aaa", "bbb")
            }
            corpus = make_corpus(verses, select=False)
            corpus = corpus.select(rng.randrange(len(corpus.verse_universe) + 1))
            # universe positions in any order, repeated, or -1 (outside it)
            index = np.array(
                [rng.randrange(-1, len(corpus.verse_universe)) for _ in range(rng.randrange(8))],
                dtype=np.intp,
            )
            for tid in verses:
                assert_view_matches_the_per_verse_texts(corpus, tid)
                assert_view_matches_the_per_verse_texts(corpus, tid, index)


class TestSelection:
    def test_identity_when_target_is_universe(self):
        corpus = make_corpus(
            {"aaa_t": {"00000001": "a", "00000002": "b"}}, select=False
        )
        assert list(corpus.select(2).selected_verses) == ["00000001", "00000002"]

    def test_bounds(self, tmp_path, caplog):
        # RunConfig checks coverage_target >= 1 (test_cli's
        # TestConfig::test_validation_bounds), and loading clamps a target
        # past the universe with a warning
        corpus = make_corpus({"aaa_t": {"00000001": "a"}}, select=False)
        assert list(corpus.select(2).selected_verses) == ["00000001"]
        (tmp_path / "corpus").mkdir()
        (tmp_path / "corpus" / "aaa_t.txt").write_text("00000001\ta\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus_dir": str(tmp_path / "corpus"), "coverage_target": 2}))
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING):
            assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
        assert "exceeds universe 1; clamping" in caplog.text
        assert json.loads((out / "corpus_stats.json").read_text())["n_selected"] == 1

    def test_brute_force_oracle_and_monotonicity(self):
        rng = random.Random(404)
        vids = [f"{i:08d}" for i in range(1, 41)]
        verses_by_tid = {}
        for t in range(6):
            tid = f"t{t:02d}_x"[:3] + f"_v{t}"
            keep = {v for v in vids if rng.random() < 0.6}
            verses_by_tid[tid] = {v: "w" for v in keep}
        corpus = make_corpus(verses_by_tid, select=False)
        counts = Counter(v for verses in verses_by_tid.values() for v in verses)
        assert coverage_counts(corpus).tolist() == [counts[v] for v in corpus.verse_universe]
        oracle = sorted(corpus.verse_universe, key=lambda v: (-counts[v], v))
        prev = set()
        for target in range(1, len(corpus.verse_universe) + 1):
            got = list(corpus.select(target).selected_verses)
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
        got = list(corpus.select(5).selected_verses)
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


def merged_surfaces(text: str, forms: set[str]) -> list[str]:
    """The surfaces of one verse's encoding after merging forms into qtok."""
    enc = make_corpus({"aaa_t": {"00000001": text}}).encode("aaa_t")
    enc = enc.merged(frozenset(forms), "qtok")
    return [enc.vocab[i] for i in enc.ids.tolist()]


def head_search(verses: dict[str, str], forms: set[str]):
    """find_head_pivot of a past query of forms in aaa_t, allowlisting bbb."""
    corpus = make_corpus({"aaa_t": verses, "bbb_t": {vid: "z" for vid in verses}})
    query = Query("past", "aaa_t", frozenset(forms))
    return find_head_pivot(corpus, query, {"bbb"}, CONFIG)


class TestQueryMerge:
    def test_merges_each_form(self):
        assert merged_surfaces("he is here", {"is", "are", "am"}) == ["he", "qtok", "here"]

    def test_merges_repeated_tokens(self):
        assert merged_surfaces("will will", {"will"}) == ["qtok", "qtok"]

    def test_merge_keeps_the_first_forms_id_and_rows(self):
        enc = make_corpus({"aaa_t": {"00000001": "a is", "00000002": "are b is"}}).encode("aaa_t")
        merged = enc.merged(frozenset({"is", "are"}), "qtok")
        assert merged.vocab == ["a", "qtok", "are", "b"]
        assert merged.ids.tolist() == [0, 1, 1, 3, 1]
        assert merged.offsets is enc.offsets
        assert enc.merged(frozenset({"absent"}), "qtok") is enc

    def test_collision_with_existing_token_rejected(self):
        with pytest.raises(DataError, match="'qtokpastq' already occurs in aaa_t verse 00000001"):
            head_search({"00000001": "QtokPastQ stays"}, {"stays"})

    def test_zero_matches_warns(self, caplog):
        with caplog.at_level(logging.WARNING), pytest.raises(DataError, match="no allowlisted"):
            head_search({"00000001": "nothing here"}, {"absent"})
        assert "query merge matched no tokens in aaa_t" in caplog.text

    def test_case_folded_matching(self, monkeypatch, caplog):
        assert merged_surfaces("IS is Is", {"is"}) == ["qtok", "qtok", "qtok"]
        seen = []

        def spy(*args):
            seen.append(args[5])
            return {}

        monkeypatch.setattr(pivots_module, "link_counts", spy)
        with caplog.at_level(logging.WARNING), pytest.raises(DataError, match="no allowlisted"):
            head_search({"00000001": "he Is here"}, {"IS", "Are"})
        assert seen == [frozenset({"is", "are"})] * 2
        assert "matched no tokens" not in caplog.text


# "İ".lower() is two code points, so a merged span is shorter than its form.
MERGE_FORMS = frozenset({"a", "İ".lower(), "σ"})
MERGE_TEXT = st.text(alphabet="ab ,İΣ\u00a0", max_size=12)


def assert_merge_matches_the_text_oracle(corpus, query: str, forms, word: str) -> None:
    """For every other translation, encode_pairs of the query's encoding
    with forms merged into word equals encode_pairs of the query text that
    the oracle rewrote."""
    text = with_translation(corpus, query, oracle.apply_query_merge(corpus, query, forms, word))
    merged = corpus.encode(query).merged(forms, word)
    by_text = text.encode(query)
    for tid in sorted(corpus.translations):
        if tid == query:
            continue
        tgt = corpus.encode(tid)
        try:
            want = encode_pairs(by_text, tgt)
        except DataError:
            with pytest.raises(DataError):
                encode_pairs(merged, tgt)
            continue
        assert_encodings_equal(encode_pairs(merged, tgt), want)


class TestQueryMergeBlocks:
    @given(
        st.lists(st.tuples(MERGE_TEXT, st.one_of(st.none(), MERGE_TEXT)), min_size=1, max_size=10),
        st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_verse_merge(self, rows, block):
        query, other = (
            {f"{i:08d}": t for i, t in enumerate(side, 1) if t is not None} for side in zip(*rows)
        )
        corpus = make_corpus({"aaa_t": query, "bbb_t": other})
        with mock.patch.object(corpus_module, "BLOCK_VERSES", block):
            assert_merge_matches_the_text_oracle(corpus, "aaa_t", MERGE_FORMS, "qtok")

    @pytest.mark.parametrize("preset", ["tiny8", "marking24"])
    def test_every_query_pair_of_a_preset(self, preset):
        corpus, truth = generate(PRESETS[preset]())
        corpus = corpus.select(len(corpus.verse_universe) - 7)
        query = truth["query"]
        for feature, forms in query["forms"].items():
            assert_merge_matches_the_text_oracle(
                corpus, query["translation_id"], frozenset(forms), synthetic_query_token(feature)
            )

    def test_collision_names_its_verse_in_a_later_block(self):
        verses = {f"{i:08d}": "x y" for i in range(1, BLOCK_VERSES + 10)}
        verses[f"{BLOCK_VERSES + 5:08d}"] = "x qtokpastq"
        with pytest.raises(DataError, match=f"verse {BLOCK_VERSES + 5:08d}"):
            head_search(verses, {"x"})

    def test_collision_names_the_first_verse_in_file_order(self, tmp_path):
        # file order, not verse-id order, and unselected verses count too
        root = tmp_path / "corpus"
        write_corpus_files(root, [
            ("aaa_t", ["00000009\tx qtokpastq", "00000001\tx y", "00000002\tqtokpastq x"], "\n", True),
            ("bbb_t", ["00000001\tz", "00000002\tz"], "\n", True),
        ])
        corpus = load_corpus(root, None).select(2)
        assert corpus.selected_verses == ("00000001", "00000002")
        query = Query("past", "aaa_t", frozenset({"x"}))
        with pytest.raises(DataError, match="aaa_t verse 00000009$"):
            find_head_pivot(corpus, query, {"bbb"}, CONFIG)


class Aligned(Exception):
    """Raised in place of alignment: find_head_pivot got past its query
    check."""


def query_check_outcome(run, logger) -> tuple:
    """What run, a query check, did: ("raise", its DataError's message) or
    ("pass",), with the warnings it logged through logger."""
    with mock.patch.object(logger, "warning") as warning:
        try:
            run()
            outcome = ("pass",)
        except DataError as exc:
            outcome = ("raise", str(exc))
    return outcome, [c.args[0] % c.args[1:] for c in warning.call_args_list]


# İ lowercases to two code points, the sigmas lowercase by context, a
# form is a prefix of another, and the synthetic token comes in any case;
# drawn pieces run together into longer tokens unless a delimiter parts them
CHECK_PIECES = st.sampled_from(
    ["a", "ab", "İ", "i̇", "Σ", "σ", "ς", "x", "qtokpastq", "QtokPastQ", "qtokpast",
     " ", ".", "'", ",\t", "  "]
)
CHECK_TEXT = st.lists(CHECK_PIECES, max_size=8).map("".join)


class TestQueryCheckOracle:
    """find_head_pivot's query check, which searches the query translation,
    against the oracle merge, which tokenizes it verse by verse: both
    raise naming one verse, warn, or pass."""

    @given(
        st.lists(st.tuples(st.one_of(st.none(), CHECK_TEXT), st.booleans()),
                 min_size=1, max_size=8),
        st.sets(st.sampled_from(["a", "ab", "i̇", "σ", "ς", "x", "A"]), min_size=1),
        st.booleans(),
        st.integers(0, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_merge_oracle(self, rows, forms, reverse, left_out):
        # a verse the other translation lacks has the lower coverage, so
        # the selection leaves such query verses out first
        query = {f"{i:08d}": text for i, (text, _) in enumerate(rows, 1) if text is not None}
        other = {f"{i:08d}": "z" for i, (_, has) in enumerate(rows, 1) if has}
        if reverse:
            query = dict(reversed(query.items()))
        assume(query)
        corpus = make_corpus({"aaa_t": query, "bbb_t": other}, select=False)
        corpus = corpus.select(max(1, len(corpus.verse_universe) - left_out))

        def search():
            with mock.patch.object(pivots_module, "link_counts", side_effect=Aligned), \
                    contextlib.suppress(Aligned):
                find_head_pivot(corpus, Query("past", "aaa_t", frozenset(forms)), {"bbb"}, CONFIG)

        want = query_check_outcome(
            lambda: oracle.apply_query_merge(corpus, "aaa_t", forms, "qtokpastq"), oracle.logger
        )
        assert query_check_outcome(search, pivots_module.logger) == want


SCAN_ALPHABET = DELIMITERS + string.ascii_uppercase + "abİiΣσςé"


def decoded(corpus, translation_id: str) -> list[list[str]]:
    """Per selected verse, the surfaces of the translation's encoding."""
    enc = corpus.encode(translation_id)
    bounds = enc.offsets.tolist()
    return [[enc.vocab[i] for i in enc.ids[lo:hi].tolist()] for lo, hi in zip(bounds, bounds[1:])]


class TestEncoding:
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.text(alphabet=SCAN_ALPHABET + "ßΑ", max_size=40),
                st.sampled_from(["", "ΑΣ'Α", "İßΣé ΑΣ'Α"]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_tokenizer(self, texts):
        corpus = corpus_of(texts)
        expected = [[tok for tok, _, _ in tokenize_reference(t or "")] for t in texts]
        assert decoded(corpus, "aaa_t") == expected
        # the vocabulary lists each surface once, in first-occurrence order
        flat = [tok for row in expected for tok in row]
        assert corpus.encode("aaa_t").vocab == list(dict.fromkeys(flat))

    def test_empty_and_missing_verses_differ(self):
        # both are empty rows of the encoding; the scan tells them apart
        corpus = make_corpus(
            {"aaa_t": {"00000001": "", "00000003": "x"}, "bbb_t": {"00000002": "y"}}
        )
        assert corpus.encode("aaa_t").offsets.tolist() == [0, 0, 0, 1]
        missing = check_scan(corpus, ("aaa_t", "x")).missing[:, 0]
        assert missing.tolist() == [False, True, False]

    def test_encoding_array_dtypes(self):
        enc = make_corpus({"aaa_t": {"00000001": "a b a"}}).encode("aaa_t")
        assert enc.offsets.dtype == np.int32
        assert enc.ids.dtype == np.uint8
        assert enc.ids.tolist() == [0, 1, 0]
        # a merge keeps the ids' dtype
        assert enc.merged(frozenset({"b"}), "q").ids.dtype == np.uint8

    def test_surface_lists(self):
        enc = encode_surfaces([["a", "B"], [], ["B", "c"]])
        assert enc.vocab == ["a", "B", "c"]
        assert enc.ids.tolist() == [0, 1, 1, 2]
        assert enc.offsets.tolist() == [0, 2, 2, 4]


def check_scan(corpus, *lookups: tuple[str, str]) -> PivotSet:
    """The pivot scan of (translation, surface) lookups against the
    reference scans of ngrams_oracle: per column the verses holding the
    surface and the verses the translation lacks, and the relative midpoint
    of every token, by verse and then in lookup and text order."""
    pivots = [Pivot(tid[:3], tid, surface, 1.0) for tid, surface in lookups]
    ps = scan_pivots(corpus, pivots)
    for col, (tid, surface) in enumerate(lookups):
        presence, missing = ngrams_oracle.token_presence_vector(corpus, tid, surface)
        assert ps.missing.dtype == missing.dtype
        assert ps.missing[:, col].tolist() == missing.tolist()
        assert ps.matrix[:, col].tolist() == presence.tolist()
    assert ps.rows.tolist() == sorted(ps.rows.tolist())
    assert positions_by_verse(corpus, ps) == ngrams_oracle.token_relative_positions(corpus, ps)
    return ps


class TestSurfaceSpans:
    """Surfaces' tokens, found by the pivot scan, against the reference
    tokenizer."""

    def test_tokens_lowercased_one_at_a_time(self):
        # Lowercasing "ΑΣ'Α" as a whole gives "ασ'α"; the token ΑΣ is "ας".
        corpus = make_corpus({"ell_t": {"00000001": "ΑΣ'Α ασ", "00000002": "ΑΣΑ"}})
        ps = check_scan(corpus, ("ell_t", "ας"))
        assert (ps.rows.tolist(), ps.rel.tolist()) == ([0], [1 / 7])
        ps = check_scan(corpus, ("ell_t", "ασ"))
        assert (ps.rows.tolist(), ps.rel.tolist()) == ([0], [6 / 7])
        assert check_scan(corpus, ("ell_t", "absent")).rows.tolist() == []

    def test_missing_verse_is_none(self):
        corpus = make_corpus(
            {"aaa_t": {"00000001": "x", "00000003": ""}, "bbb_t": {"00000002": "y"}}
        )
        ps = check_scan(corpus, ("aaa_t", "x"))
        assert (ps.rows.tolist(), ps.rel.tolist()) == ([0], [0.5])
        assert ps.missing[:, 0].tolist() == [False, True, False]

    @given(
        st.lists(st.text(alphabet=SCAN_ALPHABET, max_size=40), min_size=1, max_size=4),
        st.sampled_from(["a", "b", "ab", "i̇", "σ", "ς", "aς", "é"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_cached_tokens(self, texts, surface):
        # aaa_t lacks verse 00000009, the one verse of bbb_t
        verses = {f"{i:08d}": t for i, t in enumerate(texts, 1)}
        corpus = make_corpus({"aaa_t": verses, "bbb_t": {"00000009": "z"}})
        with mock.patch.object(corpus_module, "BLOCK_VERSES", 2):
            check_scan(corpus, ("aaa_t", surface))


class TestPivotScan:
    """One pass per translation finds every surface asked of it."""

    @pytest.fixture
    def passes(self, monkeypatch):
        return spy_scans(monkeypatch)

    def test_surfaces_of_one_translation_in_one_pass(self, passes):
        corpus = make_corpus(
            {
                "aaa_t": {"00000001": "ti ko ti", "00000002": "ko Ko", "00000003": "x"},
                "bbb_t": {"00000001": "ko ti", "00000003": "ti"},
            }
        )
        lookups = [("aaa_t", "ti"), ("bbb_t", "ti"), ("aaa_t", "ko"), ("bbb_t", "ko")]
        ps = check_scan(corpus, *lookups)
        assert [pass_[:2] for pass_ in passes] == [("aaa_t", ["ti", "ko"]), ("bbb_t", ["ti", "ko"])]
        # by verse, then lookup order, then text order
        assert ps.rows.tolist() == [0, 0, 0, 0, 0, 1, 1, 2]
        assert ps.rel.tolist() == [1 / 8, 7 / 8, 4 / 5, 4 / 8, 1 / 5, 1 / 5, 4 / 5, 0.5]
        assert ps.matrix.tolist() == [[1, 1, 1, 1], [0, 0, 1, 0], [0, 1, 0, 0]]

    def test_same_pivot_twice_fills_two_columns(self, passes):
        corpus = make_corpus({"aaa_t": {"00000001": "ti ko ti", "00000002": "ko"}})
        ps = check_scan(corpus, ("aaa_t", "ti"), ("aaa_t", "ko"), ("aaa_t", "ti"))
        assert [pass_[:2] for pass_ in passes] == [("aaa_t", ["ti", "ko"])]
        assert ps.matrix.tolist() == [[1, 1, 1], [0, 1, 0]]
        assert ps.rows.tolist() == [0] * 5 + [1]
        assert ps.rel.tolist() == [1 / 8, 7 / 8, 0.5, 1 / 8, 7 / 8, 0.5]

    def test_member_lacking_verses(self, passes):
        corpus = make_corpus(
            {
                "aaa_t": {"00000001": "ti ko", "00000003": "ko ti"},
                "bbb_t": {"00000002": "ti", "00000004": "ko"},
            }
        )
        ps = check_scan(corpus, ("bbb_t", "ko"), ("aaa_t", "ti"), ("bbb_t", "ti"))
        assert [tid for tid, *_ in passes] == ["bbb_t", "aaa_t"]
        assert ps.missing.tolist() == [
            [True, False, True], [False, True, False], [True, False, True], [False, True, False]
        ]
        assert ps.rows.tolist() == [0, 1, 2, 3]

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.text(alphabet=SCAN_ALPHABET, max_size=30)),
                st.one_of(st.none(), st.text(alphabet=SCAN_ALPHABET, max_size=30)),
            ),
            min_size=1,
            max_size=5,
        ),
        st.lists(
            st.tuples(
                st.sampled_from(["aaa_t", "bbb_t"]),
                st.sampled_from(["a", "b", "ab", "i̇", "σ", "ς", "aς", "é"]),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_scans(self, pairs, lookups):
        # a None text is a verse the translation lacks; ccc_t holds every
        # verse, so each is selected
        texts = {"aaa_t": {}, "bbb_t": {}, "ccc_t": {}}
        for i, pair in enumerate(pairs, 1):
            vid = f"{i:08d}"
            texts["ccc_t"][vid] = "z"
            for tid, text in zip(("aaa_t", "bbb_t"), pair):
                if text is not None:
                    texts[tid][vid] = text
        corpus = make_corpus(texts)
        with mock.patch.object(corpus_module, "BLOCK_VERSES", 2):
            check_scan(corpus, *lookups)


def scan_translation(corpus, translation_id: str, surfaces: list[str]):
    """What scan_pivots reads of one translation: find_surfaces over its
    view of the selected verses (rows, surface index and relative
    midpoints), and the rows it lacks."""
    text, lengths = corpus.verses(translation_id)
    return (*find_surfaces(text, lengths, surfaces), lengths < 0)


def assert_same_scan(corpus, translation_id: str, surfaces: list[str]) -> None:
    """The pivot scan of surfaces in a translation equals the tokenizing
    oracle's bit for bit: rows, surface index, relative midpoints and the
    missing mask, with their dtypes."""
    got = scan_translation(corpus, translation_id, surfaces)
    want = oracle.scan_translation(corpus, translation_id, surfaces)
    for name, a, b in zip(("rows", "surface", "rel", "missing"), got, want):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


class TestScanOracle:
    """The pivot scan searches the translation's text; the tokenizing scan
    it replaced is its oracle."""

    @given(
        st.lists(
            st.one_of(st.none(), st.text(alphabet=SCAN_ALPHABET, max_size=30)),
            min_size=1,
            max_size=10,
        ),
        st.lists(
            st.sampled_from(
                ["a", "b", "ab", "i̇", "σ", "ς", "aς", "é", "absent", "", "a b", "A", "a."]
            ),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_texts(self, texts, surfaces, block):
        corpus = corpus_of(texts)
        with mock.patch.object(corpus_module, "BLOCK_VERSES", block):
            assert_same_scan(corpus, "aaa_t", surfaces)

    @pytest.mark.parametrize("surfaces", [[""], ["a b"], ["A"], ["", "a", "a b", "A", "b"]])
    def test_surfaces_no_token_has(self, surfaces):
        # an empty surface, one holding a delimiter and an upper-case one
        # match nothing, while the other surfaces keep their indices
        corpus = corpus_of(["a b A", "a  b", None, "A.a", ""])
        assert_same_scan(corpus, "aaa_t", surfaces)
        rows, which, _, _ = scan_translation(corpus, "aaa_t", surfaces)
        if "a" not in surfaces:
            assert rows.tolist() == []
        else:
            assert set(which.tolist()) == {surfaces.index("a"), surfaces.index("b")}

    def test_adjacent_equal_tokens(self):
        corpus = corpus_of(["a a", "a a a", "aa a", "a\ta"])
        assert_same_scan(corpus, "aaa_t", ["a"])
        rows, _, rel, _ = scan_translation(corpus, "aaa_t", ["a"])
        assert rows.tolist() == [0, 0, 1, 1, 1, 2, 3, 3]
        assert rel.tolist()[:2] == [1 / 6, 5 / 6]

    def test_verse_past_32767_characters(self):
        corpus = corpus_of(["a " * 16400 + "İ b", "b a"])
        assert_same_scan(corpus, "aaa_t", ["b", "a"])

    def test_lowercasing_lengthens_the_text_before_a_hit(self):
        # İ lowercases to two characters, i and a combining dot above, yet
        # each hit keeps the offsets of its token in the original spelling
        corpus = corpus_of(["İ a", "İİ x", "b İa a", "İ"])
        assert_same_scan(corpus, "aaa_t", ["a", "i̇a"])
        rows, which, rel, _ = scan_translation(corpus, "aaa_t", ["a", "i̇a"])
        assert rows.tolist() == [0, 2, 2]
        assert which.tolist() == [0, 1, 0]
        assert rel.tolist() == [5 / 6, 6 / 12, 11 / 12]

    def test_pivot_sets_of_tiny8(self):
        # seven verses left out, so members lack some selected verses
        corpus, truth = generate(PRESETS["tiny8"]())
        corpus = corpus.select(len(corpus.verse_universe) - 7).keeping_encodings()
        query = truth["query"]
        scanned = 0
        for feature, forms in query["forms"].items():
            q = Query(feature, query["translation_id"], frozenset(forms))
            allow = {lang for lang, info in truth["languages"].items() if info["style"] == "particle"}
            cfg = replace(CONFIG, min_count=5)
            head = find_head_pivot(corpus, q, allow, cfg)
            ranking = rank_pivot_candidates(corpus, head, cfg)
            members = expand_pivots(corpus, feature, head, 8, ranking).members
            by_translation: dict[str, list[str]] = {}
            for p in members:
                by_translation.setdefault(p.translation_id, []).append(p.surface)
            for tid, surfaces in by_translation.items():
                assert_same_scan(corpus, tid, surfaces)
                scanned += 1
        assert scanned >= 12


class TestCorpusMethods:
    def test_token_frequencies_selected_only(self):
        corpus = make_corpus(
            {"aaa_t": {"00000001": "a b a", "00000002": "c"}}, select=False
        )
        assert corpus.select(1).encode("aaa_t").frequencies() == {"a": 2, "b": 1}
        full = corpus.select(2).encode("aaa_t").frequencies()
        assert full == {"a": 2, "b": 1, "c": 1}

    def test_languages(self):
        corpus = make_corpus(
            {
                "aaa_one": {"00000001": "x"},
                "aaa_two": {"00000001": "y"},
                "bbb_one": {"00000001": "z"},
            },
            select=False,
        )
        assert corpus.languages() == ["aaa", "bbb"]

    def test_encoding_store(self):
        corpus = make_corpus({"aaa_t": {"00000001": "a b"}, "bbb_t": {"00000001": "c"}})
        kept = corpus.keeping_encodings()
        assert kept.encode("aaa_t") is kept.encode("aaa_t")
        assert list(kept.encodings) == ["aaa_t"]
        # the corpus it was made from keeps no store and encodes anew
        assert corpus.encodings is None
        assert corpus.encode("aaa_t") is not corpus.encode("aaa_t")
        # a new selection has other rows, so it starts without a store
        assert kept.select(1).encodings is None

    def test_marking24_store_holds_one_byte_per_token(self):
        corpus, _ = generate(PRESETS["marking24"]())
        kept = corpus.select(len(corpus.verse_universe)).keeping_encodings()
        for tid in kept.translations:
            kept.encode(tid)
        tokens = sum(enc.ids.size for enc in kept.encodings.values())
        held = sum(enc.ids.nbytes for enc in kept.encodings.values())
        assert tokens > 500_000 and held == tokens

    def test_encode_reads_the_current_translation(self):
        corpus = make_corpus({"aaa_t": {"00000001": "a b"}, "bbb_t": {"00000001": "c d"}})
        copy = with_translation(corpus, "aaa_t", {"00000001": "x y"})
        assert copy.encode("aaa_t").vocab == ["x", "y"]
        assert corpus.encode("aaa_t").vocab == ["a", "b"]

    @pytest.mark.parametrize("method", ["verses", "encode"])
    def test_unknown_translation_is_a_data_error(self, method):
        corpus = make_corpus({"aaa_t": {"00000001": "a b"}}).keeping_encodings()
        with pytest.raises(DataError, match="^unknown translation 'zzz_t'$"):
            getattr(corpus, method)("zzz_t")


class TestDenseIndex:
    """Both paths of dense_index number keys as np.unique does."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
    @pytest.mark.parametrize("seed", range(4))
    def test_table_and_sorting_agree_on_random_keys(self, seed, dtype):
        rng = np.random.default_rng(seed)
        space = int(rng.integers(1, 5000))
        # more keys than the space, so the table is read, and in a third,
        # partial slice
        count = 2 * INDEX_SLICE + int(rng.integers(1, INDEX_SLICE))
        keys = rng.integers(0, space, count, dtype=dtype)
        keys[:2] = 0, space - 1
        want, want_index = np.unique(keys, return_inverse=True)
        for path_space in (space, keys.size + 1):  # the table, then sorting
            distinct, index = dense_index(keys, path_space)
            assert index.dtype == np.int32
            assert distinct.tolist() == want.tolist()
            assert index.tolist() == want_index.tolist()
