"""Verse-aligned multiparallel corpus: loading, selection, tokenization.

A corpus is a directory of per-translation text files named
``{iso3}_{name}.txt`` whose lines are ``VerseId<TAB>text``. Verse ids are
8-digit strings and act as the alignment key across translations: the same
id denotes the same content everywhere, which is what later stages rely on.
"""

from __future__ import annotations

import logging
import re
from collections import Counter, defaultdict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .textio import read_lines, write_lines

logger = logging.getLogger(__name__)

FILENAME_RE = re.compile(r"^(?P<iso3>[a-z]{3})_(?P<name>.+)\.txt$")

# Whitespace plus the punctuation stripped around tokens.
DELIMITERS = " \t\r\n\f\v.,;:!?()[]\"'"
_TO_SPACE = str.maketrans(DELIMITERS, " " * len(DELIMITERS))
# Verses tokenized in one pass: enough to spread the per-pass array work,
# few enough to keep the joined text small.
BLOCK_VERSES = 256


def is_verse_id(value: str) -> bool:
    """Whether value is eight ASCII digits."""
    return len(value) == 8 and value.isascii() and value.isdigit()


def tokenize_block(
    texts: Sequence[str],
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """The tokens of several verses: maximal runs of non-delimiter characters.

    Returns the lowercased surfaces of every token in order, the int32
    start and end offsets of each in its own verse (so text[start:end]
    recovers the original spelling), and the int32 token count of each
    verse.

    The verses are joined with spaces and every delimiter is mapped to a
    space, so a token is a maximal run of non-spaces in that string; the
    offsets come from its code points. The surfaces come from lowercasing
    the whole string and splitting it at spaces. That equals lowercasing
    each token on its own: the one context-dependent rule of str.lower,
    the final sigma, only looks past case-ignorable characters, and the
    space that bounds every token is neither cased nor case-ignorable.
    """
    spaced = " ".join(texts).translate(_TO_SPACE)
    code = np.frombuffer(spaced.encode("utf-32-le", "surrogatepass"), "<u4")
    space = np.ones(len(code) + 2, dtype=bool)
    np.equal(code, ord(" "), out=space[1:-1])
    edge = np.diff(space.view(np.int8))
    start = np.flatnonzero(edge == -1)
    end = np.flatnonzero(edge == 1)
    text_len = np.fromiter(map(len, texts), np.int64, len(texts))
    text_start = np.cumsum(text_len + 1) - text_len - 1
    verse = np.searchsorted(text_start, start, side="right") - 1
    shift = text_start[verse]
    return (
        list(filter(None, spaced.lower().split(" "))),
        (start - shift).astype(np.int32),
        (end - shift).astype(np.int32),
        np.bincount(verse, minlength=len(texts)).astype(np.int32),
    )


def tokenize_verse(text: str) -> tuple[list[str], list[int], list[int]]:
    """tokenize_block of one verse: its surfaces, starts and ends."""
    surfaces, starts, ends, _ = tokenize_block([text])
    return surfaces, starts.tolist(), ends.tolist()


def tokenize_blocks(texts: Sequence[str]) -> Iterator[tuple[int, tuple]]:
    """tokenize_block over texts, BLOCK_VERSES at a time: yields the index
    of each block's first text and the block's tokens."""
    for lo in range(0, len(texts), BLOCK_VERSES):
        yield lo, tokenize_block(texts[lo : lo + BLOCK_VERSES])


@dataclass(frozen=True, eq=False)
class TranslationEncoding:
    """The tokens of one translation over a run of verses, as int32 arrays:
    what alignment and the pivot scan read of them.

    Row r holds the tokens ids[offsets[r]:offsets[r + 1]]; an id indexes
    vocab, which lists the surfaces in first-occurrence order. A verse the
    translation lacks is an empty row. span_sums holds each token's start
    plus end offset in its verse (twice its character midpoint), from which
    the pivot scan takes the token's relative position.
    """

    vocab: list[str]
    ids: np.ndarray
    offsets: np.ndarray
    span_sums: np.ndarray

    def frequencies(self) -> dict[str, int]:
        """Token count of every surface."""
        counts = np.bincount(self.ids, minlength=len(self.vocab))
        return dict(zip(self.vocab, counts.tolist()))

    def merged(self, forms: frozenset[str], word: str) -> "TranslationEncoding":
        """This encoding with the tokens of every surface in forms under
        one id, the first such, which is renamed word. The other forms'
        entries stay in vocab with no token. word must not be a surface
        of this encoding."""
        matched = [i for i, surface in enumerate(self.vocab) if surface in forms]
        if not matched:
            return self
        remap = np.arange(len(self.vocab), dtype=np.int32)
        remap[matched] = matched[0]
        vocab = list(self.vocab)
        vocab[matched[0]] = word
        return TranslationEncoding(vocab, remap[self.ids], self.offsets, self.span_sums)


def _vocabulary() -> defaultdict[str, int]:
    """A map from surface to id that gives a new surface the next id when
    it is first looked up, so ids follow first occurrence."""
    index: defaultdict[str, int] = defaultdict()
    index.default_factory = index.__len__
    return index


def dense_index(keys: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of keys, which lie in [0, space), and the
    int32 index of each key among them: read from a presence table over
    the space when it is no larger than the keys, else by sorting them.
    Mining keeps this index int32, and aligner.encode_pairs widens only its
    own: widening it for every caller raised peak RSS."""
    if space <= keys.size:
        present = np.zeros(space, dtype=bool)
        present[keys] = True
        index = np.cumsum(present, dtype=np.int32) - 1
        return np.flatnonzero(present), index[keys]
    distinct, index = np.unique(keys, return_inverse=True)
    return distinct, index.astype(np.int32).ravel()


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    """The int32 arrays of parts end to end."""
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int32)


@dataclass(frozen=True)
class Translation:
    """One translation: an id, its language code, and verse texts.

    verses maps VerseId to raw text in file order. Treated as immutable.
    """

    translation_id: str
    iso3: str
    verses: dict[str, str]


@dataclass(frozen=True)
class MultiCorpus:
    """All loaded translations plus the working verse selection.

    selected_verses is the ordered subset downstream stages iterate over;
    it is empty until select() is applied. encode() tokenizes a translation
    each time it is called, unless the corpus keeps an encoding store
    (keeping_encodings()): then it tokenizes each translation once and
    returns the stored encoding after that.
    """

    translations: dict[str, Translation]
    verse_universe: tuple[str, ...]
    selected_verses: tuple[str, ...] = ()
    families: dict[str, str] = field(default_factory=dict)
    malformed_lines: int = 0
    # translation id -> encoding over selected_verses, or None for no store
    encodings: dict[str, TranslationEncoding] | None = field(
        default=None, compare=False, repr=False
    )

    def encode(self, translation_id: str) -> TranslationEncoding:
        """The TranslationEncoding of one translation, one row per selected
        verse; kept in the encoding store when the corpus has one."""
        if self.encodings is not None and translation_id in self.encodings:
            return self.encodings[translation_id]
        verses = self.translations[translation_id].verses
        index = _vocabulary()
        ids = []
        sums = []
        counts = []
        for _, (surfaces, starts, ends, n) in tokenize_blocks(
            [verses.get(vid, "") for vid in self.selected_verses]
        ):
            ids.append(np.fromiter(map(index.__getitem__, surfaces), np.int32, len(surfaces)))
            sums.append(starts + ends)
            counts.append(n)
        offsets = np.zeros(len(self.selected_verses) + 1, dtype=np.int32)
        np.cumsum(_concat(counts), out=offsets[1:])
        enc = TranslationEncoding(list(index), _concat(ids), offsets, _concat(sums))
        if self.encodings is not None:
            self.encodings[translation_id] = enc
        return enc

    def keeping_encodings(self) -> "MultiCorpus":
        """This corpus with an empty encoding store of its own, so that
        encode() tokenizes each translation at most once. The store lives
        as long as the copy: drop the copy to free it."""
        return replace(self, encodings={})

    def languages(self) -> list[str]:
        return sorted({t.iso3 for t in self.translations.values()})

    def select(self, target_count: int) -> "MultiCorpus":
        """This corpus over its target_count best-covered verses (see
        select_covered_verses), without an encoding store."""
        chosen = select_covered_verses(self, target_count)
        return replace(self, selected_verses=tuple(chosen), encodings=None)


def load_corpus(
    root: str | Path,
    iso_metadata: str | Path | None,
) -> MultiCorpus:
    """Load every well-formed translation file under root.

    Files not matching ``{iso3}_{name}.txt`` are skipped with a warning.
    Malformed lines are counted and skipped; duplicate verse ids within a
    file keep the first occurrence. Raises DataError if no valid
    translation file is found.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"corpus directory not found: {root}")
    translations: dict[str, Translation] = {}
    # every valid verse id seen, mapped to the one string that all
    # translations share for it
    universe: dict[str, str] = {}
    malformed = 0
    for path in sorted(root.glob("*.txt")):
        m = FILENAME_RE.match(path.name)
        if not m:
            logger.warning("skipping %s: name does not match iso3_name.txt", path.name)
            continue
        iso3 = m.group("iso3")
        translation_id = path.stem
        verses: dict[str, str] = {}
        duplicates = 0
        for raw in read_lines(path):
            if not raw:
                continue
            vid, sep, text = raw.partition("\t")
            if not sep:
                malformed += 1
                continue
            shared = universe.get(vid)
            if shared is None:
                if not is_verse_id(vid):
                    malformed += 1
                    continue
                shared = universe[vid] = vid
            vid = shared
            if vid in verses:
                duplicates += 1
                continue
            verses[vid] = text
        if duplicates:
            logger.warning(
                "%s: %d duplicate verse ids, first occurrence kept",
                translation_id,
                duplicates,
            )
        if not verses:
            logger.warning("skipping %s: no well-formed verse lines", path.name)
            continue
        translations[translation_id] = Translation(translation_id, iso3, verses)
    if not translations:
        raise DataError(f"no usable translation files under {root}")
    if malformed:
        logger.warning("skipped %d malformed lines while loading %s", malformed, root)
    families = read_families(iso_metadata) if iso_metadata else {}
    return MultiCorpus(
        translations=translations,
        verse_universe=tuple(sorted(universe)),
        families=families,
        malformed_lines=malformed,
    )


def read_families(path: str | Path) -> dict[str, str]:
    """Read an ``iso3<TAB>family`` metadata file."""
    out: dict[str, str] = {}
    for raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        iso3, sep, family = line.partition("\t")
        if not sep or not family.strip():
            raise DataError(f"malformed family line: {raw!r}")
        out[iso3.strip()] = family.strip()
    return out


def coverage_counts(corpus: MultiCorpus) -> Counter:
    """Number of translations containing each verse id."""
    counts: Counter = Counter()
    for trans in corpus.translations.values():
        counts.update(trans.verses.keys())
    return counts


def select_covered_verses(corpus: MultiCorpus, target_count: int) -> list[str]:
    """The target_count best-covered verse ids, in verse-id order.

    Coverage is the number of translations containing the verse; coverage
    ties are broken toward smaller verse ids, so growing target_count
    always yields a superset.
    """
    counts = coverage_counts(corpus)
    ranked = sorted(corpus.verse_universe, key=lambda v: (-counts[v], v))
    return sorted(ranked[:target_count])


def write_coverage_report(corpus: MultiCorpus, path: str | Path) -> Path:
    """Write ``verse_id<TAB>coverage`` for the whole universe, id-sorted."""
    counts = coverage_counts(corpus)
    lines = (f"{vid}\t{counts[vid]}" for vid in corpus.verse_universe)
    return write_lines(path, lines)
