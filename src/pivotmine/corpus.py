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
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DataError
from .textio import read_lines, write_lines

logger = logging.getLogger(__name__)

VERSE_ID_RE = re.compile(r"^[0-9]{8}$")
FILENAME_RE = re.compile(r"^(?P<iso3>[a-z]{3})_(?P<name>.+)\.txt$")

# Whitespace plus the punctuation stripped around tokens.
DELIMITERS = " \t\r\n\f\v.,;:!?()[]\"'"
_TOKEN_RE = re.compile(f"[^{re.escape(DELIMITERS)}]+")


def is_verse_id(value: str) -> bool:
    return bool(VERSE_ID_RE.match(value))


def tokenize_verse(text: str) -> tuple[list[str], list[int], list[int]]:
    """The tokens of one verse: maximal runs of non-delimiter characters.

    Returns their surfaces and their start and end offsets in text, so
    text[start:end] recovers the original spelling. Each surface is
    lowercased on its own: lowercasing the whole verse can differ, because
    a final sigma depends on what follows.
    """
    matches = list(_TOKEN_RE.finditer(text))
    return (
        [m.group().lower() for m in matches],
        [m.start() for m in matches],
        [m.end() for m in matches],
    )


@dataclass(frozen=True, eq=False)
class TranslationEncoding:
    """The tokens of one translation over a run of verses, as int32 arrays.

    Row r holds the tokens ids[offsets[r]:offsets[r + 1]]; an id indexes
    vocab, which lists the surfaces in first-occurrence order. has_verse is
    False on the rows of verses the translation lacks, so a missing verse
    and an empty one stay different. starts and ends are each token's
    character offsets in its verse, or None for an encoding of surface
    lists, which have no text.
    """

    vocab: list[str]
    ids: np.ndarray
    offsets: np.ndarray
    has_verse: np.ndarray
    starts: np.ndarray | None = None
    ends: np.ndarray | None = None

    def frequencies(self) -> dict[str, int]:
        """Token count of every surface."""
        counts = np.bincount(self.ids, minlength=len(self.vocab))
        return dict(zip(self.vocab, counts.tolist()))

    def find(self, surface: str) -> np.ndarray:
        """Indices of the tokens whose surface is surface, in order."""
        try:
            word = self.vocab.index(surface)
        except ValueError:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.ids == word)


def _vocabulary() -> defaultdict[str, int]:
    """A map from surface to id that gives a new surface the next id when
    it is first looked up, so ids follow first occurrence."""
    index: defaultdict[str, int] = defaultdict()
    index.default_factory = index.__len__
    return index


def encode_surfaces(rows: Sequence[Sequence[str]]) -> TranslationEncoding:
    """Encode rows of token surfaces, one row per list; every row is present."""
    index = _vocabulary()
    ids = np.fromiter(map(index.__getitem__, chain.from_iterable(rows)), np.int32)
    offsets = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    return TranslationEncoding(list(index), ids, offsets, np.ones(len(rows), dtype=bool))


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
    it is empty until select() is applied. Tokens are not cached: encode()
    tokenizes a translation each time it is called.
    """

    translations: dict[str, Translation]
    verse_universe: tuple[str, ...]
    selected_verses: tuple[str, ...] = ()
    families: dict[str, str] = field(default_factory=dict)
    malformed_lines: int = 0

    def encode(self, translation_id: str) -> TranslationEncoding:
        """The TranslationEncoding of one translation, one row per selected verse."""
        verses = self.translations[translation_id].verses
        index = _vocabulary()
        ids: list[int] = []
        starts: list[int] = []
        ends: list[int] = []
        offsets = [0]
        has_verse = []
        for vid in self.selected_verses:
            text = verses.get(vid)
            has_verse.append(text is not None)
            if text is not None:
                surfaces, a, b = tokenize_verse(text)
                ids += map(index.__getitem__, surfaces)
                starts += a
                ends += b
            offsets.append(len(ids))
        return TranslationEncoding(
            list(index),
            np.array(ids, dtype=np.int32),
            np.array(offsets, dtype=np.int32),
            np.array(has_verse, dtype=bool),
            np.array(starts, dtype=np.int32),
            np.array(ends, dtype=np.int32),
        )

    def languages(self) -> list[str]:
        return sorted({t.iso3 for t in self.translations.values()})

    def select(self, target_count: int) -> "MultiCorpus":
        chosen = select_covered_verses(self, target_count)
        return replace(self, selected_verses=tuple(chosen))

    def with_translation(self, trans: Translation) -> "MultiCorpus":
        """Copy of the corpus with one translation replaced or added."""
        translations = dict(self.translations)
        translations[trans.translation_id] = trans
        universe = sorted(set(self.verse_universe) | set(trans.verses))
        return replace(
            self, translations=translations, verse_universe=tuple(universe)
        )


def load_corpus(
    root: str | Path,
    iso_metadata: str | Path | None = None,
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
    universe: set[str] = set()
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
            if not sep or not is_verse_id(vid):
                malformed += 1
                continue
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
        universe.update(verses)
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
    always yields a superset. Raises ValueError if target_count is not in
    [1, len(verse_universe)].
    """
    if target_count <= 0:
        raise ValueError("target_count must be positive")
    if target_count > len(corpus.verse_universe):
        raise ValueError(
            f"target_count {target_count} exceeds verse universe "
            f"({len(corpus.verse_universe)})"
        )
    counts = coverage_counts(corpus)
    ranked = sorted(corpus.verse_universe, key=lambda v: (-counts[v], v))
    return sorted(ranked[:target_count])


def write_coverage_report(corpus: MultiCorpus, path: str | Path) -> Path:
    """Write ``verse_id<TAB>coverage`` for the whole universe, id-sorted."""
    counts = coverage_counts(corpus)
    lines = (f"{vid}\t{counts[vid]}" for vid in corpus.verse_universe)
    return write_lines(path, lines)


def apply_query_merge(
    trans: Translation,
    forms: set[str] | frozenset[str],
    synthetic: str,
) -> Translation:
    """Replace every token matching one of forms with a synthetic token.

    Used to turn a multi-form query (say three present-tense copulas) into
    one alignable surface before training. forms are compared lowercased.
    Raises ValueError if the synthetic token would be split by the
    tokenizer, and DataError if it already occurs as a token of this
    translation (the merge would be ambiguous).
    """
    if any(ch in DELIMITERS for ch in synthetic):
        raise ValueError(f"synthetic token {synthetic!r} contains a delimiter")
    if not synthetic:
        raise ValueError("synthetic token must be non-empty")
    target = synthetic.lower()
    norm_forms = {f.lower() for f in forms}
    if not norm_forms:
        raise ValueError("query forms must be non-empty")
    new_verses: dict[str, str] = {}
    replaced = 0
    for vid, text in trans.verses.items():
        surfaces, starts, ends = tokenize_verse(text)
        if target in surfaces:
            raise DataError(
                f"synthetic token {synthetic!r} already occurs in "
                f"{trans.translation_id} verse {vid}"
            )
        parts: list[str] = []
        prev = 0
        for surface, start, end in zip(surfaces, starts, ends):
            if surface in norm_forms:
                parts.append(text[prev:start])
                parts.append(synthetic)
                prev = end
                replaced += 1
        parts.append(text[prev:])
        new_verses[vid] = "".join(parts)
    if replaced == 0:
        logger.warning(
            "query merge matched no tokens in %s", trans.translation_id
        )
    return Translation(trans.translation_id, trans.iso3, new_verses)
