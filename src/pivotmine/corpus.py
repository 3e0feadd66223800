"""Verse-aligned multiparallel corpus: loading, selection, tokenization.

A corpus is a directory of per-translation text files named
``{iso3}_{name}.txt`` whose lines are ``VerseId<TAB>text``. Verse ids are
8-digit strings and act as the alignment key across translations: the same
id denotes the same content everywhere, which is what later stages rely on.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

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


@dataclass(frozen=True, slots=True)
class Token:
    """A lowercased token surface with its character span in the verse.

    start/end index the raw text, so text[start:end] recovers the
    original spelling.
    """

    surface: str
    start: int
    end: int


def tokenize_verse(text: str) -> tuple[Token, ...]:
    """Maximal runs of non-delimiter characters, lowercased, with offsets."""
    return tuple(
        Token(m.group().lower(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)
    )


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
    it is empty until select() is applied. Tokenization is cached per
    translation, in one cache shared by every copy derived through
    select() or with_translation(). Each entry remembers the Translation
    it was made from, so a copy holding a different translation under the
    same id tokenizes its own.
    """

    translations: dict[str, Translation]
    verse_universe: tuple[str, ...]
    selected_verses: tuple[str, ...] = ()
    families: dict[str, str] = field(default_factory=dict)
    malformed_lines: int = 0
    _token_cache: dict[str, tuple[Translation, dict[str, tuple[Token, ...]]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def tokenized(self, translation_id: str) -> dict[str, tuple[Token, ...]]:
        """Tokens of every verse of one translation, cached."""
        trans = self.translations[translation_id]
        cached = self._token_cache.get(translation_id)
        if cached is not None and cached[0] is trans:
            return cached[1]
        out = {vid: tokenize_verse(text) for vid, text in trans.verses.items()}
        self._token_cache[translation_id] = (trans, out)
        return out

    def surface_spans(
        self, translation_id: str, surface: str
    ) -> list[list[tuple[int, int]] | None]:
        """Per selected verse, the spans of the tokens whose surface is
        surface, or None where the translation lacks the verse.

        Scans the raw text and adds nothing to the token cache. Each token
        is lowercased on its own, as tokenize_verse does: lowercasing the
        whole verse can differ (a final sigma depends on what follows).
        """
        verses = self.translations[translation_id].verses
        out: list[list[tuple[int, int]] | None] = []
        for vid in self.selected_verses:
            text = verses.get(vid)
            if text is None:
                out.append(None)
            else:
                out.append([
                    m.span() for m in _TOKEN_RE.finditer(text) if m.group().lower() == surface
                ])
        return out

    def token_frequencies(self, translation_id: str, selected_only: bool = True) -> Counter:
        """Token counts for one translation, by default over selected verses."""
        toks = self.tokenized(translation_id)
        verse_ids = self.selected_verses if selected_only else tuple(toks)
        freqs: Counter = Counter()
        for vid in verse_ids:
            tokens = toks.get(vid)
            if tokens is not None:
                freqs.update(t.surface for t in tokens)
        return freqs

    def languages(self) -> list[str]:
        return sorted({t.iso3 for t in self.translations.values()})

    def translations_for(self, iso3: str) -> list[str]:
        return sorted(
            tid for tid, t in self.translations.items() if t.iso3 == iso3
        )

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
        tokens = tokenize_verse(text)
        for tok in tokens:
            if tok.surface == target:
                raise DataError(
                    f"synthetic token {synthetic!r} already occurs in "
                    f"{trans.translation_id} verse {vid}"
                )
        parts: list[str] = []
        prev = 0
        for tok in tokens:
            if tok.surface in norm_forms:
                parts.append(text[prev : tok.start])
                parts.append(synthetic)
                prev = tok.end
                replaced += 1
        parts.append(text[prev:])
        new_verses[vid] = "".join(parts)
    if replaced == 0:
        logger.warning(
            "query merge matched no tokens in %s", trans.translation_id
        )
    return Translation(trans.translation_id, trans.iso3, new_verses)
