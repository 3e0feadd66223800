"""Verse-aligned multiparallel corpus: loading, selection, tokenization.

A corpus is a directory of per-translation text files named
``{iso3}_{name}.txt`` whose lines are ``VerseId<TAB>text``. Verse ids are
8-digit strings and act as the alignment key across translations: the same
id denotes the same content everywhere, which is what later stages rely on.
"""

from __future__ import annotations

import bisect
import logging
import re
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .textio import Reader, Writer, read_bytes, read_table, write_bytes, write_lines

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


def _token_spans(spaced: str) -> tuple[np.ndarray, np.ndarray]:
    """The int64 start and end offset of each maximal run of non-spaces
    in spaced, from its code points."""
    code = np.frombuffer(spaced.encode("utf-32-le", "surrogatepass"), "<u4")
    space = np.ones(len(code) + 2, dtype=bool)
    np.equal(code, ord(" "), out=space[1:-1])
    edge = np.diff(space.view(np.int8))
    return np.flatnonzero(edge == -1), np.flatnonzero(edge == 1)


def _spaced(text: str, lengths: np.ndarray) -> tuple[str, np.ndarray, np.ndarray]:
    """The verses of a view (MultiCorpus.verses: a lacking verse reads as
    empty) joined with spaces, every delimiter mapped to a space; and the
    int64 length and start of each verse in that string."""
    size = np.maximum(lengths, 0)
    end = np.cumsum(size)
    start = end - size
    joined = " ".join([text[a:b] for a, b in zip(start.tolist(), end.tolist())])
    return joined.translate(_TO_SPACE), size, start + np.arange(len(size))


def tokenize_block(text: str, lengths: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The tokens of several verses, given as a view (text and lengths, as
    MultiCorpus.verses returns them): maximal runs of non-delimiter
    characters.

    Returns the lowercased surfaces of every token in order, and the int64
    token count of each verse. MultiCorpus.encode is the one caller: the
    package tokenizes only to encode, and finds surfaces by searching
    (find_surfaces).

    The verses are joined with spaces and every delimiter is mapped to a
    space, so a token is a maximal run of non-spaces in that string; each
    verse's count comes from where those runs start. The surfaces come from
    lowercasing the whole string and splitting it at spaces. That equals
    lowercasing each token on its own: the one context-dependent rule of
    str.lower, the final sigma, only looks past case-ignorable characters,
    and the space that bounds every token is neither cased nor
    case-ignorable.
    """
    spaced, _, verse_start = _spaced(text, lengths)
    verse = np.searchsorted(verse_start, _token_spans(spaced)[0], side="right") - 1
    return (
        list(filter(None, spaced.lower().split(" "))),
        np.bincount(verse, minlength=len(lengths)),
    )


def can_be_token(surface: str) -> bool:
    """Whether some token can have surface: it is non-empty and holds no
    delimiter."""
    return bool(surface) and " " not in surface.translate(_TO_SPACE)


def find_surfaces(
    text: str, lengths: np.ndarray, surfaces: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tokens of several verses, given as a view (text and lengths, as
    MultiCorpus.verses returns them), whose lowercased surface is one of
    surfaces, found without tokenizing: the int64 verse index and surface
    index of each, and its float64 relative character midpoint (midpoint
    over verse length), in text order. The tokens are those of
    tokenize_block. The pivot scan and head-pivot's query check find
    surfaces this way.

    The verses are joined, mapped to spaces and lowercased as
    tokenize_block does, with a space before and after, and one pattern
    finds each surface between two spaces. A surface no token can have
    (can_be_token) matches nothing. Where lowercasing changes the
    string's length (U+0130 becomes two characters), a hit is placed by
    its token ordinal: it has the offsets of the token with the same
    ordinal in the string before lowercasing.
    """
    wanted = [k for k, surface in enumerate(surfaces) if can_be_token(surface)]
    spaced, text_len, text_start = _spaced(text, lengths)
    spaced = f" {spaced} "
    lowered = spaced.lower()
    hits = []
    if wanted:
        pattern = " (?:" + "|".join(f"({re.escape(surfaces[k])})" for k in wanted) + ")(?= )"
        hits = [(*m.span(), m.lastindex) for m in re.finditer(pattern, lowered)]
    hit = np.array(hits, dtype=np.int64).reshape(-1, 3)
    # a token spaced[a + 1:b + 1], matched with the space before it, is
    # at [a, b) in the verses joined with spaces
    start, end = hit[:, 0], hit[:, 1] - 1
    if len(lowered) != len(spaced):
        ordinal = np.searchsorted(_token_spans(lowered)[0], start + 1)
        start, end = (edges[ordinal] - 1 for edges in _token_spans(spaced))
    verse = np.searchsorted(text_start, start, side="right") - 1
    # doubling the length is exact, so this rounds the midpoint ratio once
    rel = (start + end - 2 * text_start[verse]) / (2.0 * text_len[verse])
    return verse, np.array(wanted, dtype=np.int64)[hit[:, 2] - 1], rel


@dataclass(frozen=True, eq=False)
class TranslationEncoding:
    """The tokens of one translation over a run of verses: what alignment
    reads of them.

    Row r holds the tokens ids[offsets[r]:offsets[r + 1]]; an id indexes
    vocab, which lists the surfaces in first-occurrence order. A verse the
    translation lacks is an empty row. offsets is int32; ids take the
    smallest unsigned dtype that holds their largest value
    (np.min_scalar_type), as they are most of an encoding store's bytes.
    The pivot scan reads no encoding: it searches the text (find_surfaces).
    """

    vocab: list[str]
    ids: np.ndarray
    offsets: np.ndarray

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
        remap = np.arange(len(self.vocab), dtype=self.ids.dtype)
        remap[matched] = matched[0]
        vocab = list(self.vocab)
        vocab[matched[0]] = word
        return TranslationEncoding(vocab, remap[self.ids], self.offsets)


def _vocabulary() -> defaultdict[str, int]:
    """A map from surface to id that gives a new surface the next id when
    it is first looked up, so ids follow first occurrence."""
    index: defaultdict[str, int] = defaultdict()
    index.default_factory = index.__len__
    return index


# The presence table reads its keys this many at a time, converted to
# intp: numpy indexes with an int32 array about half as fast as with an
# intp one, and converting all the keys at once would cost 8 bytes each.
INDEX_SLICE = 8192


def _intp_slices(keys: np.ndarray):
    """Yield (slice, the keys in it as intp) over keys, INDEX_SLICE at a time."""
    for lo in range(0, keys.size, INDEX_SLICE):
        at = slice(lo, lo + INDEX_SLICE)
        yield at, keys[at].astype(np.intp, copy=False)


def dense_index(keys: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of keys, which lie in [0, space), and the
    int32 index of each key among them: read from a presence table over
    the space when it is no larger than the keys, else by sorting them.
    Mining keeps this index int32, and aligner.encode_pairs widens only its
    own: widening it for every caller raised peak RSS. Sorting numbers the
    sorted keys by an int32 cumulative sum of where they change, so no
    intp inverse is built."""
    if space <= keys.size:
        present = np.zeros(space, dtype=bool)
        for _, part in _intp_slices(keys):
            present[part] = True
        index = np.cumsum(present, dtype=np.int32)
        index -= 1
        out = np.empty(keys.size, dtype=np.int32)
        for at, part in _intp_slices(keys):
            out[at] = index[part]
        return np.flatnonzero(present), out
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    del ordered
    rank = np.cumsum(new, dtype=np.int32)
    del new
    rank -= 1
    out = np.empty(keys.size, dtype=np.int32)
    out[order] = rank
    return distinct, out


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    """The int32 arrays of parts end to end."""
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int32)


def _narrowest(values: np.ndarray) -> np.ndarray:
    """Non-negative values in the smallest dtype that holds their largest."""
    return values.astype(np.min_scalar_type(values.max(initial=0)), copy=False)


@dataclass(frozen=True, eq=False)
class Translation:
    """One translation: an id, its language code, and its verse texts.

    text holds the verse texts end to end, in file order; verse i is
    text[offsets[i]:offsets[i + 1]] (int64 offsets, one more than the
    verses, so offsets[1:] are the verses' ends), and verse_index[i]
    (int32) is its position in the corpus's sorted verse_universe. A
    translation keeps no object per verse, and no module but this one
    reads text: read verses through MultiCorpus.verses. Treated as
    immutable.
    """

    translation_id: str
    iso3: str
    text: str
    offsets: np.ndarray
    verse_index: np.ndarray


@dataclass(frozen=True, eq=False)
class MultiCorpus:
    """All loaded translations plus the working verse selection.

    selected_index holds the verse_universe position of each selected
    verse, in verse-id order; it is empty until select() is applied, and
    selected_verses names the same verses. verses() is the one read path
    of a translation's text: it gathers the view of the selection (or of
    given verses) from the text and arrays on each call and caches
    nothing. A lacking verse has length -1, so that it differs from an
    empty one. encode() tokenizes a translation each time it is called,
    unless the corpus keeps an encoding store (keeping_encodings()): then
    it tokenizes each translation once and returns the stored encoding
    after that.
    """

    translations: dict[str, Translation]
    verse_universe: tuple[str, ...]
    selected_index: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    families: dict[str, str] = field(default_factory=dict)
    malformed_lines: int = 0
    # translation id -> encoding over the selected verses, or None for no store
    encodings: dict[str, TranslationEncoding] | None = field(default=None, repr=False)

    @property
    def selected_verses(self) -> tuple[str, ...]:
        """The ids of the selected verses, in order (a new tuple of the
        universe's strings on each call)."""
        return tuple(map(self.verse_universe.__getitem__, self.selected_index.tolist()))

    def verses(
        self, translation_id: str, index: np.ndarray | None = None
    ) -> tuple[str, np.ndarray]:
        """The translation's view of the selected verses, or of each verse
        of index (universe positions; -1 stands outside the universe): their
        texts end to end, cut as one slice of its text per run of
        consecutive file rows, and the int64 length of each, -1 where the
        translation lacks the verse. Every reader of verse text reads it
        here. Raises DataError for a translation the corpus lacks."""
        trans = self.translations.get(translation_id)
        if trans is None:
            raise DataError(f"unknown translation {translation_id!r}")
        where = np.full(len(self.verse_universe) + 1, -1, dtype=np.intp)
        where[trans.verse_index] = np.arange(len(trans.verse_index))
        rows = where[self.selected_index if index is None else index]
        has = rows >= 0
        rows = rows[has]
        lengths = np.full(len(has), -1, dtype=np.int64)
        lengths[has] = trans.offsets[rows + 1] - trans.offsets[rows]
        if not len(rows):
            return "", lengths
        breaks = np.flatnonzero(np.diff(rows) != 1) + 1
        starts = trans.offsets[rows[np.r_[0, breaks]]].tolist()
        ends = trans.offsets[rows[np.r_[breaks - 1, len(rows) - 1]] + 1].tolist()
        return "".join([trans.text[a:b] for a, b in zip(starts, ends)]), lengths

    def universe_index(self, verse_ids: Sequence[str]) -> np.ndarray:
        """The verse_universe position of each verse id, -1 for an id the
        universe lacks."""
        out = np.full(len(verse_ids), -1, dtype=np.intp)
        for k, vid in enumerate(verse_ids):
            i = bisect.bisect_left(self.verse_universe, vid)
            if i < len(self.verse_universe) and self.verse_universe[i] == vid:
                out[k] = i
        return out

    def encode(self, translation_id: str) -> TranslationEncoding:
        """The TranslationEncoding of one translation, one row per selected
        verse; kept in the encoding store when the corpus has one."""
        if self.encodings is not None and translation_id in self.encodings:
            return self.encodings[translation_id]
        index = _vocabulary()
        ids = []
        counts = []
        text, lengths = self.verses(translation_id)
        at = 0  # where the block's texts start in text
        for lo in range(0, len(lengths), BLOCK_VERSES):
            block = lengths[lo : lo + BLOCK_VERSES]
            size = int(np.maximum(block, 0).sum())
            surfaces, n = tokenize_block(text[at : at + size], block)
            at += size
            ids.append(np.fromiter(map(index.__getitem__, surfaces), np.int32, len(surfaces)))
            counts.append(n)
        offsets = np.zeros(len(self.selected_index) + 1, dtype=np.int32)
        np.cumsum(_concat(counts), out=offsets[1:])
        enc = TranslationEncoding(list(index), _narrowest(_concat(ids)), offsets)
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
        """This corpus over its target_count best-covered verses, without
        an encoding store.

        Coverage is the number of translations containing the verse;
        coverage ties are broken toward smaller verse ids, so growing
        target_count always selects a superset.
        """
        ranked = np.argsort(-coverage_counts(self), kind="stable")
        return replace(self, selected_index=np.sort(ranked[:target_count]), encodings=None)


def build_corpus(
    verses: dict[str, dict[str, str]],
    iso3: dict[str, str],
    families: dict[str, str] | None = None,
) -> MultiCorpus:
    """A corpus, without a selection, of translations given as
    {translation_id: {verse_id: text}} (verses in dict order) and the
    language code of each."""
    universe = sorted({vid for texts in verses.values() for vid in texts})
    position = {vid: i for i, vid in enumerate(universe)}
    translations = {
        tid: _translation(
            tid,
            iso3[tid],
            "".join(texts.values()),
            np.fromiter(map(len, texts.values()), np.int64, len(texts)),
            np.fromiter(map(position.__getitem__, texts), np.int32, len(texts)),
        )
        for tid, texts in verses.items()
    }
    return MultiCorpus(translations, tuple(universe), families=dict(families or {}))


def _translation(
    translation_id: str, iso3: str, text: str, lengths: np.ndarray, verse_index: np.ndarray
) -> Translation:
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return Translation(translation_id, iso3, text, offsets, verse_index.astype(np.int32))


# Eight bytes read as one big-endian uint64 (so that ids order like their
# numbers) are eight ASCII digits when both masked sums hold for every
# byte: b & 0xF0 == 0x30 keeps 0x30-0x3F, (b + 6) & 0xF0 == 0x30 keeps
# 0x2A-0x39. A byte whose + 6 carries into the next fails the first test.
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_DIGIT_NIBBLES = np.uint64(0x3030303030303030)
_PAST_NINE = np.uint64(0x0606060606060606)


def _parse_translation(data: bytes) -> tuple[str, np.ndarray, np.ndarray, int, int]:
    """The verses of one corpus file's bytes: their texts end to end, the
    length of each in characters, each one's id as a uint64 that orders
    like the id, and the counts of malformed lines and of duplicate ids.

    The whole file must be strict UTF-8, else UnicodeDecodeError. Lines
    end at LF, CRLF or CR, and an empty line is skipped. A line holds a
    verse when what precedes its first tab is a verse id (is_verse_id):
    as digits are not tabs, when its first eight characters are ASCII
    digits and its ninth a tab. The text follows that tab. Every other
    line is malformed. Of lines with one id the first is kept. The file
    is scanned as an array of its bytes, in which those nine characters
    are nine bytes.
    """
    data.decode("utf-8")
    if b"\r" in data:  # a search for b"\r\n" costs a scan even without one
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    byte = np.frombuffer(data, np.uint8)
    # the eight bytes from each offset, as one unaligned big-endian uint64
    # (eight zero bytes past the end give every offset a full word)
    words = np.ndarray(len(data), ">u8", data + bytes(8), strides=(1,))
    newline = np.flatnonzero(byte == ord("\n"))
    line_start = np.concatenate(([0], newline + 1))
    line_end = np.append(newline, len(byte))
    lines = np.flatnonzero(line_end - line_start > 8)
    head = line_start[lines]
    word = words[head]
    valid = (
        (byte[head + 8] == ord("\t"))
        & ((word & _HIGH_NIBBLES) == _DIGIT_NIBBLES)
        & (((word + _PAST_NINE) & _HIGH_NIBBLES) == _DIGIT_NIBBLES)
    )
    lines = lines[valid]
    keys = word[valid].astype(np.uint64)
    malformed = int(np.count_nonzero(line_end > line_start)) - len(lines)
    if np.all(keys[1:] > keys[:-1]):
        first = np.arange(len(keys))  # ids ascend, so none repeats
    else:
        first = np.sort(np.unique(keys, return_index=True)[1])
    lines = lines[first]
    # each line is three runs of bytes: those dropped before its text
    # (the whole line unless it is kept), its text, and its newline
    runs = np.zeros((len(line_start), 3), dtype=np.int64)
    runs[:, 0] = line_end - line_start
    runs[lines, 0] = 9
    runs[lines, 1] = line_end[lines] - line_start[lines] - 9
    runs[:-1, 2] = 1
    kept = byte[np.repeat(np.tile([False, True, False], len(line_start)), runs.ravel())]
    text = kept.tobytes().decode("utf-8")
    lengths = runs[lines, 1]
    if len(text) < len(kept):
        # a verse has one character fewer than bytes per continuation byte
        continuation = np.flatnonzero((kept & 0xC0) == 0x80)
        verse = np.searchsorted(np.cumsum(lengths), continuation, side="right")
        lengths = lengths - np.bincount(verse, minlength=len(lengths))
    return text, lengths, keys[first], malformed, len(keys) - len(first)


def load_corpus(
    root: str | Path,
    iso_metadata: str | Path | None,
    read: Reader = read_bytes,
) -> MultiCorpus:
    """Load every translation file directly under root.

    Only ``*.txt`` files are looked at, and those not matching
    ``{iso3}_{name}.txt`` are skipped with a warning. Each one that
    matches, and the iso_metadata file, is read once, through read (a
    run passes its recorder's).
    Malformed lines are counted and skipped; duplicate verse ids within a
    file keep the first occurrence. Raises DataError naming the file if a
    translation file cannot be read, is not UTF-8 or holds no verse line,
    and DataError if no file matches.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"corpus directory not found: {root}")
    # (translation id, iso3, text, lengths, verse ids as _parse_translation keys)
    parsed: list[tuple[str, str, str, np.ndarray, np.ndarray]] = []
    malformed = 0
    for path in sorted(root.glob("*.txt")):
        m = FILENAME_RE.match(path.name)
        if not m:
            logger.warning("skipping %s: name does not match iso3_name.txt", path.name)
            continue
        translation_id = path.stem
        try:
            text, lengths, keys, bad, duplicates = _parse_translation(read(path))
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        malformed += bad
        if duplicates:
            logger.warning(
                "%s: %d duplicate verse ids, first occurrence kept",
                translation_id,
                duplicates,
            )
        if not len(keys):
            raise DataError(f"{path}: no well-formed verse line")
        parsed.append((translation_id, m.group("iso3"), text, lengths, keys))
    if not parsed:
        raise DataError(f"no usable translation files under {root}")
    if malformed:
        logger.warning("skipped %d malformed lines while loading %s", malformed, root)
    # the sorted distinct ids: np.unique would import numpy.ma to check for
    # a masked array, which costs every command that loads a corpus
    every = np.sort(np.concatenate([keys for *_, keys in parsed]))
    universe = every[np.append(True, every[1:] != every[:-1])]
    translations = {
        tid: _translation(tid, iso3, text, lengths, np.searchsorted(universe, keys))
        for tid, iso3, text, lengths, keys in parsed
    }
    ids = universe.astype(">u8").tobytes().decode("ascii")
    families = read_families(iso_metadata, read) if iso_metadata else {}
    return MultiCorpus(
        translations=translations,
        verse_universe=tuple(ids[i : i + 8] for i in range(0, len(ids), 8)),
        families=families,
        malformed_lines=malformed,
    )


def write_verses(
    path: str | Path, verses: Iterable[tuple[str, str]], write: Writer = write_bytes
) -> Path:
    """Write (verse_id, text) pairs in order, through write, as the lines
    load_corpus reads: corpus files and projections. No text holds CR or LF."""
    return write_lines(path, (f"{vid}\t{text}" for vid, text in verses), write)


def read_verse_ids(path: str | Path, read: Reader = read_bytes) -> list[str]:
    """The ids of a verse-id list (selection.txt, clusters/*.txt, --verses),
    read through read as a file people write (read_table); DataError naming
    the path and the line for a line with a tab or that is not a verse id."""
    ids = []
    for number, (vid,) in read_table(path, 1, read=read)[1]:
        if not is_verse_id(vid):
            raise DataError(f"{path} line {number}: {vid!r} is not a verse id")
        ids.append(vid)
    return ids


def read_families(path: str | Path, read: Reader = read_bytes) -> dict[str, str]:
    """Read an ``iso3<TAB>family`` metadata file; DataError naming the path
    and both lines for an iso3 listed twice."""
    families, lines = {}, {}
    for number, (iso3, family) in read_table(path, 2, read=read)[1]:
        if iso3 in lines:
            raise DataError(
                f"{path} lines {lines[iso3]} and {number}: iso3 {iso3!r} listed twice"
            )
        families[iso3], lines[iso3] = family, number
    return families


def coverage_counts(corpus: MultiCorpus) -> np.ndarray:
    """Number of translations containing each verse of verse_universe, as
    int64 in universe order."""
    counts = np.zeros(len(corpus.verse_universe), dtype=np.int64)
    for trans in corpus.translations.values():
        # a translation lists each verse once, so no index repeats
        counts[trans.verse_index] += 1
    return counts


def write_coverage_report(
    corpus: MultiCorpus, path: str | Path, write: Writer = write_bytes
) -> Path:
    """Write ``verse_id<TAB>coverage`` for the whole universe, id-sorted,
    through write."""
    counts = coverage_counts(corpus).tolist()
    lines = (f"{vid}\t{n}" for vid, n in zip(corpus.verse_universe, counts))
    return write_lines(path, lines, write)
