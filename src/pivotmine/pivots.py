"""Surface pivot discovery: head pivot search and k-pivot expansion.

A pivot is a word some language uses consistently for the queried feature.
The head pivot is found by aligning a (possibly merged multi-form) query
against candidate translations restricted to an allowlist of reliable
languages; the pivot set is then grown by aligning the head against every
other translation and ranking aligned words by chi-square association.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .aligner import PairLinkStats, link_counts
from .config import RunConfig
from .corpus import DELIMITERS, MultiCorpus, tokenize_blocks
from .errors import DataError
from .stats import ContingencyTable, chi2
from .textio import Reader, read_bytes, read_lines, write_lines

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Query:
    """A feature query: one or more surface forms in one translation."""

    feature: str
    translation_id: str
    forms: frozenset[str]

    def __post_init__(self):
        if not self.forms:
            raise ValueError("query needs at least one form")


def synthetic_query_token(feature: str) -> str:
    """Surface used to stand in for all query forms during alignment."""
    return f"qtok{feature.lower()}q"


@dataclass(frozen=True)
class Pivot:
    """A word of one translation scored as a marker of a feature.

    Scored candidates, pivot-set members and head pivots are all Pivots;
    score is the chi-square association the word was ranked by.
    """

    iso3: str
    translation_id: str
    surface: str
    score: float


@dataclass
class PresenceMatrix:
    """Verse-by-pivot presence with a parallel missing-data mask."""

    verse_ids: tuple[str, ...]
    pivots: list[Pivot]
    matrix: np.ndarray  # uint8, verses x pivots
    missing: np.ndarray  # bool, verses x pivots


def _scan_translation(
    corpus: MultiCorpus, translation_id: str, surfaces: list[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tokens of several surfaces in a translation's selected verses,
    read from its encoding (MultiCorpus.encode): the row, the surface index
    and the relative character midpoint (midpoint / verse length) of each,
    in text order, and the rows the translation lacks."""
    enc = corpus.encode(translation_id)
    index = {surface: k for k, surface in enumerate(surfaces)}
    surface_of = np.fromiter(map(index.get, enc.vocab, repeat(-1)), np.int64, len(enc.vocab))
    code = surface_of[enc.ids]
    hits = np.flatnonzero(code >= 0)
    rows = np.searchsorted(enc.offsets[1:], hits, side="right")
    lengths = corpus.lengths(translation_id)[rows]
    return rows, code[hits], enc.span_sums[hits] / 2.0 / lengths, ~corpus.presence(translation_id)


def scan_pivots(
    corpus: MultiCorpus, pivots: list[Pivot]
) -> tuple[np.ndarray, np.ndarray, PresenceMatrix]:
    """The pivots' token positions over the selected verses, and their
    presence matrix with one column per pivot, in order.

    Each translation is scanned once for all of its pivots' surfaces; a
    pivot listed twice fills two identical columns. The positions are two
    flat arrays, the selected-verse row of each token and its relative
    midpoint, ordered by row, then pivot order, then text order. Raises
    DataError when the corpus has no verse selection.
    """
    if not len(corpus.selected_index):
        raise DataError("presence matrix needs a verse selection")
    columns: dict[str, dict[str, list[int]]] = {}
    for col, p in enumerate(pivots):
        columns.setdefault(p.translation_id, {}).setdefault(p.surface, []).append(col)
    shape = (len(corpus.selected_index), len(pivots))
    matrix = np.zeros(shape, dtype=np.uint8)
    missing = np.zeros(shape, dtype=bool)
    found = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
    for tid, by_surface in columns.items():
        rows, which, rel, lacks = _scan_translation(corpus, tid, list(by_surface))
        for k, surface_cols in enumerate(by_surface.values()):
            hit = which == k
            for col in surface_cols:
                found.append((rows[hit], np.full(hit.sum(), col), rel[hit]))
                missing[:, col] = lacks
    rows, cols, rel = map(np.concatenate, zip(*found))
    matrix[rows, cols] = 1
    order = np.lexsort((cols, rows))
    return rows[order], rel[order], PresenceMatrix(
        tuple(corpus.selected_verses), list(pivots), matrix, missing
    )


@dataclass
class PivotSet:
    """Head pivot plus expansion, ordered by descending score.

    At most one pivot per language. rows and rel are the members' token
    positions and presence their PresenceMatrix, over the selected verses
    of the corpus the set was built on (see scan_pivots), so that mining,
    marker clustering and maps share one scan.
    """

    head: Pivot
    members: list[Pivot]
    rows: np.ndarray
    rel: np.ndarray
    presence: PresenceMatrix

    @classmethod
    def scan(cls, corpus: MultiCorpus, head: Pivot, members: list[Pivot]) -> "PivotSet":
        """The set of members, with each translation scanned once (scan_pivots)."""
        return cls(head, list(members), *scan_pivots(corpus, members))


def contingency_from_links(stats: PairLinkStats, target_word: str) -> ContingencyTable:
    """2x2 table relating the tracked source word to one target word.

    Built from aggregate link counts: a = links source_word -> target_word,
    b = other links from source_word, c = other links onto target_word,
    d = everything else.
    """
    a = stats.source_word_to_target.get(target_word, 0)
    b = stats.source_word_links - a
    c = stats.target_word_links.get(target_word, 0) - a
    d = stats.total_links - a - b - c
    return ContingencyTable(a, b, c, d)


def score_candidates(
    corpus: MultiCorpus,
    stats_by_translation: dict[str, PairLinkStats],
    min_count: int,
) -> list[Pivot]:
    """Score every sufficiently frequent aligned word in every target.

    Words whose token frequency over the selected verses (the stats'
    target_frequencies) is below min_count are skipped. Returns candidates
    sorted by descending score, then iso3, surface, and translation id.
    """
    out: list[Pivot] = []
    for tgt_id in sorted(stats_by_translation):
        stats = stats_by_translation[tgt_id]
        iso3 = corpus.translations[tgt_id].iso3
        freq = stats.target_frequencies
        for word in stats.source_word_to_target:
            if freq.get(word, 0) < min_count:
                continue
            score = chi2(contingency_from_links(stats, word))
            out.append(Pivot(iso3, tgt_id, word, score))
    out.sort(key=lambda c: (-c.score, c.iso3, c.surface, c.translation_id))
    return out


def _check_query_merge(
    corpus: MultiCorpus, translation_id: str, forms: frozenset[str], synthetic: str
) -> None:
    """One pass over every verse of the query translation, selected or
    not: DataError naming the first verse in file order where synthetic
    already occurs as a token (the merge would be ambiguous), and a
    warning when no token is one of forms."""
    index = corpus.translations[translation_id].verse_index
    matched = False
    for lo, (surfaces, _, _, counts) in tokenize_blocks(corpus.texts(translation_id, index)):
        if synthetic in surfaces:
            row = lo + np.searchsorted(np.cumsum(counts), surfaces.index(synthetic), side="right")
            vid = corpus.verse_universe[index[row]]
            raise DataError(
                f"synthetic token {synthetic!r} already occurs in {translation_id} verse {vid}"
            )
        matched = matched or not forms.isdisjoint(surfaces)
    if not matched:
        logger.warning("query merge matched no tokens in %s", translation_id)


def find_head_pivot(
    corpus: MultiCorpus,
    query: Query,
    allowlist: set[str],
    cfg: RunConfig,
    min_count: int,
    cache_dir: str | Path | None,
) -> Pivot:
    """Find the best-associated allowlisted word for a feature query.

    The query forms are merged into one synthetic token in the query
    translation's encoding (see link_counts), which is aligned against the
    allowlisted translations only. Raises DataError when no allowlisted
    candidate has a positive score; the error then aligns every translation
    and lists the top-scoring candidates overall so the allowlist can be
    revisited.
    """
    if not allowlist:
        raise DataError("head pivot search needs a non-empty language allowlist")
    if query.translation_id not in corpus.translations:
        raise DataError(f"unknown query translation {query.translation_id!r}")
    forms = frozenset(f.lower() for f in query.forms)
    synthetic = synthetic_query_token(query.feature)
    _check_query_merge(corpus, query.translation_id, forms, synthetic)

    def candidates_in(targets: list[str] | None) -> list[Pivot]:
        stats = link_counts(
            corpus, query.translation_id, synthetic, cfg, cache_dir, targets, forms
        )
        return score_candidates(corpus, stats, min_count)

    # Each target is scored on its own, so aligning only the allowlisted
    # ones finds the same head.
    allowed_targets = [
        tid for tid, t in corpus.translations.items() if t.iso3 in allowlist
    ]
    allowed = [c for c in candidates_in(allowed_targets) if c.score > 0]
    if not allowed:
        preview = ", ".join(
            f"{c.iso3}:{c.surface}({c.score:.1f})" for c in candidates_in(None)[:10]
        )
        raise DataError(
            f"no allowlisted head pivot for feature {query.feature!r}; "
            f"top candidates overall: {preview or 'none'}"
        )
    best = allowed[0]
    logger.info(
        "head pivot for %s: %s %r in %s (chi2=%.2f)",
        query.feature,
        best.iso3,
        best.surface,
        best.translation_id,
        best.score,
    )
    return best


def rank_pivot_candidates(
    corpus: MultiCorpus,
    head: Pivot,
    cfg: RunConfig,
    min_count: int,
    cache_dir: str | Path | None,
) -> list[Pivot]:
    """Score candidates in every translation against the head pivot."""
    stats = link_counts(
        corpus, head.translation_id, head.surface, cfg, cache_dir
    )
    return score_candidates(corpus, stats, min_count)


def expand_pivots(
    corpus: MultiCorpus, feature: str, head: Pivot, k: int, ranking: list[Pivot]
) -> PivotSet:
    """Grow the pivot set to k members (head included), one per language.

    Walks the ranking (rank_pivot_candidates) in order, skipping languages
    already represented and zero scores; warns when fewer than k members
    are reachable. The set comes with its members' positions (see
    PivotSet.scan).
    """
    members = [head]
    taken = {head.iso3}
    for cand in ranking:
        if len(members) >= k:
            break
        if cand.iso3 in taken or cand.score <= 0:
            continue
        members.append(cand)
        taken.add(cand.iso3)
    if len(members) < k:
        logger.warning(
            "pivot set for %s stopped at %d of %d requested", feature, len(members), k
        )
    members.sort(key=lambda p: (-p.score, p.iso3, p.surface, p.translation_id))
    return PivotSet.scan(corpus, head, members)


def top_markers_by_language(ranking: list[Pivot], head: Pivot) -> dict[str, Pivot]:
    """Best positively scored candidate per language.

    The head pivot represents its own language (it has no score against
    itself in the ranking).
    """
    out: dict[str, Pivot] = {head.iso3: head}
    for cand in ranking:
        if cand.score <= 0:
            continue
        if cand.iso3 not in out:
            out[cand.iso3] = cand
    return out


# --- file formats ---------------------------------------------------------


def read_queries(path: str | Path, read: Reader = read_bytes) -> list[Query]:
    """Read ``feature<TAB>translation_id<TAB>form1,form2,...`` lines.

    Raises DataError for a line without three fields, without a form, or
    whose feature would put a delimiter into its synthetic query token.
    """
    out = []
    for raw in read_lines(path, read):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"malformed query line: {raw!r}")
        feature, tid, forms = parts
        form_set = frozenset(f for f in forms.split(",") if f)
        if not form_set:
            raise DataError(f"query line has no forms: {raw!r}")
        if any(ch in DELIMITERS for ch in synthetic_query_token(feature)):
            raise DataError(f"query feature {feature!r} contains a token delimiter")
        out.append(Query(feature, tid, form_set))
    return out


def read_allowlist(path: str | Path, read: Reader = read_bytes) -> set[str]:
    """Read one iso3 code per line; # comments and blanks ignored."""
    out = set()
    for raw in read_lines(path, read):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.add(line)
    return out


def write_pivots_tsv(rows: list[Pivot], path: str | Path) -> Path:
    """Write ``rank iso3 translation surface chi2``, one line per pivot.

    Pivot sets and candidate rankings share this format.
    """
    lines = ["rank\tiso3\ttranslation\tsurface\tchi2"]
    for rank, p in enumerate(rows, start=1):
        lines.append(
            f"{rank}\t{p.iso3}\t{p.translation_id}\t{p.surface}\t{format(p.score, '.10g')}"
        )
    return write_lines(path, lines)


def read_pivots_tsv(
    corpus: MultiCorpus, path: str | Path, read: Reader = read_bytes
) -> list[Pivot]:
    """Pivots in rank order, as written by write_pivots_tsv.

    Raises DataError for a malformed file or a translation the corpus
    lacks.
    """
    lines = read_lines(path, read)
    if not lines or not lines[0].startswith("rank\t"):
        raise DataError(f"not a rank TSV: {path}")
    pivots = []
    for raw in lines[1:]:
        if not raw:
            continue
        parts = raw.split("\t")
        if len(parts) != 5:
            raise DataError(f"malformed rank line: {raw!r}")
        _, iso3, tid, surface, score = parts
        if tid not in corpus.translations:
            raise DataError(f"pivot references unknown translation {tid!r} in {path}")
        try:
            pivots.append(Pivot(iso3, tid, surface, float(score)))
        except ValueError:
            raise DataError(f"malformed rank line: {raw!r}") from None
    return pivots
