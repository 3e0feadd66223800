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
from pathlib import Path

import numpy as np

from .aligner import PairLinkStats, link_counts
from .config import RunConfig
from .corpus import MultiCorpus, can_be_token, find_surfaces
from .errors import DataError
from .stats import ContingencyTable, chi2
from .textio import Reader, Writer, read_bytes, read_table, write_bytes, write_lines

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


@dataclass(frozen=True, eq=False)
class PivotSet:
    """A pivot set and one scan of it over the selected verses of a corpus
    (scan_pivots), which mining, marker clustering and maps share.

    members are the pivots, one per column; expand_pivots orders them by
    descending score, one per language, head included. Whoever needs the
    head names it by its column. rows and rel are the members' token
    positions: the selected-verse row of each token and its relative
    midpoint, ordered by row, then column, then text order. matrix
    (uint8) and missing (bool) are verses x members: whether the member
    occurs in the verse, and whether its translation lacks the verse.
    """

    members: list[Pivot]
    rows: np.ndarray
    rel: np.ndarray
    matrix: np.ndarray
    missing: np.ndarray


def scan_pivots(corpus: MultiCorpus, members: list[Pivot]) -> PivotSet:
    """The pivot set of members, scanned over the selected verses.

    Each translation's selected verses are searched once for all of its
    members' surfaces (find_surfaces); a pivot listed twice fills two
    identical columns, and a verse the translation lacks is missing.
    Raises DataError when the corpus has no verse selection.
    """
    if not len(corpus.selected_index):
        raise DataError("presence matrix needs a verse selection")
    columns: dict[str, dict[str, list[int]]] = {}
    for col, p in enumerate(members):
        columns.setdefault(p.translation_id, {}).setdefault(p.surface, []).append(col)
    shape = (len(corpus.selected_index), len(members))
    matrix = np.zeros(shape, dtype=np.uint8)
    missing = np.zeros(shape, dtype=bool)
    found = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
    for tid, by_surface in columns.items():
        text, lengths = corpus.verses(tid)
        rows, which, rel = find_surfaces(text, lengths, list(by_surface))
        for k, surface_cols in enumerate(by_surface.values()):
            hit = which == k
            for col in surface_cols:
                found.append((rows[hit], np.full(hit.sum(), col), rel[hit]))
                missing[:, col] = lengths < 0
    rows, cols, rel = map(np.concatenate, zip(*found))
    matrix[rows, cols] = 1
    order = np.lexsort((cols, rows))
    return PivotSet(list(members), rows[order], rel[order], matrix, missing)


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
    """One search of every verse of the query translation, selected or
    not (find_surfaces): DataError naming the first verse in file order
    where synthetic already occurs as a token (the merge would be
    ambiguous), and a warning when no token is one of forms."""
    index = corpus.translations[translation_id].verse_index
    verse, which, _ = find_surfaces(
        *corpus.verses(translation_id, index), [synthetic, *sorted(forms)]
    )
    clash = verse[which == 0]
    if len(clash):
        vid = corpus.verse_universe[index[clash[0]]]
        raise DataError(
            f"synthetic token {synthetic!r} already occurs in {translation_id} verse {vid}"
        )
    if not len(verse):
        logger.warning("query merge matched no tokens in %s", translation_id)


def find_head_pivot(
    corpus: MultiCorpus, query: Query, allowlist: set[str], cfg: RunConfig
) -> Pivot:
    """Find the best-associated allowlisted word for a feature query.

    The query forms are merged into one synthetic token in the query
    translation's encoding (see link_counts), which is aligned against the
    allowlisted translations only. Candidates below cfg.min_count are
    skipped (score_candidates). Raises DataError when no allowlisted
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
        stats = link_counts(corpus, query.translation_id, synthetic, cfg, targets, forms)
        return score_candidates(corpus, stats, cfg.min_count)

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


def rank_pivot_candidates(corpus: MultiCorpus, head: Pivot, cfg: RunConfig) -> list[Pivot]:
    """Score candidates in every translation against the head pivot; those
    below cfg.min_count are skipped (score_candidates)."""
    stats = link_counts(corpus, head.translation_id, head.surface, cfg)
    return score_candidates(corpus, stats, cfg.min_count)


def expand_pivots(
    corpus: MultiCorpus, feature: str, head: Pivot, k: int, ranking: list[Pivot]
) -> PivotSet:
    """Grow the pivot set to k members (head included), one per language.

    Walks the ranking (rank_pivot_candidates) in order, skipping languages
    already represented and zero scores; warns when fewer than k members
    are reachable. The set comes scanned (scan_pivots).
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
    return scan_pivots(corpus, members)


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
    """Read ``feature<TAB>translation_id<TAB>form1,form2,...`` rows.

    Raises DataError, naming the path and the line, for a table read_table
    refuses, a row without a form, or a feature that would put a delimiter
    into its synthetic query token, and naming both lines for a feature
    listed twice.
    """
    out, lines = [], {}
    for number, (feature, tid, forms) in read_table(path, 3, read=read)[1]:
        form_set = frozenset(f for f in forms.split(",") if f)
        if not form_set:
            raise DataError(f"{path} line {number}: query line has no forms")
        if not can_be_token(synthetic_query_token(feature)):
            raise DataError(
                f"{path} line {number}: query feature {feature!r} contains a token delimiter"
            )
        if feature in lines:
            raise DataError(
                f"{path} lines {lines[feature]} and {number}: "
                f"query feature {feature!r} listed twice"
            )
        lines[feature] = number
        out.append(Query(feature, tid, form_set))
    return out


def read_allowlist(path: str | Path, read: Reader = read_bytes) -> set[str]:
    """Read one iso3 code per line."""
    return {iso3 for _, (iso3,) in read_table(path, 1, read=read)[1]}


def write_pivots_tsv(rows: list[Pivot], path: str | Path, write: Writer = write_bytes) -> Path:
    """Write ``rank iso3 translation surface chi2``, one line per pivot,
    through write.

    Pivot sets and candidate rankings share this format.
    """
    lines = ["rank\tiso3\ttranslation\tsurface\tchi2"]
    for rank, p in enumerate(rows, start=1):
        lines.append(
            f"{rank}\t{p.iso3}\t{p.translation_id}\t{p.surface}\t{format(p.score, '.10g')}"
        )
    return write_lines(path, lines, write)


def check_pivot(
    corpus: MultiCorpus, where: str, what: str, iso3: str, translation_id: str, surface: str
) -> None:
    """DataError, prefixed with where, for a pivot read from a file (what
    names it) whose translation the corpus lacks, whose iso3 is not that
    translation's, or whose surface no token can have (can_be_token)."""
    trans = corpus.translations.get(translation_id)
    if trans is None:
        raise DataError(f"{where}: {what} references unknown translation {translation_id!r}")
    if iso3 != trans.iso3:
        raise DataError(f"{where}: {what} iso3 {iso3!r} is not {translation_id}'s {trans.iso3!r}")
    if not can_be_token(surface):
        raise DataError(f"{where}: no token can have the surface {surface!r}")


def read_pivots_tsv(
    corpus: MultiCorpus, path: str | Path, read: Reader = read_bytes
) -> list[Pivot]:
    """Pivots in rank order, as written by write_pivots_tsv.

    Raises DataError, naming the path and the line, for a table read_table
    refuses, a rank or score that is not a number, a pivot check_pivot
    refuses, or ranks that do not count up 1, 2, 3, ... (a doubled or
    dropped row).
    """
    pivots = []
    for number, (rank, iso3, tid, surface, score) in read_table(path, 5, "rank", read)[1]:
        where = f"{path} line {number}"
        check_pivot(corpus, where, "pivot", iso3, tid, surface)
        try:
            rank, pivot = int(rank), Pivot(iso3, tid, surface, float(score))
        except ValueError as exc:
            raise DataError(f"{where}: malformed rank line: {exc}") from None
        if rank != len(pivots) + 1:
            raise DataError(f"{where}: rank {rank} where {len(pivots) + 1} was due")
        pivots.append(pivot)
    return pivots
