"""Character n-gram mining driven by pivot positional profiles.

For a target translation without its own pivot, each selected verse gets a
profile: every pivot occurrence elsewhere contributes a Gaussian bell at
the proportionally projected character position (same relative offset,
which assumes roughly linear word-order correspondence). n-grams are then
counted inside windows around the profile's peak (positive) and trough
(negative) and ranked by chi-square.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import MultiCorpus
from .errors import DataError
from .pivots import PivotSet
from .stats import ContingencyTable, chi2, gaussian_kernel
from .textio import read_lines, write_lines

logger = logging.getLogger(__name__)

DEFAULT_SIGMA = 6.0
DEFAULT_WINDOW = 20
DEFAULT_TOP = 10
DEFAULT_N_RANGE = (2, 6)

GRAM_SPACE_ESCAPE = "␣"  # open box, stands in for a literal space


@dataclass
class PositionProfile:
    """Summed pivot bells over one verse's character positions."""

    verse_id: str
    scores: np.ndarray
    x_max: int
    x_min: int
    pivot_hits: int


def pivot_relative_positions(
    corpus: MultiCorpus, pivot_set: PivotSet
) -> dict[str, list[float]]:
    """Relative character midpoints of pivot occurrences, per verse.

    For each selected verse, every occurrence of every pivot token in its
    own translation contributes midpoint / text length. Pivots iterate in
    member order so results are reproducible.
    """
    rels: dict[str, list[float]] = {}
    for pivot in pivot_set.members:
        verses = corpus.translations[pivot.translation_id].verses
        toks = corpus.tokenized(pivot.translation_id)
        for vid in corpus.selected_verses:
            tokens = toks.get(vid)
            if not tokens:
                continue
            length = len(verses[vid])
            for tok in tokens:
                if tok.surface == pivot.surface:
                    mid = (tok.start + tok.end) / 2.0
                    rels.setdefault(vid, []).append(mid / length)
    return rels


def accumulate_profile(length: int, centers: list[int], sigma: float) -> np.ndarray:
    """Sum one truncated Gaussian bell per center over [0, length)."""
    scores = np.zeros(length, dtype=float)
    if length == 0:
        return scores
    radius, kernel = gaussian_kernel(sigma)
    for c in centers:
        c = min(max(c, 0), length - 1)
        lo = max(0, c - radius)
        hi = min(length - 1, c + radius)
        scores[lo : hi + 1] += kernel[lo - c + radius : hi - c + radius + 1]
    return scores


def position_profile(
    verse_id: str,
    target_text: str,
    relative_positions: list[float],
    sigma: float = DEFAULT_SIGMA,
) -> PositionProfile:
    """Project pivot positions onto one target verse and profile it.

    x_max / x_min are the leftmost argmax / argmin of the summed bells.
    With no pivot hits the profile is flat zero and x_max = x_min = 0.
    """
    length = len(target_text)
    if length == 0:
        return PositionProfile(verse_id, np.zeros(0), 0, 0, len(relative_positions))
    centers = [int(rel * length + 0.5) for rel in relative_positions]
    scores = accumulate_profile(length, centers, sigma)
    if centers:
        x_max = int(np.argmax(scores))
        x_min = int(np.argmin(scores))
    else:
        x_max = x_min = 0
    return PositionProfile(verse_id, scores, x_max, x_min, len(centers))


@dataclass(frozen=True)
class NgramCandidate:
    gram: str
    n: int
    rank: int
    pos_count: int
    neg_count: int
    score: float


@dataclass
class MiningResult:
    """Ranked n-gram candidates for one target translation."""

    translation_id: str
    by_n: dict[int, list[NgramCandidate]] = field(default_factory=dict)
    verses_scored: int = 0
    verses_positive: int = 0
    overlap_flagged: int = 0

    def top_grams(self, n: int) -> list[str]:
        return [c.gram for c in self.by_n.get(n, [])]


def _window_gram_counts(
    text: str, center: int, w: int, n_range: tuple[int, int], sink: dict[int, Counter]
) -> dict[int, int]:
    """Count grams whose character span overlaps [center - w, center + w].

    Returns the number of gram occurrences added per n.
    """
    length = len(text)
    added: dict[int, int] = {}
    for n in range(n_range[0], n_range[1] + 1):
        if n > length:
            added[n] = 0
            continue
        lo = max(0, center - w - n + 1)
        hi = min(length - n, center + w)
        counter = sink[n]
        for s in range(lo, hi + 1):
            counter[text[s : s + n]] += 1
        added[n] = hi - lo + 1
    return added


def mine_ngrams(
    corpus: MultiCorpus,
    translation_id: str,
    pivot_set: PivotSet,
    sigma: float = DEFAULT_SIGMA,
    w: int = DEFAULT_WINDOW,
    n_range: tuple[int, int] = DEFAULT_N_RANGE,
    top: int = DEFAULT_TOP,
    relative_positions: dict[str, list[float]] | None = None,
) -> MiningResult:
    """Mine marker n-grams for one target translation.

    Verses with at least one projected pivot contribute window counts
    around x_max (positive) and x_min (negative); verses none of the
    pivots mark count entirely as negative. Per n, candidates are ranked
    by chi-square of (positive window count vs negative window count)
    against the respective totals, ties broken lexicographically.
    """
    if n_range[0] < 1 or n_range[1] < n_range[0]:
        raise ValueError(f"bad n-gram range {n_range!r}")
    if w < 0:
        raise ValueError("window half-width must be >= 0")
    if translation_id not in corpus.translations:
        raise DataError(f"unknown translation {translation_id!r}")
    if relative_positions is None:
        relative_positions = pivot_relative_positions(corpus, pivot_set)
    verses = corpus.translations[translation_id].verses
    ns = range(n_range[0], n_range[1] + 1)
    pos_counts: dict[int, Counter] = {n: Counter() for n in ns}
    neg_counts: dict[int, Counter] = {n: Counter() for n in ns}
    pos_totals = {n: 0 for n in ns}
    neg_totals = {n: 0 for n in ns}
    result = MiningResult(translation_id)
    for vid in corpus.selected_verses:
        text = verses.get(vid)
        if text is None or not text:
            continue
        result.verses_scored += 1
        rels = relative_positions.get(vid, [])
        if rels:
            profile = position_profile(vid, text, rels, sigma)
            result.verses_positive += 1
            if abs(profile.x_max - profile.x_min) <= 2 * w:
                result.overlap_flagged += 1
            added = _window_gram_counts(text, profile.x_max, w, n_range, pos_counts)
            for n, cnt in added.items():
                pos_totals[n] += cnt
            added = _window_gram_counts(text, profile.x_min, w, n_range, neg_counts)
            for n, cnt in added.items():
                neg_totals[n] += cnt
        else:
            for n in ns:
                if n > len(text):
                    continue
                neg_counts[n].update(text[s : s + n] for s in range(len(text) - n + 1))
                neg_totals[n] += len(text) - n + 1
    if result.verses_scored == 0:
        logger.warning(
            "%s shares no selected verses with the corpus; empty mining result",
            translation_id,
        )
        return result
    if result.verses_positive == 0:
        logger.warning(
            "no pivot coverage overlaps %s; all verses counted negative",
            translation_id,
        )
    if result.overlap_flagged:
        logger.info(
            "%s: %d of %d profiled verses have overlapping +/- windows",
            translation_id,
            result.overlap_flagged,
            result.verses_positive,
        )
    for n in ns:
        scored = []
        for gram, a in pos_counts[n].items():
            table = ContingencyTable(
                a,
                pos_totals[n] - a,
                neg_counts[n].get(gram, 0),
                neg_totals[n] - neg_counts[n].get(gram, 0),
            )
            scored.append((chi2(table), gram, a))
        scored.sort(key=lambda t: (-t[0], t[1]))
        ranked = []
        for rank, (score, gram, a) in enumerate(scored[:top], start=1):
            ranked.append(
                NgramCandidate(gram, n, rank, a, neg_counts[n].get(gram, 0), score)
            )
        result.by_n[n] = ranked
    return result


def escape_gram(gram: str) -> str:
    """Make a gram safe for a TSV cell (spaces and tabs made visible)."""
    return gram.replace(" ", GRAM_SPACE_ESCAPE).replace("\t", "\\t")


def unescape_gram(cell: str) -> str:
    return cell.replace("\\t", "\t").replace(GRAM_SPACE_ESCAPE, " ")


def write_ngrams_tsv(result: MiningResult, path: str | Path) -> Path:
    """Write ``n rank gram pos neg chi2`` rows for every ranked gram."""
    lines = ["n\trank\tgram\tpos\tneg\tchi2"]
    for n in sorted(result.by_n):
        for cand in result.by_n[n]:
            lines.append(
                f"{n}\t{cand.rank}\t{escape_gram(cand.gram)}\t"
                f"{cand.pos_count}\t{cand.neg_count}\t{format(cand.score, '.10g')}"
            )
    return write_lines(path, lines)


def read_ngrams_tsv(path: str | Path) -> dict[int, list[str]]:
    """Ranked gram lists per n, as written by write_ngrams_tsv."""
    lines = read_lines(path)
    if not lines or not lines[0].startswith("n\t"):
        raise DataError(f"not an n-gram TSV: {path}")
    out: dict[int, list[str]] = {}
    for raw in lines[1:]:
        if not raw:
            continue
        parts = raw.split("\t")
        if len(parts) != 6:
            raise DataError(f"malformed n-gram line: {raw!r}")
        try:
            n = int(parts[0])
        except ValueError:
            raise DataError(f"malformed n-gram line: {raw!r}") from None
        out.setdefault(n, []).append(unescape_gram(parts[2]))
    return out
