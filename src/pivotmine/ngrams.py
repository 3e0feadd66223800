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
from dataclasses import dataclass, field

import numpy as np

from .corpus import MultiCorpus, dense_index
from .errors import DataError
from .pivots import PivotSet
from .stats import ContingencyTable, chi2, gaussian_kernel

logger = logging.getLogger(__name__)

def _profiles(
    lengths: np.ndarray, owner: np.ndarray, rel: np.ndarray, sigma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Profiles of several non-empty verses laid end to end.

    Verse i has length lengths[i] and one bell per entry of rel whose owner
    is i (owner is non-decreasing), centered at int(rel * length + 0.5) and
    clamped into the verse. The bells are summed over a layout that pads
    each verse with radius positions on both sides, so every bell fits
    whole, and the pads are dropped. The j-th bell of every verse is added
    in round j, so each position sums its bells in the order a
    verse-at-a-time loop would, and the sums are bit-identical to it.
    Returns the flat scores and each verse's leftmost argmax and argmin.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    counts = np.bincount(owner, minlength=len(lengths))
    nth = np.arange(len(rel)) - np.repeat(np.cumsum(counts) - counts, counts)
    centers = (rel * lengths[owner] + 0.5).astype(np.int64)
    centers = np.clip(centers, 0, lengths[owner] - 1)
    radius, kernel = gaussian_kernel(sigma)
    # Position p of verse i sits at offsets[i] + p + pad[i] in the layout.
    pad = (2 * np.arange(len(lengths)) + 1) * radius
    total = int(lengths.sum())
    padded = np.zeros(total + 2 * radius * len(lengths))
    order = np.argsort(nth, kind="stable")
    first = (centers + offsets[owner] + pad[owner] - radius)[order]
    # windows[s] is the view of the 2 * radius + 1 positions from s
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * radius + 1, writeable=True)
    for bells in np.split(first, np.cumsum(np.bincount(nth))[:-1]):
        # One bell per verse per round, and the verses' windows are
        # disjoint, so no position is added twice within a round.
        windows[bells] += kernel
    scores = padded[np.arange(total) + np.repeat(pad, lengths)]
    segment = np.repeat(np.arange(len(lengths)), lengths)

    def leftmost(extreme: np.ndarray) -> np.ndarray:
        hits = np.flatnonzero(scores == extreme[segment])
        return hits[np.searchsorted(segment[hits], np.arange(len(lengths)))] - offsets

    x_max = leftmost(np.maximum.reduceat(scores, offsets))
    x_min = leftmost(np.minimum.reduceat(scores, offsets))
    return scores, x_max, x_min


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


def _gram_ids(text: str, ns: range):
    """Yield (n, ids, size) for each n in ns; ids[s] numbers text[s:s + n].

    Ids are dense in [0, size) and order like the grams themselves. Each
    character gets its rank in the text's alphabet, and the grams of length
    n are numbered by the pair (id of their first n - 1 characters, rank of
    their last) with dense_index. Such a key is below size_{n-1} * alpha,
    at most len(text) ** 2, so it cannot overflow int64.
    """
    code = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    alphabet, rank = dense_index(code, int(code.max(initial=0)) + 1)
    alpha = len(alphabet)
    ids, size = rank, alpha
    for n in range(1, ns.stop):
        if n > 1:
            keys = ids[:-1].astype(np.int64) * alpha
            keys += rank[n - 1 :]
            grams, ids = dense_index(keys, size * alpha)
            size = len(grams)
        if n in ns:
            yield n, ids, size


# A gram is scored exactly when its float chi-square is within this relative
# margin below the float score of rank top. The float formula rounds seven
# times, once to convert ad - bc (the other integers are below 2**53) and
# once per operation, so it is within 8 * 2**-53 < 1e-15 of the exact score,
# and no gram of the exact top lies more than twice that below the bar.
CHI2_MARGIN = 1e-9


def _rank_by_chi2(
    a: np.ndarray, c: np.ndarray, pos_total: int, neg_total: int, top: int
) -> tuple[list[int], list[float]]:
    """The indices and chi-square scores of the top grams, best first.

    Gram i has a[i] of the pos_total positive window counts and c[i] of
    the neg_total negative ones; its score is stats.chi2 of that table,
    ties kept in index order. Every score is first taken in float64, and
    only the grams within CHI2_MARGIN of the float score of rank top are
    scored exactly.
    """
    b = pos_total - a
    d = neg_total - c
    # ad > bc needs a, d > 0, so no margin of such a table is zero; every
    # other table scores 0.0. Both products are below 2**62.
    cross = a * d - b * c
    live = cross > 0
    approx = np.zeros(len(a))
    cross = cross[live].astype(float)
    approx[live] = (
        (pos_total + neg_total) * cross * cross
        / (float(pos_total) * neg_total * (a + c)[live] * (b + d)[live])
    )
    keep = np.arange(len(a))
    if 0 < top < len(a):
        bar = np.partition(approx, len(a) - top)[len(a) - top]
        keep = np.flatnonzero(approx >= bar * (1 - CHI2_MARGIN))
    scores = np.zeros(len(keep))
    rows = keep[live[keep]]
    tables = zip(*(x[rows].tolist() for x in (a, b, c, d)))
    scores[live[keep]] = [chi2(ContingencyTable(*table)) for table in tables]
    ranked = np.argsort(-scores, kind="stable")[:top]
    return keep[ranked].tolist(), scores[ranked].tolist()


def mine_ngrams(
    corpus: MultiCorpus,
    translation_id: str,
    pivot_set: PivotSet,
    sigma: float,
    w: int,
    n_range: tuple[int, int],
    top: int,
) -> MiningResult:
    """Mine marker n-grams for one target translation.

    The pivot positions are the pivot set's, over the selected verses of
    corpus. Verses with at least one projected pivot contribute window
    counts around x_max (positive) and x_min (negative); verses none of the
    pivots mark count entirely as negative. A window around x counts the
    grams whose span overlaps [x - w, x + w] within the verse. Per n,
    candidates are ranked by chi-square of (positive window count vs
    negative window count) against the respective totals, ties broken
    lexicographically.
    """
    if translation_id not in corpus.translations:
        raise DataError(f"unknown translation {translation_id!r}")
    # Only non-empty verses are scored; owner numbers them.
    lengths = corpus.lengths(translation_id)
    scored = lengths > 0
    lengths = lengths[scored]
    keep = scored[pivot_set.rows]
    owner = (np.cumsum(scored) - 1)[pivot_set.rows[keep]]
    result = MiningResult(translation_id, verses_scored=len(lengths))
    if not len(lengths):
        logger.warning(
            "%s shares no selected verses with the corpus; empty mining result",
            translation_id,
        )
        return result
    positive = np.bincount(owner, minlength=len(lengths)) > 0
    x_max = np.zeros(len(lengths), dtype=np.int64)
    x_min = np.zeros(len(lengths), dtype=np.int64)
    if positive.any():
        _, x_max[positive], x_min[positive] = _profiles(
            lengths[positive], (np.cumsum(positive) - 1)[owner], pivot_set.rel[keep], sigma
        )
    result.verses_positive = int(positive.sum())
    result.overlap_flagged = int((positive & (np.abs(x_max - x_min) <= 2 * w)).sum())
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
    # the verses lacking or empty add nothing
    joined = corpus.joined_text(translation_id)
    # Per character, in int32: the room left in its verse, and its offsets
    # from the verse's positive and negative centers. A gram of length n
    # may start where room >= n; a start past that would cross into the
    # next verse.
    room = np.repeat(np.cumsum(lengths, dtype=np.int32), lengths)
    room -= np.arange(len(joined), dtype=np.int32)
    from_max = np.repeat((lengths - x_max).astype(np.int32), lengths) - room
    from_min = np.repeat((lengths - x_min).astype(np.int32), lengths) - room
    marked = np.repeat(positive, lengths)
    for n, ids, size in _gram_ids(joined, range(n_range[0], n_range[1] + 1)):
        k = len(ids)
        fits = room[:k] >= n
        in_pos = (from_max[:k] >= 1 - n - w) & (from_max[:k] <= w)
        in_neg = (from_min[:k] >= 1 - n - w) & (from_min[:k] <= w)
        pos_starts = np.flatnonzero(fits & marked[:k] & in_pos)
        pos_ids = ids[pos_starts]
        # An unmarked verse is negative throughout.
        neg_ids = ids[fits & (in_neg | ~marked[:k])]
        pos_counts = np.bincount(pos_ids, minlength=size)
        neg_counts = np.bincount(neg_ids, minlength=size)
        # Only the positive grams are scored, in id order, that is
        # lexicographically.
        grams = np.flatnonzero(pos_counts)
        ranked, scores = _rank_by_chi2(
            pos_counts[grams], neg_counts[grams], len(pos_ids), len(neg_ids), top
        )
        start = np.empty(size, dtype=np.int64)
        start[pos_ids] = pos_starts
        result.by_n[n] = [
            NgramCandidate(
                joined[start[g] : start[g] + n],
                n,
                rank,
                int(pos_counts[g]),
                int(neg_counts[g]),
                score,
            )
            for rank, (g, score) in enumerate(zip(grams[ranked].tolist(), scores), start=1)
        ]
    return result
