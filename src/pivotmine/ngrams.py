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
    n are numbered by the key (id of their first n - 1 characters) * alpha
    + (rank of their last) with dense_index. Such a key is below
    size_{n-1} * alpha, at most len(text) ** 2: int32 where that bound is
    below 2**31, int64 otherwise.
    """
    code = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    alphabet, rank = dense_index(code, int(code.max(initial=0)) + 1)
    # rank owns its memory, so this frees the code points
    del code
    alpha = len(alphabet)
    # one byte per character for an alphabet of at most 255
    rank = rank.astype(np.min_scalar_type(alpha))
    ids, size = rank, alpha
    for n in range(1, ns.stop):
        if n > 1:
            space = size * alpha
            # The keys take the place of the ids they are built from, so
            # neither outlives its use.
            ids = np.multiply(ids[:-1], alpha, dtype=np.int32 if space < 2**31 else np.int64)
            ids += rank[n - 1 :]
            grams, ids = dense_index(ids, space)
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
        # the scores are dropped here, not held through the counting
        x_max[positive], x_min[positive] = _profiles(
            lengths[positive], (np.cumsum(positive) - 1)[owner], pivot_set.rel[keep], sigma
        )[1:]
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
    # Per character, clipped to [0, cap] in the smallest dtype that holds
    # cap: the room left in its verse, and the smallest n at which a gram
    # starting there counts positive and negative (cap for none). A gram of
    # length n starting at s counts positive where pos_from[s] <= n <=
    # room[s], and negative likewise; past room[s] it would cross into the
    # next verse.
    cap = n_range[1] + 1
    room = _narrow(_countdown(lengths, lengths), cap)
    pos_from = _first_overlap(lengths, x_max, w, cap)
    neg_from = _first_overlap(lengths, x_min, w, cap)
    unmarked = np.repeat(~positive, lengths)
    pos_from[unmarked] = cap
    # An unmarked verse is negative throughout.
    neg_from[unmarked] = 0
    del unmarked
    for n, ids, size in _gram_ids(joined, range(n_range[0], n_range[1] + 1)):
        result.by_n[n] = _candidates(joined, n, ids, size, room, pos_from, neg_from, top)
        # so that the next n's numbering can free them
        del ids
    return result


def _countdown(lengths: np.ndarray, at_start: np.ndarray) -> np.ndarray:
    """at_start[i] - p at each position p of verse i, the verses of the
    given lengths end to end, in int32."""
    starts = np.cumsum(lengths) - lengths
    out = np.repeat((at_start + starts).astype(np.int32), lengths)
    out -= np.arange(len(out), dtype=np.int32)
    return out


def _narrow(values: np.ndarray, cap: int) -> np.ndarray:
    """values, clipped to [0, cap] in place, in the smallest dtype that
    holds cap."""
    np.clip(values, 0, cap, out=values)
    return values.astype(np.min_scalar_type(cap))


def _first_overlap(lengths: np.ndarray, centers: np.ndarray, w: int, cap: int) -> np.ndarray:
    """At each position p of verse i, the smallest n at which the gram
    [p, p + n) overlaps [centers[i] - w, centers[i] + w], clipped to
    [0, cap]; cap past the window, where no n does."""
    # A wider window than the longest verse covers no more, and this one
    # keeps the countdown within int32.
    w = min(w, int(lengths.max()))
    need = _countdown(lengths, centers - w + 1)
    # need = c - w + 1 - p, so p > c + w where need < 1 - 2w
    past = need < 1 - 2 * w
    first = _narrow(need, cap)
    first[past] = cap
    return first


def _candidates(
    joined: str,
    n: int,
    ids: np.ndarray,
    size: int,
    room: np.ndarray,
    pos_from: np.ndarray,
    neg_from: np.ndarray,
    top: int,
) -> list[NgramCandidate]:
    """The top ranked grams of length n; ids, size as _gram_ids yields them
    and room, pos_from, neg_from as mine_ngrams lays them out."""
    k = len(ids)
    # the starts that fit in their verse, then those that count negative
    neg = room[:k] >= n
    pos = pos_from[:k] <= n
    pos &= neg
    neg &= neg_from[:k] <= n
    starts = np.flatnonzero(pos)
    del pos
    pos_ids = ids[starts]
    # np.add.at reads the int32 ids as they are, where np.bincount would
    # copy them to int64.
    counts = np.zeros(size, dtype=np.int64)
    np.add.at(counts, pos_ids, 1)
    # Only the positive grams are scored, in id order, that is
    # lexicographically.
    grams = np.flatnonzero(counts)
    pos_counts = counts[grams]
    counts[:] = 0
    np.add.at(counts, ids[neg], 1)
    neg_counts = counts[grams]
    ranked, scores = _rank_by_chi2(
        pos_counts, neg_counts, len(pos_ids), np.count_nonzero(neg), top
    )
    # counts now takes each positive gram to its first positive start (in
    # numpy's order of assignment; any start spells the gram), where its
    # text is read
    counts[pos_ids[::-1]] = starts[::-1]
    first = counts[grams[ranked]].tolist()
    return [
        NgramCandidate(joined[s : s + n], n, rank, int(pos_counts[i]), int(neg_counts[i]), score)
        for rank, (s, i, score) in enumerate(zip(first, ranked, scores), start=1)
    ]
