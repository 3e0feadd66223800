"""Counter-based reference for the array n-gram miner and the pivot scans.

The oracle that pivotmine.ngrams.mine_ngrams, ngrams._profiles and the
pivot scan (pivots.scan_pivots, with its positions and presence matrix)
are tested against:
one profile per verse with its bells added one at a time, one Counter per
n fed a string slice per gram, and pivot lookups through the character
loop tokenizer of helpers.tokenize_reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from helpers import CONFIG, tokenize_reference, verses_of
from pivotmine.corpus import MultiCorpus
from pivotmine.errors import DataError
from pivotmine.ngrams import MiningResult, NgramCandidate
from pivotmine.pivots import PivotSet
from pivotmine.stats import ContingencyTable, chi2, gaussian_kernel


@dataclass
class PositionProfile:
    """Summed pivot bells over one verse's character positions."""

    verse_id: str
    scores: np.ndarray
    x_max: int
    x_min: int
    pivot_hits: int


def token_presence_vector(
    corpus: MultiCorpus, translation_id: str, surface: str
) -> tuple[np.ndarray, np.ndarray]:
    """Presence/missing indicator arrays from the reference tokenizer."""
    verses = verses_of(corpus, translation_id)
    n = len(corpus.selected_verses)
    presence = np.zeros(n, dtype=np.uint8)
    missing = np.zeros(n, dtype=bool)
    for r, vid in enumerate(corpus.selected_verses):
        text = verses.get(vid)
        if text is None:
            missing[r] = True
        elif any(tok == surface for tok, _, _ in tokenize_reference(text)):
            presence[r] = 1
    return presence, missing


def token_relative_positions(
    corpus: MultiCorpus, pivot_set: PivotSet
) -> dict[str, list[float]]:
    """Relative midpoints of pivot occurrences, from the reference tokenizer."""
    rels: dict[str, list[float]] = {}
    for pivot in pivot_set.members:
        verses = verses_of(corpus, pivot.translation_id)
        for vid in corpus.selected_verses:
            text = verses.get(vid)
            if not text:
                continue
            for tok, start, end in tokenize_reference(text):
                if tok == pivot.surface:
                    mid = (start + end) / 2.0
                    rels.setdefault(vid, []).append(mid / len(text))
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
    sigma: float = CONFIG.sigma,
) -> PositionProfile:
    """One verse's profile, built bell by bell."""
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
    sigma: float = CONFIG.sigma,
    w: int = CONFIG.window,
    n_range: tuple[int, int] = (CONFIG.n_min, CONFIG.n_max),
    top: int = CONFIG.top,
    relative_positions: dict[str, list[float]] | None = None,
) -> MiningResult:
    """Mine marker n-grams for one target translation, verse by verse."""
    if n_range[0] < 1 or n_range[1] < n_range[0]:
        raise ValueError(f"bad n-gram range {n_range!r}")
    if w < 0:
        raise ValueError("window half-width must be >= 0")
    if translation_id not in corpus.translations:
        raise DataError(f"unknown translation {translation_id!r}")
    if relative_positions is None:
        relative_positions = token_relative_positions(corpus, pivot_set)
    verses = verses_of(corpus, translation_id)
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
        return result
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
        result.by_n[n] = [
            NgramCandidate(gram, n, rank, a, neg_counts[n].get(gram, 0), score)
            for rank, (score, gram, a) in enumerate(scored[:top], start=1)
        ]
    return result
