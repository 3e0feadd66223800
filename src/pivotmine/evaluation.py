"""Ranking evaluation against gold markers.

A mined gram matches a gold marker when one contains the other (a mined
"ed " should credit gold "-ed", and a short gold clitic should credit a
longer mined gram). Per translation the score is the mean reciprocal rank
of the first match across the mined n sizes; per feature it is the mean
over translations with gold annotations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError
from .textio import Reader, read_bytes, read_table

logger = logging.getLogger(__name__)

MATCH_MODES = ("both", "gold_in_gram", "gram_in_gold")


def read_gold(path: str | Path, read: Reader = read_bytes) -> dict[tuple[str, str], set[str]]:
    """Read ``translation_id<TAB>feature<TAB>gold1,gold2,...`` rows."""
    out: dict[tuple[str, str], set[str]] = {}
    for number, (tid, feature, golds) in read_table(path, 3, read=read)[1]:
        forms = {g for g in golds.split(",") if g}
        if not forms:
            raise DataError(f"{path} line {number}: gold line without forms")
        out.setdefault((tid, feature), set()).update(forms)
    return out


def gram_matches(gram: str, gold: set[str], mode: str) -> bool:
    """Substring containment, as mode allows, between a gram and any gold form."""
    for g in gold:
        if mode in ("both", "gold_in_gram") and g in gram:
            return True
        if mode in ("both", "gram_in_gold") and gram in g:
            return True
    return False


def reciprocal_rank(grams: list[str], gold: set[str], mode: str) -> float:
    for rank, gram in enumerate(grams, start=1):
        if gram_matches(gram, gold, mode):
            return 1.0 / rank
    return 0.0


@dataclass
class MrrResult:
    feature: str
    per_translation: dict[str, float]
    aggregate: float
    excluded: list[str]


def mrr(
    ranked: dict[str, dict[int, list[str]]],
    gold: dict[tuple[str, str], set[str]],
    feature: str,
    mode: str,
) -> MrrResult:
    """Mean reciprocal rank of gold markers in mined rankings.

    ranked maps translation_id -> n -> ranked gram list. Translations
    without a gold entry for the feature are excluded (and listed). Per
    translation the reciprocal ranks are averaged over the n sizes
    present; a missing marker scores 0 at that n, so unmarked-gold
    languages can legitimately pull the mean down.
    """
    per: dict[str, float] = {}
    excluded: list[str] = []
    for tid in sorted(ranked):
        gold_forms = gold.get((tid, feature))
        if not gold_forms:
            excluded.append(tid)
            continue
        by_n = ranked[tid]
        if not by_n:
            per[tid] = 0.0
            continue
        rrs = [
            reciprocal_rank(by_n[n], gold_forms, mode) for n in sorted(by_n)
        ]
        per[tid] = sum(rrs) / len(rrs)
    if not per:
        raise DataError(f"no translation has gold annotations for {feature!r}")
    if excluded:
        logger.info(
            "mrr(%s): %d translations lack gold and were excluded",
            feature,
            len(excluded),
        )
    aggregate = sum(per.values()) / len(per)
    return MrrResult(feature, per, aggregate, excluded)


def mrr_table(results: list[MrrResult]) -> dict:
    """Assemble per-feature results into one report.

    rows: translation -> {feature: score or None, "all": mean over the
    features that scored it}; plus per-feature aggregates and the grand
    mean, mirroring the usual results-table layout.
    """
    features = [r.feature for r in results]
    tids = sorted({tid for r in results for tid in r.per_translation})
    rows = {}
    for tid in tids:
        row: dict[str, float | None] = {}
        scored = []
        for r in results:
            val = r.per_translation.get(tid)
            row[r.feature] = val
            if val is not None:
                scored.append(val)
        row["all"] = sum(scored) / len(scored) if scored else None
        rows[tid] = row
    aggregates = {r.feature: r.aggregate for r in results}
    aggregates["all"] = sum(r.aggregate for r in results) / len(results)
    return {
        "features": features,
        "rows": rows,
        "aggregates": aggregates,
        "excluded": {r.feature: r.excluded for r in results},
    }
