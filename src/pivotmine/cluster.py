"""Distributional clustering of markers and languages.

Markers are compared by the Jensen-Shannon divergence between their
normalized verse-presence distributions on a shared support; languages by
the mean JSD of their top markers across features. Trees come from UPGMA
with deterministic tie-breaking and serialize to Newick.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import MultiCorpus
from .errors import DataError
from .pivots import Pivot, PresenceMatrix, scan_pivots
from .stats import jsd, normalize
from .textio import read_lines, write_lines

logger = logging.getLogger(__name__)

DEFAULT_MIN_SHARED_VERSES = 7000
DEFAULT_JSD_THRESHOLD = 0.5

_BARE_LABEL_RE = re.compile(r"^[A-Za-z0-9_.+|-]+$")


@dataclass
class DistanceMatrix:
    labels: list[str]
    values: np.ndarray

    def of(self, a: str, b: str) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])


def distance_matrix(labeled: list[tuple[str, np.ndarray]]) -> DistanceMatrix:
    """Pairwise JSD between labeled distributions on one shared support."""
    if len(labeled) < 2:
        raise DataError("need at least two distributions to compare")
    size = {len(d) for _, d in labeled}
    if len(size) != 1:
        raise DataError("distributions do not share a support")
    if size.pop() == 0:
        raise DataError("empty shared support")
    n = len(labeled)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = jsd(labeled[i][1], labeled[j][1])
            values[i, j] = values[j, i] = d
    return DistanceMatrix([lb for lb, _ in labeled], values)


def marker_distance_matrix(matrix: PresenceMatrix) -> DistanceMatrix:
    """Distance matrix over a pivot set's presence columns.

    The shared support is the verses present in every member's
    translation; markers that never fire on it are dropped with a log
    line rather than failing the whole comparison.
    """
    support = ~matrix.missing.any(axis=1)
    if not support.any():
        raise DataError("no verse is shared by every pivot translation")
    labeled = []
    for idx, pivot in enumerate(matrix.pivots):
        col = matrix.matrix[support, idx].astype(float)
        if col.sum() <= 0:
            logger.warning(
                "marker %s excluded: no marked verse on the shared support",
                marker_label(pivot),
            )
            continue
        labeled.append((marker_label(pivot), normalize(col)))
    if len(labeled) < 2:
        raise DataError("fewer than two markers left after exclusions")
    return distance_matrix(labeled)


def marker_label(pivot: Pivot) -> str:
    return f"{pivot.iso3}_{pivot.surface}"


# --- UPGMA ------------------------------------------------------------------


@dataclass
class DendroNode:
    """A rooted ultrametric subtree; leaves carry the labels."""

    height: float
    size: int
    label: str | None = None
    children: tuple["DendroNode", "DendroNode"] | None = None
    min_label: str = ""

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def upgma(dm: DistanceMatrix) -> DendroNode:
    """Average-linkage agglomeration of a symmetric distance matrix.

    Merges the closest pair (ties: smallest pair of cluster labels, each
    cluster named by its smallest leaf), at height d/2, until one root
    remains. Average linkage is monotone, so heights never decrease and
    the result is ultrametric.
    """
    n = len(dm.labels)
    if n < 2:
        raise DataError("UPGMA needs at least two items")
    if dm.values.shape != (n, n):
        raise DataError("distance matrix shape does not match labels")
    if len(set(dm.labels)) != n:
        raise DataError("duplicate labels in distance matrix")
    work = dm.values.astype(float).copy()
    nodes = [
        DendroNode(0.0, 1, label=lb, min_label=lb) for lb in dm.labels
    ]
    active = list(range(n))
    while len(active) > 1:
        best: tuple[float, str, str, int, int] | None = None
        for ai in range(len(active)):
            for bi in range(ai + 1, len(active)):
                i, j = active[ai], active[bi]
                d = work[i, j]
                ka, kb = sorted((nodes[i].min_label, nodes[j].min_label))
                cand = (d, ka, kb, i, j)
                if best is None or cand[:3] < best[:3]:
                    best = cand
        assert best is not None
        d, _, _, i, j = best
        left, right = nodes[i], nodes[j]
        if left.min_label > right.min_label:
            left, right = right, left
        merged = DendroNode(
            height=d / 2.0,
            size=left.size + right.size,
            children=(left, right),
            min_label=left.min_label,
        )
        si, sj = nodes[i].size, nodes[j].size
        for k in active:
            if k in (i, j):
                continue
            nd = (si * work[i, k] + sj * work[j, k]) / (si + sj)
            work[i, k] = work[k, i] = nd
        nodes[i] = merged
        active.remove(j)
    return nodes[active[0]]


def _newick_label(label: str) -> str:
    if _BARE_LABEL_RE.match(label):
        return label
    return "'" + label.replace("'", "''") + "'"


def to_newick(root: DendroNode) -> str:
    """Serialize with branch lengths (parent height minus child height)."""

    def render(node: DendroNode, parent_height: float) -> str:
        branch = format(parent_height - node.height, ".12g")
        if node.is_leaf:
            return f"{_newick_label(node.label or '')}:{branch}"
        left, right = node.children
        inner = f"({render(left, node.height)},{render(right, node.height)})"
        return f"{inner}:{branch}"

    if root.is_leaf:
        return f"{_newick_label(root.label or '')};"
    left, right = root.children
    return f"({render(left, root.height)},{render(right, root.height)});"


def write_distance_tsv(dm: DistanceMatrix, path: str | Path) -> Path:
    """Square matrix TSV with a label header row and column."""
    lines = ["\t".join(["label"] + dm.labels)]
    for i, lb in enumerate(dm.labels):
        row = [lb] + [format(v, ".10g") for v in dm.values[i]]
        lines.append("\t".join(row))
    return write_lines(path, lines)


def read_distance_tsv(path: str | Path) -> DistanceMatrix:
    """Read write_distance_tsv's matrix: one row per header label, in
    header order; anything else is a DataError."""
    lines = read_lines(path)
    if not lines or not lines[0].startswith("label\t"):
        raise DataError(f"not a distance TSV: {path}")
    labels = lines[0].split("\t")[1:]
    if len(lines) != 1 + len(labels):
        raise DataError(f"{path}: {len(lines) - 1} rows for {len(labels)} labels")
    rows = []
    for label, raw in zip(labels, lines[1:]):
        parts = raw.split("\t")
        if len(parts) != len(labels) + 1 or parts[0] != label:
            raise DataError(f"malformed distance row: {raw!r}")
        try:
            rows.append([float(x) for x in parts[1:]])
        except ValueError:
            raise DataError(f"malformed distance row: {raw!r}") from None
    return DistanceMatrix(labels, np.array(rows))


# --- language distances ------------------------------------------------------


@dataclass
class LanguageDistanceReport:
    """What went into a language distance matrix, for the run log."""

    features: list[str]
    languages: list[str]
    excluded: dict[str, str]
    zero_support_pairs: int = 0


def language_distance(
    corpus: MultiCorpus,
    markers_by_feature: dict[str, dict[str, Pivot]],
    min_shared_verses: int = DEFAULT_MIN_SHARED_VERSES,
    head_translations: dict[str, str] | None = None,
) -> tuple[DistanceMatrix, LanguageDistanceReport]:
    """Mean per-feature JSD between languages' top markers.

    markers_by_feature maps feature -> iso3 -> top marker pivot. A
    language participates only when it has a marker for every feature and
    its marker translations each share at least min_shared_verses selected
    verses with that feature's head translation. Distances for one pair
    use the verses present in both marker translations; a marker silent on
    that pairwise support contributes the maximal divergence of 1.0.
    """
    features = sorted(markers_by_feature)
    if not features:
        raise DataError("no features given")
    head_translations = head_translations or {}
    shared_cache: dict[tuple[str, str], int] = {}

    def shared(tid_a: str, tid_b: str) -> int:
        key = tuple(sorted((tid_a, tid_b)))
        if key not in shared_cache:
            va = corpus.translations[key[0]].verses
            vb = corpus.translations[key[1]].verses
            shared_cache[key] = sum(
                1 for vid in corpus.selected_verses if vid in va and vid in vb
            )
        return shared_cache[key]

    excluded: dict[str, str] = {}
    langs: list[str] = []
    for iso3 in sorted({l for f in features for l in markers_by_feature[f]}):
        missing = [f for f in features if iso3 not in markers_by_feature[f]]
        if missing:
            excluded[iso3] = f"no marker for {','.join(missing)}"
            continue
        floor_fail = None
        for f in features:
            head_tid = head_translations.get(f)
            if head_tid is None:
                continue
            tid = markers_by_feature[f][iso3].translation_id
            if shared(tid, head_tid) < min_shared_verses:
                floor_fail = f
                break
        if floor_fail is not None:
            excluded[iso3] = f"fewer than {min_shared_verses} verses shared with {floor_fail} head"
            continue
        langs.append(iso3)
    if len(langs) < 2:
        raise DataError(
            f"fewer than two eligible languages (excluded: {len(excluded)})"
        )

    presence = [
        scan_pivots(corpus, [markers_by_feature[f][iso3] for iso3 in langs])[1]
        for f in features
    ]

    report = LanguageDistanceReport(features, langs, excluded)
    n = len(langs)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            per_feature = []
            for pm in presence:
                support = ~(pm.missing[:, i] | pm.missing[:, j])
                ca = pm.matrix[support, i].astype(float)
                cb = pm.matrix[support, j].astype(float)
                if not support.any() or ca.sum() == 0 or cb.sum() == 0:
                    report.zero_support_pairs += 1
                    per_feature.append(1.0)
                    continue
                per_feature.append(jsd(normalize(ca), normalize(cb)))
            values[i, j] = values[j, i] = float(np.mean(per_feature))
    if report.zero_support_pairs:
        logger.warning(
            "%d feature pairs had no shared marking support; scored as 1.0",
            report.zero_support_pairs,
        )
    if excluded:
        logger.info(
            "language distance excluded %d languages: %s",
            len(excluded),
            ", ".join(sorted(excluded)),
        )
    return DistanceMatrix(langs, values), report


def evaluate_family_prediction(
    dm: DistanceMatrix,
    families: dict[str, str],
    threshold: float = DEFAULT_JSD_THRESHOLD,
) -> dict:
    """Same-family prediction from thresholded distances, over all pairs.

    An unordered pair is predicted related when its distance is below the
    threshold. Labels without a family annotation are skipped. Returns
    accuracy, precision, recall, tnr plus the confusion counts and the
    related-pair base rate; empty denominators score 0.0.
    """
    labeled = [lb for lb in dm.labels if lb in families]
    if len(labeled) < 2:
        raise DataError("family evaluation needs at least two annotated languages")
    idx = {lb: dm.labels.index(lb) for lb in labeled}
    tp = fp = tn = fn = 0
    for i in range(len(labeled)):
        for j in range(i + 1, len(labeled)):
            a, b = labeled[i], labeled[j]
            predicted = dm.values[idx[a], idx[b]] < threshold
            actual = families[a] == families[b]
            if predicted and actual:
                tp += 1
            elif predicted and not actual:
                fp += 1
            elif not predicted and actual:
                fn += 1
            else:
                tn += 1
    total = tp + fp + tn + fn

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    return {
        "n_languages": len(labeled),
        "n_families": len({families[lb] for lb in labeled}),
        "n_pairs": total,
        "threshold": threshold,
        "tp": tp,
        "fp": fp,
        "tn": tn,
        "fn": fn,
        "accuracy": ratio(tp + tn, total),
        "precision": ratio(tp, tp + fp),
        "recall": ratio(tp, tp + fn),
        "tnr": ratio(tn, tn + fp),
        "base_rate": ratio(tp + fn, total),
    }
