"""Distributional clustering of markers and languages.

Markers are compared by the Jensen-Shannon divergence between their
normalized verse-presence distributions on a shared support; languages by
the mean JSD of their top markers across features. Both go through one
JSD over 0/1 presence columns. Trees come from UPGMA with deterministic
tie-breaking and serialize to Newick.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .corpus import MultiCorpus
from .errors import DataError
from .pivots import Pivot, PresenceMatrix, scan_pivots
from .textio import Reader, read_bytes, read_lines, write_lines

logger = logging.getLogger(__name__)

_BARE_LABEL_RE = re.compile(r"^[A-Za-z0-9_.+|-]+$")


@dataclass
class DistanceMatrix:
    labels: list[str]
    values: np.ndarray

    def of(self, a: str, b: str) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])


def _presence_jsd(matrix: np.ndarray, missing: np.ndarray) -> np.ndarray:
    """Pairwise JSD of the 0/1 columns of matrix, each pair over the rows
    that neither column misses.

    A column spreads its mass evenly over the rows it marks on the pair's
    support, so each side's KL term sums one of two values per marked
    row, in row order: the floats that stats.jsd sums on the normalized
    columns, so the result is the same bit for bit. A pair is NaN when
    either column marks no row of its support; the diagonal is 0.
    """
    present = ~missing.T
    marked = (matrix.T != 0) & present
    rows = [np.flatnonzero(col) for col in marked]

    def kl2(a: int, b: int, both: np.ndarray) -> float:
        # stats._kl2's terms p * log2(2p / s): s = p + q on the rows both
        # columns mark, s = p on the rows only this one marks
        p, q = 1.0 / a, 1.0 / b
        terms = p * np.log2(np.array([2.0 * p / (p + q), 2.0 * p / p]))
        return float(np.sum(np.where(both, terms[0], terms[1])))

    out = np.zeros((len(rows), len(rows)))
    for i, j in combinations(range(len(rows)), 2):
        ri = rows[i][present[j, rows[i]]]
        rj = rows[j][present[i, rows[j]]]
        out[i, j] = out[j, i] = (
            0.5 * kl2(ri.size, rj.size, marked[j, ri]) + 0.5 * kl2(rj.size, ri.size, marked[i, rj])
            if ri.size and rj.size
            else np.nan
        )
    return out


def marker_distance_matrix(matrix: PresenceMatrix) -> DistanceMatrix:
    """Distance matrix over a pivot set's presence columns.

    The shared support is the verses present in every member's
    translation; markers that never fire on it are dropped with a log
    line rather than failing the whole comparison.
    """
    support = ~matrix.missing.any(axis=1)
    if not support.any():
        raise DataError("no verse is shared by every pivot translation")
    columns = matrix.matrix[support]
    fires = columns.any(axis=0)
    for idx in np.flatnonzero(~fires):
        logger.warning(
            "marker %s excluded: no marked verse on the shared support",
            marker_label(matrix.pivots[idx]),
        )
    if fires.sum() < 2:
        raise DataError("fewer than two markers left after exclusions")
    columns = columns[:, fires]
    return DistanceMatrix(
        [marker_label(p) for p, keep in zip(matrix.pivots, fires) if keep],
        _presence_jsd(columns, np.zeros(columns.shape, dtype=bool)),
    )


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
    the result is ultrametric. The matrix must be finite and symmetric.
    """
    n = len(dm.labels)
    if n < 2:
        raise DataError("UPGMA needs at least two items")
    if dm.values.shape != (n, n):
        raise DataError("distance matrix shape does not match labels")
    if len(set(dm.labels)) != n:
        raise DataError("duplicate labels in distance matrix")
    work = dm.values.astype(float)
    if not np.isfinite(work).all() or not np.array_equal(work, work.T):
        raise DataError("distance matrix is not finite and symmetric")
    # +inf on the diagonal and on merged-away clusters keeps them out of
    # every minimum; a cluster's rank is that of its smallest label
    np.fill_diagonal(work, np.inf)
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=dm.labels.__getitem__)] = np.arange(n)
    nodes = [DendroNode(0.0, 1, label=lb, min_label=lb) for lb in dm.labels]
    for _ in range(n - 1):
        d = work.min()
        a, b = np.nonzero(work == d)
        ra, rb = rank[a], rank[b]
        best = np.argmin(np.minimum(ra, rb) * n + np.maximum(ra, rb))
        i, j = sorted((int(a[best]), int(b[best])))
        left, right = nodes[i], nodes[j]
        if left.min_label > right.min_label:
            left, right = right, left
        si, sj = nodes[i].size, nodes[j].size
        nodes[i] = DendroNode(
            height=d / 2.0,
            size=si + sj,
            children=(left, right),
            min_label=left.min_label,
        )
        row = (si * work[i] + sj * work[j]) / (si + sj)
        work[i], work[:, i] = row, row
        work[j], work[:, j] = np.inf, np.inf
        work[i, i] = np.inf
        rank[i] = min(rank[i], rank[j])
    return nodes[0]


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


def read_distance_tsv(path: str | Path, read: Reader = read_bytes) -> DistanceMatrix:
    """Read write_distance_tsv's matrix: one row per header label, in
    header order; anything else is a DataError."""
    lines = read_lines(path, read)
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
    zero_support_pairs: int


def language_distance(
    corpus: MultiCorpus,
    markers_by_feature: dict[str, dict[str, Pivot]],
    min_shared_verses: int,
    head_translations: dict[str, str],
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

    present = functools.cache(corpus.presence)

    excluded: dict[str, str] = {}
    langs: list[str] = []
    shared_counts = []  # every shared-verse count compared with the floor
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
            shared = int(np.count_nonzero(present(tid) & present(head_tid)))
            shared_counts.append(shared)
            if shared < min_shared_verses:
                floor_fail = f
                break
        if floor_fail is not None:
            excluded[iso3] = f"fewer than {min_shared_verses} verses shared with {floor_fail} head"
            continue
        langs.append(iso3)
    if len(langs) < 2:
        floor = ""
        if shared_counts:
            floor = (
                f"; min_shared_verses is {min_shared_verses}, and a marker translation"
                f" shares at most {max(shared_counts)} selected verses with its head"
            )
        raise DataError(f"fewer than two eligible languages (excluded: {len(excluded)}){floor}")

    # one scan of each marker translation for every feature's surface; the
    # columns run feature by feature, each over langs
    markers = [markers_by_feature[f][iso3] for f in features for iso3 in langs]
    pm = scan_pivots(corpus, markers)[2]
    cols = [slice(i * len(langs), (i + 1) * len(langs)) for i in range(len(features))]

    # features on the last, contiguous axis: np.mean then sums each pair's
    # features in the order (and with the pairwise grouping) of a 1-D mean
    per_feature = np.stack(
        [_presence_jsd(pm.matrix[:, c], pm.missing[:, c]) for c in cols], axis=-1
    )
    silent = np.isnan(per_feature)
    per_feature[silent] = 1.0
    report = LanguageDistanceReport(
        features, langs, excluded, int(silent[np.triu_indices(len(langs), 1)].sum())
    )
    values = np.mean(per_feature, axis=-1)
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
    threshold: float,
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
    idx = [dm.labels.index(lb) for lb in labeled]
    i, j = np.triu_indices(len(labeled), 1)
    predicted = dm.values[np.ix_(idx, idx)][i, j] < threshold
    family = np.unique([families[lb] for lb in labeled], return_inverse=True)[1]
    actual = family[i] == family[j]
    tn, fn, fp, tp = np.bincount(2 * predicted + actual, minlength=4).tolist()
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
