"""Pair-loop reference for the array clustering in pivotmine.cluster.

The oracle that marker_distance_matrix, language_distance's per-pair
mean, upgma and evaluate_family_prediction are tested against: one
stats.jsd call per pair of normalized presence columns, one Python loop
over the pairs of active clusters per UPGMA merge, and one loop over the
pairs of annotated labels. The package must match these bit for bit.
"""

from __future__ import annotations

import numpy as np

from pivotmine.cluster import DendroNode, DistanceMatrix, marker_label
from pivotmine.errors import DataError
from pivotmine.pivots import PresenceMatrix
from pivotmine.stats import jsd


def normalize(arr: np.ndarray) -> np.ndarray:
    """Scale non-negative weights with a positive sum to a probability vector."""
    return arr / float(arr.sum())


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
    """Normalized columns on the verses every member has, silent ones dropped."""
    support = ~matrix.missing.any(axis=1)
    if not support.any():
        raise DataError("no verse is shared by every pivot translation")
    labeled = []
    for idx, pivot in enumerate(matrix.pivots):
        col = matrix.matrix[support, idx].astype(float)
        if col.sum() <= 0:
            continue
        labeled.append((marker_label(pivot), normalize(col)))
    if len(labeled) < 2:
        raise DataError("fewer than two markers left after exclusions")
    return distance_matrix(labeled)


def language_pair_distances(presence: list[PresenceMatrix]) -> tuple[np.ndarray, int]:
    """Mean per-feature JSD of every pair of columns, each feature on the
    verses both columns have; a pair a column leaves unmarked there scores
    1.0 and is counted. Returns the matrix and that count."""
    n = presence[0].matrix.shape[1]
    values = np.zeros((n, n))
    zero_support_pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            per_feature = []
            for pm in presence:
                support = ~(pm.missing[:, i] | pm.missing[:, j])
                ca = pm.matrix[support, i].astype(float)
                cb = pm.matrix[support, j].astype(float)
                if not support.any() or ca.sum() == 0 or cb.sum() == 0:
                    zero_support_pairs += 1
                    per_feature.append(1.0)
                    continue
                per_feature.append(jsd(normalize(ca), normalize(cb)))
            values[i, j] = values[j, i] = float(np.mean(per_feature))
    return values, zero_support_pairs


def upgma(dm: DistanceMatrix) -> DendroNode:
    """Scan every pair of active clusters for the smallest
    (distance, min label, min label) and merge it into the lower index."""
    n = len(dm.labels)
    work = dm.values.astype(float).copy()
    nodes = [DendroNode(0.0, 1, label=lb, min_label=lb) for lb in dm.labels]
    active = list(range(n))
    while len(active) > 1:
        best = None
        for ai in range(len(active)):
            for bi in range(ai + 1, len(active)):
                i, j = active[ai], active[bi]
                ka, kb = sorted((nodes[i].min_label, nodes[j].min_label))
                cand = (work[i, j], ka, kb, i, j)
                if best is None or cand[:3] < best[:3]:
                    best = cand
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


def family_confusion(
    dm: DistanceMatrix, families: dict[str, str], threshold: float
) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) over the pairs of annotated labels, in matrix order."""
    labeled = [lb for lb in dm.labels if lb in families]
    idx = {lb: dm.labels.index(lb) for lb in labeled}
    tp = fp = tn = fn = 0
    for i in range(len(labeled)):
        for j in range(i + 1, len(labeled)):
            a, b = labeled[i], labeled[j]
            predicted = dm.values[idx[a], idx[b]] < threshold
            actual = families[a] == families[b]
            if predicted and actual:
                tp += 1
            elif predicted:
                fp += 1
            elif actual:
                fn += 1
            else:
                tn += 1
    return tp, fp, tn, fn
