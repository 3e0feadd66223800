"""Verse maps from splitting pivots.

Starting from the verses the head pivot marks, a handful of additional
pivots are chosen greedily: each round splits the currently largest verse
cluster with the unused pivot whose presence is closest to an even split.
The resulting presence signatures over the chosen pivots partition the
selection into interpretable clusters that can be projected into any
translation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import MultiCorpus
from .errors import DataError
from .pivots import Pivot, PresenceMatrix
from .textio import remove_stale, write_lines, write_text

logger = logging.getLogger(__name__)

# Which cluster each round splits: the globally largest, or the chain of
# clusters in which every pivot chosen so far is present.
SPLIT_POLICIES = ("largest", "head-containing-chain")


@dataclass
class SplitChoice:
    """One round's decision, kept for the run log."""

    pivot: Pivot
    cluster_size: int
    fraction: float
    score: float


def _member_index(matrix: PresenceMatrix, pivot: Pivot) -> int:
    for idx, p in enumerate(matrix.pivots):
        if (p.translation_id, p.surface) == (pivot.translation_id, pivot.surface):
            return idx
    raise DataError(
        f"pivot {pivot.iso3}:{pivot.surface} is not a column of the matrix"
    )


def select_splitting_pivots(
    matrix: PresenceMatrix,
    head: Pivot,
    rounds: int,
    policy: str,
) -> tuple[list[Pivot], list[SplitChoice]]:
    """Pick the head plus `rounds` pivots that evenly split verse clusters.

    Split score of a pivot on a cluster is |presence fraction - 0.5|; the
    minimal score wins, ties broken by higher chi-square, then iso3, then
    surface. Under the "largest" policy the biggest current cluster
    (earliest-created on size ties) is split each round; under
    "head-containing-chain" each round splits the chain cluster, the set of
    verses marked by every pivot chosen so far (falling back to the other
    part if a split leaves the chain empty). Stops early, with a warning,
    if pivots run out.
    """
    head_idx = _member_index(matrix, head)
    verses = np.arange(len(matrix.verse_ids))
    head_col = matrix.matrix[:, head_idx].astype(bool)
    start = verses[head_col]
    if start.size == 0:
        raise DataError("head pivot marks no selected verse; nothing to map")
    chosen = [head]
    used = {head_idx}
    choices: list[SplitChoice] = []
    clusters: list[np.ndarray] = [start]
    chain = 0
    for _ in range(rounds):
        candidates = [i for i in range(len(matrix.pivots)) if i not in used]
        if not candidates:
            logger.warning("ran out of splitting pivots after %d rounds", len(choices))
            break
        if policy == "largest":
            target = max(range(len(clusters)), key=lambda ci: len(clusters[ci]))
        else:
            target = chain
        # every cluster is non-empty: splits keep only non-empty parts
        cluster = clusters[target]
        best = None
        for idx in candidates:
            col = matrix.matrix[cluster, idx]
            frac = float(col.mean())
            p = matrix.pivots[idx]
            key = (abs(frac - 0.5), -p.score, p.iso3, p.surface)
            if best is None or key < best[0]:
                best = (key, idx, frac)
        assert best is not None
        key, idx, frac = best
        pivot = matrix.pivots[idx]
        chosen.append(pivot)
        used.add(idx)
        choices.append(
            SplitChoice(pivot, int(cluster.size), frac, float(key[0]))
        )
        col = matrix.matrix[cluster, idx].astype(bool)
        with_pivot = cluster[col]
        without = cluster[~col]
        # cluster is non-empty, so at least one part survives the filter
        parts = [part for part in (with_pivot, without) if part.size]
        clusters[target : target + 1] = parts
        # chain tracks the with-pivot part, which lands at `target` when
        # present; an empty with-pivot part leaves the remainder there
        chain = target
    return chosen, choices


@dataclass
class SignatureCluster:
    """Verses sharing one presence signature over the chosen pivots."""

    signature: tuple[int, ...]
    verse_ids: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.verse_ids)

    @property
    def key(self) -> str:
        return "".join(str(b) for b in self.signature)


def signature_clusters(
    matrix: PresenceMatrix, pivots: list[Pivot]
) -> list[SignatureCluster]:
    """Partition all selected verses by their signature over the pivots.

    Sorted by descending size, then signature. Only observed signatures
    appear; when every verse carries some pivot there is no all-zeros
    cluster.
    """
    if not pivots:
        raise ValueError("need at least one pivot")
    idxs = [_member_index(matrix, p) for p in pivots]
    cols = matrix.matrix[:, idxs]
    buckets: dict[tuple[int, ...], list[str]] = {}
    for row, vid in enumerate(matrix.verse_ids):
        sig = tuple(int(x) for x in cols[row])
        buckets.setdefault(sig, []).append(vid)
    out = [
        SignatureCluster(sig, tuple(vids)) for sig, vids in buckets.items()
    ]
    out.sort(key=lambda c: (-c.size, c.signature))
    return out


def project_cluster(
    corpus: MultiCorpus, cluster_verses: list[str], translation_id: str
) -> list[tuple[str, str | None]]:
    """Texts of the cluster's verses in one translation; None if absent."""
    if translation_id not in corpus.translations:
        raise DataError(f"unknown translation {translation_id!r}")
    index = corpus.universe_index(cluster_verses)
    texts = corpus.texts(translation_id, index)
    has = corpus.presence(translation_id, index).tolist()
    return [(vid, text if h else None) for vid, text, h in zip(cluster_verses, texts, has)]


# --- file formats ---------------------------------------------------------


def write_splitters_tsv(
    chosen: list[Pivot], choices: list[SplitChoice], path: str | Path
) -> Path:
    """Head first, then one row per round with its split diagnostics."""
    lines = ["round\tiso3\ttranslation\tsurface\tcluster_size\tfraction"]
    head = chosen[0]
    lines.append(f"0\t{head.iso3}\t{head.translation_id}\t{head.surface}\t\t")
    for rnd, choice in enumerate(choices, start=1):
        p = choice.pivot
        lines.append(
            f"{rnd}\t{p.iso3}\t{p.translation_id}\t{p.surface}\t"
            f"{choice.cluster_size}\t{format(choice.fraction, '.6g')}"
        )
    return write_lines(path, lines)


def write_cluster_summary(clusters: list[SignatureCluster], path: str | Path) -> Path:
    lines = ["signature\tsize"]
    for c in clusters:
        lines.append(f"{c.key}\t{c.size}")
    return write_lines(path, lines)


def write_cluster_verses(clusters: list[SignatureCluster], out_dir: str | Path) -> list[Path]:
    """One ``{key}.txt`` of verse ids per cluster; returns the paths written.

    Other ``*.txt`` files in out_dir, say an earlier run's clusters, are
    removed first; files of any other kind are left alone.
    """
    out_dir = Path(out_dir)
    remove_stale(out_dir, "*.txt", {out_dir / f"{c.key}.txt" for c in clusters})
    return [
        write_text(out_dir / f"{c.key}.txt", "".join(f"{v}\n" for v in c.verse_ids))
        for c in clusters
    ]


def write_projection(
    projected: list[tuple[str, str | None]], path: str | Path
) -> Path:
    """``verse_id<TAB>text`` rows; verses missing from the translation are
    written with an empty text field."""
    return write_lines(
        path, (f"{vid}\t{'' if text is None else text}" for vid, text in projected)
    )
