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
from .pivots import Pivot, PivotSet
from .textio import Writer, remove_stale, write_bytes, write_lines

logger = logging.getLogger(__name__)


@dataclass
class SplitChoice:
    """One round's decision, kept for the run log: a pivot set column."""

    column: int
    cluster_size: int
    fraction: float
    score: float


def select_splitting_pivots(
    pivot_set: PivotSet,
    head: int,
    rounds: int,
    policy: str,
) -> list[SplitChoice]:
    """Pick `rounds` columns of the pivot set that, after the head column,
    evenly split verse clusters.

    Split score of a pivot on a cluster is |presence fraction - 0.5|; the
    minimal score wins, ties broken by higher chi-square, then iso3, then
    surface. Under the "largest" policy the biggest current cluster
    (earliest-created on size ties) is split each round; under
    "head-containing-chain" each round splits the chain cluster, the set of
    verses marked by every pivot chosen so far (falling back to the other
    part if a split leaves the chain empty). Stops early, with a warning,
    if pivots run out.
    """
    matrix, members = pivot_set.matrix, pivot_set.members
    verses = np.arange(len(matrix))
    start = verses[matrix[:, head].astype(bool)]
    if start.size == 0:
        raise DataError("head pivot marks no selected verse; nothing to map")
    ties = [(-p.score, p.iso3, p.surface) for p in members]
    used = {head}
    choices: list[SplitChoice] = []
    clusters: list[np.ndarray] = [start]
    chain = 0
    for _ in range(rounds):
        candidates = [i for i in range(len(members)) if i not in used]
        if not candidates:
            logger.warning("ran out of splitting pivots after %d rounds", len(choices))
            break
        if policy == "largest":
            target = max(range(len(clusters)), key=lambda ci: len(clusters[ci]))
        else:
            target = chain
        # every cluster is non-empty: splits keep only non-empty parts
        cluster = clusters[target]
        # sums of 0/1 are exact, so each fraction is its column's mean
        fractions = (matrix[cluster].sum(axis=0) / cluster.size).tolist()
        idx = min(candidates, key=lambda i: (abs(fractions[i] - 0.5), ties[i]))
        used.add(idx)
        choices.append(SplitChoice(idx, cluster.size, fractions[idx], abs(fractions[idx] - 0.5)))
        col = matrix[cluster, idx].astype(bool)
        with_pivot = cluster[col]
        without = cluster[~col]
        # cluster is non-empty, so at least one part survives the filter
        parts = [part for part in (with_pivot, without) if part.size]
        clusters[target : target + 1] = parts
        # chain tracks the with-pivot part, which lands at `target` when
        # present; an empty with-pivot part leaves the remainder there
        chain = target
    return choices


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
    pivot_set: PivotSet, verse_ids: tuple[str, ...], columns: list[int]
) -> list[SignatureCluster]:
    """Partition the selected verses, whose ids verse_ids lists in row
    order, by their signature over the pivot set's columns.

    Sorted by descending size, then signature. Only observed signatures
    appear; when every verse carries some pivot there is no all-zeros
    cluster.
    """
    if not columns:
        raise ValueError("need at least one pivot")
    cols = pivot_set.matrix[:, columns]
    buckets: dict[tuple[int, ...], list[str]] = {}
    for row, vid in enumerate(verse_ids):
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
    text, lengths = corpus.verses(translation_id, corpus.universe_index(cluster_verses))
    end = np.cumsum(np.maximum(lengths, 0)).tolist()
    return [
        (vid, None if n < 0 else text[b - n : b])
        for vid, n, b in zip(cluster_verses, lengths.tolist(), end)
    ]


# --- file formats ---------------------------------------------------------


def write_splitters_tsv(
    members: list[Pivot], head: int, choices: list[SplitChoice], path: str | Path,
    write: Writer = write_bytes,
) -> Path:
    """The head member first, then one row per round with its split
    diagnostics, written through write."""
    lines = ["round\tiso3\ttranslation\tsurface\tcluster_size\tfraction"]
    p = members[head]
    lines.append(f"0\t{p.iso3}\t{p.translation_id}\t{p.surface}\t\t")
    for rnd, choice in enumerate(choices, start=1):
        p = members[choice.column]
        lines.append(
            f"{rnd}\t{p.iso3}\t{p.translation_id}\t{p.surface}\t"
            f"{choice.cluster_size}\t{format(choice.fraction, '.6g')}"
        )
    return write_lines(path, lines, write)


def write_cluster_summary(
    clusters: list[SignatureCluster], path: str | Path, write: Writer = write_bytes
) -> Path:
    lines = ["signature\tsize"]
    for c in clusters:
        lines.append(f"{c.key}\t{c.size}")
    return write_lines(path, lines, write)


def write_cluster_verses(
    clusters: list[SignatureCluster], out_dir: str | Path, write: Writer = write_bytes
) -> None:
    """One ``{key}.txt`` of verse ids per cluster, written through write.

    Other ``*.txt`` files in out_dir, say an earlier run's clusters, are
    removed first; files of any other kind are left alone.
    """
    out_dir = Path(out_dir)
    remove_stale(out_dir, "*.txt", {out_dir / f"{c.key}.txt" for c in clusters})
    for c in clusters:
        write_lines(out_dir / f"{c.key}.txt", c.verse_ids, write)
