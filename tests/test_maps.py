"""Splitting-pivot selection, signature clusters, projections."""

import logging

import numpy as np
import pytest

from helpers import CONFIG, make_corpus
from pivotmine.config import SPLIT_POLICIES, RunConfig
from pivotmine.errors import DataError
from pivotmine.maps import (
    project_cluster,
    select_splitting_pivots,
    signature_clusters,
    write_cluster_summary,
    write_cluster_verses,
    write_projection,
    write_splitters_tsv,
)
from pivotmine.pivots import Pivot, PresenceMatrix


def make_pm(columns, scores=None):
    """columns: list of (iso3, surface, bits); all same length."""
    n = len(columns[0][2])
    pivots = []
    mat = np.zeros((n, len(columns)), dtype=np.uint8)
    for idx, (iso3, surface, bits) in enumerate(columns):
        score = scores[idx] if scores else 1.0
        mat[:, idx] = bits
        pivots.append(Pivot(iso3, f"{iso3}_t", surface, score))
    vids = tuple(f"{i + 1:08d}" for i in range(n))
    return PresenceMatrix(vids, pivots, mat, np.zeros((n, len(columns)), bool))


def bits(marked, n):
    return [1 if i in marked else 0 for i in range(n)]


class TestSelection:
    def test_even_split_wins(self):
        pm = make_pm(
            [
                ("aaa", "head", bits(range(8), 8)),
                ("bbb", "even", bits({0, 1, 2, 3}, 8)),
                ("ccc", "skew", bits({0, 1, 2, 3, 4, 5}, 8)),
                ("ddd", "rare", bits({0}, 8)),
            ]
        )
        chosen, choices = select_splitting_pivots(pm, pm.pivots[0], 1, CONFIG.map_policy)
        assert [p.surface for p in chosen] == ["head", "even"]
        assert choices[0].cluster_size == 8
        assert choices[0].fraction == 0.5
        assert choices[0].score == 0.0

    def test_tie_breaks(self):
        # equal split scores: higher chi-square wins; then iso3, then surface
        pm = make_pm(
            [
                ("aaa", "head", bits(range(4), 4)),
                ("ccc", "x", bits({0, 1}, 4)),
                ("bbb", "y", bits({2, 3}, 4)),
            ],
            scores=[9.0, 1.0, 5.0],
        )
        chosen, _ = select_splitting_pivots(pm, pm.pivots[0], 1, CONFIG.map_policy)
        assert chosen[1].surface == "y"

        pm_eq = make_pm(
            [
                ("aaa", "head", bits(range(4), 4)),
                ("ccc", "x", bits({0, 1}, 4)),
                ("bbb", "y", bits({2, 3}, 4)),
                ("bbb", "a", bits({1, 2}, 4)),
            ],
            scores=[9.0, 2.0, 2.0, 2.0],
        )
        chosen, _ = select_splitting_pivots(pm_eq, pm_eq.pivots[0], 1, CONFIG.map_policy)
        assert (chosen[1].iso3, chosen[1].surface) == ("bbb", "a")

    def test_policy_divergence_on_third_round(self):
        cols = [
            ("aaa", "head", bits(range(8), 8)),
            ("bbb", "p1", bits({0, 1, 2, 3}, 8)),
            ("ccc", "p2", bits({0, 1}, 8)),
            ("ddd", "p3", bits({4, 5}, 8)),
        ]
        pm = make_pm(cols)
        _, largest = select_splitting_pivots(pm, pm.pivots[0], 3, "largest")
        _, chain = select_splitting_pivots(pm, pm.pivots[0], 3, "head-containing-chain")
        assert [c.cluster_size for c in largest] == [8, 4, 4]
        assert [c.cluster_size for c in chain] == [8, 4, 2]

    def test_zero_rounds(self):
        pm = make_pm([("aaa", "head", bits(range(4), 4))])
        chosen, choices = select_splitting_pivots(pm, pm.pivots[0], 0, CONFIG.map_policy)
        assert chosen == [pm.pivots[0]]
        assert choices == []

    def test_runs_out_with_warning(self, caplog):
        pm = make_pm(
            [("aaa", "head", bits(range(4), 4)), ("bbb", "p", bits({0}, 4))]
        )
        with caplog.at_level(logging.WARNING):
            chosen, choices = select_splitting_pivots(pm, pm.pivots[0], 3, CONFIG.map_policy)
        assert len(chosen) == 2
        assert len(choices) == 1
        assert "ran out of splitting pivots" in caplog.text

    def test_validation(self):
        pm = make_pm([("aaa", "head", bits(range(4), 4)), ("bbb", "p", bits({0}, 4))])
        # RunConfig checks map_rounds and map_policy (test_cli's
        # TestConfig::test_validation_bounds); every policy is accepted there
        assert set(SPLIT_POLICIES) == {"largest", "head-containing-chain"}
        for policy in SPLIT_POLICIES:
            RunConfig(map_policy=policy, map_rounds=0)
        stranger = Pivot("zzz", "zzz_t", "q", 1.0)
        with pytest.raises(DataError):
            select_splitting_pivots(pm, stranger, CONFIG.map_rounds, CONFIG.map_policy)

    def test_head_marks_nothing(self):
        pm = make_pm([("aaa", "head", bits(set(), 4)), ("bbb", "p", bits({0}, 4))])
        with pytest.raises(DataError):
            select_splitting_pivots(pm, pm.pivots[0], CONFIG.map_rounds, CONFIG.map_policy)


class TestSignatures:
    def test_observed_signatures_only(self):
        pm = make_pm(
            [
                ("aaa", "a", [1, 1, 0, 1]),
                ("bbb", "b", [1, 0, 0, 0]),
            ]
        )
        clusters = signature_clusters(pm, pm.pivots)
        assert [(c.key, c.size) for c in clusters] == [
            ("10", 2),
            ("00", 1),
            ("11", 1),
        ]
        by_key = {c.key: c.verse_ids for c in clusters}
        assert by_key["11"] == ("00000001",)
        assert by_key["10"] == ("00000002", "00000004")
        assert by_key["00"] == ("00000003",)

    def test_all_marked_single_cluster(self):
        pm = make_pm([("aaa", "a", [1, 1, 1])])
        clusters = signature_clusters(pm, pm.pivots)
        assert [(c.key, c.size) for c in clusters] == [("1", 3)]

    def test_needs_pivots(self):
        pm = make_pm([("aaa", "a", [1])])
        with pytest.raises(ValueError):
            signature_clusters(pm, [])


class TestProjection:
    def test_projects_with_gaps(self):
        corpus = make_corpus(
            {"aaa_t": {"00000001": "wun", "00000002": "tuo"},
             "bbb_t": {"00000001": "ein"}}
        )
        rows = project_cluster(corpus, ["00000001", "00000002"], "bbb_t")
        assert rows == [("00000001", "ein"), ("00000002", None)]

    def test_unknown_translation(self):
        corpus = make_corpus({"aaa_t": {"00000001": "wun"}})
        with pytest.raises(DataError):
            project_cluster(corpus, ["00000001"], "zzz_t")


class TestWriters:
    def test_splitters_tsv(self, tmp_path):
        pm = make_pm(
            [
                ("aaa", "head", bits(range(8), 8)),
                ("bbb", "even", bits({0, 1, 2, 3}, 8)),
            ]
        )
        chosen, choices = select_splitting_pivots(pm, pm.pivots[0], 1, CONFIG.map_policy)
        path = tmp_path / "splitters.tsv"
        write_splitters_tsv(chosen, choices, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "round\tiso3\ttranslation\tsurface\tcluster_size\tfraction"
        assert lines[1] == "0\taaa\taaa_t\thead\t\t"
        assert lines[2] == "1\tbbb\tbbb_t\teven\t8\t0.5"

    def test_cluster_summary_and_verses(self, tmp_path):
        pm = make_pm([("aaa", "a", [1, 1, 0, 1]), ("bbb", "b", [1, 0, 0, 0])])
        clusters = signature_clusters(pm, pm.pivots)
        summary = tmp_path / "clusters.tsv"
        write_cluster_summary(clusters, summary)
        assert summary.read_text(encoding="utf-8") == (
            "signature\tsize\n10\t2\n00\t1\n11\t1\n"
        )
        verses_dir = tmp_path / "clusters"
        write_cluster_verses(clusters, verses_dir)
        assert sorted(p.name for p in verses_dir.iterdir()) == [
            "00.txt", "10.txt", "11.txt",
        ]
        assert (verses_dir / "10.txt").read_text() == "00000002\n00000004\n"

    def test_cluster_verses_replace_other_text_files_only(self, tmp_path):
        pm = make_pm([("aaa", "a", [1, 1, 0, 1])])
        verses_dir = tmp_path / "clusters"
        verses_dir.mkdir()
        for name in ("1.txt", "01.txt", "notes.md"):
            (verses_dir / name).write_text("old\n", encoding="utf-8")
        write_cluster_verses(signature_clusters(pm, pm.pivots), verses_dir)
        assert sorted(p.name for p in verses_dir.iterdir()) == ["0.txt", "1.txt", "notes.md"]
        assert (verses_dir / "1.txt").read_text() == "00000001\n00000002\n00000004\n"
        assert (verses_dir / "notes.md").read_text() == "old\n"

    def test_projection_file(self, tmp_path):
        path = tmp_path / "proj.tsv"
        write_projection([("00000001", "ein"), ("00000002", None)], path)
        assert path.read_text(encoding="utf-8") == "00000001\tein\n00000002\t\n"
