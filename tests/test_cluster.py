"""Marker and language distances, UPGMA, family prediction."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cluster_oracle
from helpers import (
    make_corpus, newick_leaf_depths, parse_newick, presence_set, tree_merges, upgma_reference,
)
from pivotmine.cluster import (
    DistanceMatrix,
    evaluate_family_prediction,
    language_distance,
    marker_distance_matrix,
    marker_label,
    read_distance_tsv,
    to_newick,
    upgma,
    write_distance_tsv,
)
from pivotmine.errors import DataError
from pivotmine.pivots import Pivot, scan_pivots


def presence(cols, missing=None):
    """PivotSet of ("iso_surface", column) pairs; missing maps a
    name to the rows its translation lacks."""
    n = len(cols[0][1])
    pivots = []
    mat = np.zeros((n, len(cols)), dtype=np.uint8)
    miss = np.zeros((n, len(cols)), dtype=bool)
    for idx, (name, col) in enumerate(cols):
        pivots.append(Pivot(name[:3], f"{name[:3]}_t", name[4:], 1.0))
        mat[:, idx] = col
        if missing and name in missing:
            miss[missing[name], idx] = True
    return presence_set(pivots, mat, miss)


def random_presence(rng, n_verses, n_markers, missing_rate, density):
    """Random 0/1 columns of varied density, none marked on a missing row."""
    mat = (rng.random((n_verses, n_markers)) < density * rng.random(n_markers)).astype(np.uint8)
    miss = rng.random((n_verses, n_markers)) < missing_rate
    mat[miss] = 0
    pivots = [Pivot(f"m{k:02d}", f"m{k:02d}_t", "ka", 1.0) for k in range(n_markers)]
    return presence_set(pivots, mat, miss)


def assert_same_matrix(got: DistanceMatrix, want: DistanceMatrix):
    assert got.labels == want.labels
    assert got.values.tobytes() == want.values.tobytes()


class TestDistanceMatrix:
    def test_symmetric_zero_diagonal(self):
        dm = marker_distance_matrix(
            presence([("aaa_ka", [1, 1, 0]), ("bbb_ti", [0, 1, 1]), ("ccc_mu", [1, 1, 0])])
        )
        assert np.array_equal(dm.values, dm.values.T)
        assert np.all(np.diag(dm.values) == 0.0)
        assert dm.of("aaa_ka", "ccc_mu") == 0.0
        assert dm.of("aaa_ka", "bbb_ti") == dm.of("bbb_ti", "aaa_ka") > 0

    def test_validation(self):
        with pytest.raises(DataError):
            marker_distance_matrix(presence([("aaa_ka", [1, 0])]))
        with pytest.raises(DataError):
            marker_distance_matrix(presence([("aaa_ka", []), ("bbb_ti", [])]))


class TestMarkerDistanceMatrix:
    def test_identical_columns_distance_zero(self):
        pm = presence([("aaa_ka", [1, 0, 1, 0]), ("bbb_ti", [1, 0, 1, 0])])
        dm = marker_distance_matrix(pm)
        assert dm.labels == ["aaa_ka", "bbb_ti"]
        assert dm.of("aaa_ka", "bbb_ti") == 0.0

    def test_missing_rows_leave_support(self):
        # verse 0 missing for the second marker, so the shared support is
        # rows 1..3 where the columns disagree completely
        pm = presence(
            [("aaa_ka", [1, 1, 0, 0]), ("bbb_ti", [1, 0, 1, 1])],
            missing={"bbb_ti": [0]},
        )
        dm = marker_distance_matrix(pm)
        assert dm.of("aaa_ka", "bbb_ti") == pytest.approx(1.0, abs=1e-12)

    def test_silent_marker_dropped_with_warning(self, caplog):
        pm = presence(
            [("aaa_ka", [1, 0]), ("bbb_ti", [0, 1]), ("ccc_mu", [0, 0])]
        )
        with caplog.at_level(logging.WARNING):
            dm = marker_distance_matrix(pm)
        assert dm.labels == ["aaa_ka", "bbb_ti"]
        assert "ccc_mu excluded" in caplog.text

    def test_too_few_left(self):
        pm = presence([("aaa_ka", [1, 0]), ("ccc_mu", [0, 0])])
        with pytest.raises(DataError):
            marker_distance_matrix(pm)

    def test_no_shared_verse(self):
        pm = presence(
            [("aaa_ka", [1, 1]), ("bbb_ti", [1, 1])],
            missing={"aaa_ka": [0, 1]},
        )
        with pytest.raises(DataError):
            marker_distance_matrix(pm)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_pair_loop_oracle(self, seed):
        # missing rows shrink the shared support; sparse columns leave
        # some markers with no mass on it
        rng = np.random.default_rng(seed)
        for n_verses in (50, 700, 3000):
            for missing_rate, density in ((0.0, 0.9), (0.001, 0.3), (0.01, 0.02)):
                n_markers = int(rng.integers(2, 25))
                pm = random_presence(rng, n_verses, n_markers, missing_rate, density)
                try:
                    want = cluster_oracle.marker_distance_matrix(pm)
                except DataError:
                    with pytest.raises(DataError):
                        marker_distance_matrix(pm)
                    continue
                assert_same_matrix(marker_distance_matrix(pm), want)


def square(labels, pairs):
    n = len(labels)
    values = np.zeros((n, n))
    for (a, b), d in pairs.items():
        i, j = labels.index(a), labels.index(b)
        values[i, j] = values[j, i] = d
    return DistanceMatrix(list(labels), values)


class TestUpgma:
    def test_three_leaves_frozen(self):
        dm = square("ABC", {("A", "B"): 1.0, ("A", "C"): 4.0, ("B", "C"): 4.0})
        root = upgma(dm)
        assert root.height == pytest.approx(2.0)
        ab = [c for c in root.children if not c.is_leaf][0]
        assert ab.height == pytest.approx(0.5)
        assert {c.label for c in ab.children} == {"A", "B"}
        assert to_newick(root) == "((A:0.5,B:0.5):1.5,C:2);"

    def test_two_leaves(self):
        dm = square("AB", {("A", "B"): 1.0})
        assert to_newick(upgma(dm)) == "(A:0.5,B:0.5);"

    def test_tie_breaks_on_min_labels(self):
        dm = square("ABC", {("A", "B"): 1.0, ("A", "C"): 1.0, ("B", "C"): 1.0})
        root = upgma(dm)
        inner = [c for c in root.children if not c.is_leaf][0]
        assert {c.label for c in inner.children} == {"A", "B"}
        leaf = [c for c in root.children if c.is_leaf][0]
        assert leaf.label == "C"

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            vals = rng.random((n, n))
            vals = (vals + vals.T) / 2
            np.fill_diagonal(vals, 0.0)
            labels = [f"l{i}" for i in range(n)]
            dm = DistanceMatrix(labels, vals)
            got = tree_merges(upgma(dm))
            want = upgma_reference(labels, vals)
            assert set(got) == set(want)
            for key, height in want.items():
                assert got[key] == pytest.approx(height, rel=1e-9, abs=1e-12)

    def test_monotone_heights(self):
        rng = np.random.default_rng(3)
        vals = rng.random((7, 7))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 0.0)
        root = upgma(DistanceMatrix([f"x{i}" for i in range(7)], vals))

        def walk(node):
            if node.is_leaf:
                return
            for child in node.children:
                assert child.height <= node.height + 1e-12
                walk(child)

        walk(root)

    def test_validation(self):
        with pytest.raises(DataError):
            upgma(DistanceMatrix(["a"], np.zeros((1, 1))))
        with pytest.raises(DataError):
            upgma(DistanceMatrix(["a", "a"], np.zeros((2, 2))))
        with pytest.raises(DataError):
            upgma(DistanceMatrix(["a", "b"], np.zeros((3, 3))))
        with pytest.raises(DataError):
            upgma(DistanceMatrix(["a", "b"], np.array([[0.0, 1.0], [2.0, 0.0]])))
        with pytest.raises(DataError):
            upgma(DistanceMatrix(["a", "b"], np.array([[0.0, np.nan], [np.nan, 0.0]])))

    @pytest.mark.parametrize(
        "n, step", [(2, None), (2, 0.5), (5, None), (9, 0.25), (30, None), (30, 0.05),
                    (100, None), (200, 0.05)],
    )
    def test_equals_pair_loop_oracle(self, n, step):
        # rounding to a step forces ties that only the label rule breaks;
        # shuffled labels make label order differ from matrix order
        rng = np.random.default_rng(n)
        vals = rng.random((n, n))
        vals = (vals + vals.T) / 2
        if step:
            vals = np.round(vals / step) * step
        np.fill_diagonal(vals, 0.0)
        dm = DistanceMatrix([f"l{k:03d}" for k in rng.permutation(n)], vals)
        assert to_newick(upgma(dm)) == to_newick(cluster_oracle.upgma(dm))


class TestNewick:
    def test_quoting(self):
        dm = square(
            ("pa(ren", "o'k"), {("pa(ren", "o'k"): 2.0}
        )
        text = to_newick(upgma(dm))
        assert "'pa(ren':1" in text
        assert "'o''k':1" in text
        parsed = parse_newick(text)
        labels = {c["label"] for c in parsed["children"]}
        assert labels == {"pa(ren", "o'k"}

    def test_bare_labels_stay_bare(self):
        dm = square(("ab_1.2|x+y-z", "w"), {("ab_1.2|x+y-z", "w"): 1.0})
        assert "'" not in to_newick(upgma(dm))

    def test_round_trip_depths_equal_root_height(self):
        rng = np.random.default_rng(17)
        vals = rng.random((6, 6))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 0.0)
        dm = DistanceMatrix([f"l{i}" for i in range(6)], vals)
        root = upgma(dm)
        depths = newick_leaf_depths(parse_newick(to_newick(root)))
        assert set(depths) == set(dm.labels)
        for depth in depths.values():
            assert depth == pytest.approx(root.height, rel=1e-9)


class TestDistanceTsv:
    def test_round_trip(self, tmp_path):
        dm = square("ABC", {("A", "B"): 0.25, ("A", "C"): 1.0, ("B", "C"): 0.5})
        path = tmp_path / "dist.tsv"
        write_distance_tsv(dm, path)
        loaded = read_distance_tsv(path)
        assert loaded.labels == dm.labels
        assert np.allclose(loaded.values, dm.values)

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no header\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_distance_tsv(bad)
        short = tmp_path / "short.tsv"
        short.write_text("label\tA\tB\nA\t0\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_distance_tsv(short)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("label\tA\tB\nA\t0\t1\nB\t1\t0", "line 3: no final newline"),
            ("label\tA\tB\nA\t0\t1\n", "line 3: no row for 'B'"),
            ("label\tA\tB\nB\t1\t0\nA\t0\t1\n", "line 2: row 'B' is out of"),
            ("label\tA\nA\t0\nA\t0\n", "line 3: row 'A' is out of"),
            ("label\tA\tB\nA\t0\t1\n\nB\t1\t0\n", "line 3: expected 3 cells, found 1"),
            ("label\tA\tB\nA\t0\t1\nB\t1\tnear\n", "line 3: malformed distance row"),
            ("lab\tA\nA\t0\n", "line 1: not a table with the header 'label'"),
        ],
        ids=["cut", "missing-row", "out-of-order", "extra-row", "blank-line", "not-a-float",
             "header"],
    )
    def test_errors_name_the_path_and_the_line(self, tmp_path, text, error):
        path = tmp_path / "dist.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=f"^{path} {error}"):
            read_distance_tsv(path)


VIDS = [f"{i:08d}" for i in range(1, 7)]


def lang_corpus():
    def verses(marked, token):
        out = {}
        for i, vid in enumerate(VIDS):
            words = ["wun", "tuo"]
            if i in marked:
                words.insert(1, token)
            out[vid] = " ".join(words)
        return out

    return make_corpus(
        {
            "aaa_t": verses({0, 1}, "ma"),
            "bbb_t": verses({0, 1}, "mb"),
            "ccc_t": verses({2, 3}, "mc"),
        }
    )


# the head translation of the past feature in lang_corpus
HEAD = {"past": "aaa_t"}


def cand(iso3, surface):
    return Pivot(iso3, f"{iso3}_t", surface, 1.0)


class TestLanguageDistance:
    def test_identical_vs_disjoint(self):
        corpus = lang_corpus()
        markers = {
            "past": {"aaa": cand("aaa", "ma"), "bbb": cand("bbb", "mb"),
                     "ccc": cand("ccc", "mc")}
        }
        dm, report = language_distance(corpus, markers, min_shared_verses=6, head_translations=HEAD)
        assert dm.labels == ["aaa", "bbb", "ccc"]
        assert dm.of("aaa", "bbb") == 0.0
        assert dm.of("aaa", "ccc") == pytest.approx(1.0, abs=1e-12)
        assert report.zero_support_pairs == 0

    def test_language_missing_a_feature_excluded(self):
        corpus = lang_corpus()
        markers = {
            "past": {"aaa": cand("aaa", "ma"), "bbb": cand("bbb", "mb"),
                     "ccc": cand("ccc", "mc")},
            "future": {"aaa": cand("aaa", "ma"), "bbb": cand("bbb", "mb")},
        }
        dm, report = language_distance(
            corpus, markers, min_shared_verses=6,
            head_translations={"past": "aaa_t", "future": "aaa_t"},
        )
        assert dm.labels == ["aaa", "bbb"]
        assert report.excluded == {"ccc": "no marker for future"}

    def test_shared_verse_floor_against_head(self):
        def verses(ids, token):
            return {vid: f"wun {token} tuo" for vid in ids}

        corpus = make_corpus(
            {
                "aaa_t": verses(VIDS, "ma"),
                "bbb_t": verses(VIDS, "mb"),
                "ddd_t": verses(VIDS[:2], "md"),
            }
        )
        markers = {
            "past": {"aaa": cand("aaa", "ma"), "bbb": cand("bbb", "mb"),
                     "ddd": cand("ddd", "md")}
        }
        dm, report = language_distance(
            corpus, markers, min_shared_verses=3,
            head_translations={"past": "aaa_t"},
        )
        assert dm.labels == ["aaa", "bbb"]
        assert "ddd" in report.excluded
        assert "past head" in report.excluded["ddd"]

    def test_silent_marker_scores_one(self, caplog):
        corpus = lang_corpus()
        markers = {
            "past": {"aaa": cand("aaa", "ma"), "bbb": cand("bbb", "absent")}
        }
        with caplog.at_level(logging.WARNING):
            dm, report = language_distance(
                corpus, markers, min_shared_verses=6, head_translations=HEAD
            )
        assert dm.of("aaa", "bbb") == 1.0
        assert report.zero_support_pairs == 1
        assert "no shared marking support" in caplog.text

    def test_too_few_eligible(self):
        corpus = lang_corpus()
        markers = {"past": {"aaa": cand("aaa", "ma")}}
        with pytest.raises(DataError):
            language_distance(corpus, markers, min_shared_verses=6, head_translations=HEAD)

    @pytest.mark.parametrize(
        "seed, n_verses, n_features", [(0, 40, 1), (1, 300, 3), (2, 300, 9), (3, 2000, 3)]
    )
    def test_equals_pair_loop_oracle(self, seed, n_verses, n_features):
        # each translation lacks some verses, so every pair has its own
        # support; rare markers leave some pairs without marking support;
        # nine features take np.mean past its sequential range
        corpus, markers = random_marker_corpus(seed, n_verses, n_features)
        # every language shares a verse with the first one
        heads = {f: "l00_t" for f in markers}
        dm, report = language_distance(
            corpus, markers, min_shared_verses=1, head_translations=heads
        )
        assert len(dm.labels) == 12
        scans = [
            scan_pivots(corpus, [markers[f][iso] for iso in dm.labels])
            for f in sorted(markers)
        ]
        values, zero_support_pairs = cluster_oracle.language_pair_distances(scans)
        assert dm.values.tobytes() == values.tobytes()
        assert report.zero_support_pairs == zero_support_pairs


def random_marker_corpus(seed, n_verses, n_features):
    """Twelve languages, one translation each, with one marker per
    feature ("m0", "m1", ...) at a density drawn per language and feature."""
    rng = np.random.default_rng(seed)
    vids = [f"{i + 1:08d}" for i in range(n_verses)]
    verses = {}
    for lang in range(12):
        missing_rate = rng.choice([0.0, 0.1, 0.5])
        density = rng.choice([0.002, 0.05, 0.4, 0.9], size=n_features)
        text = {}
        for vid in vids:
            if rng.random() < missing_rate:
                continue
            words = ["wun", "tuo"]
            for k in range(n_features):
                if rng.random() < density[k]:
                    words.insert(1, f"m{k}")
            text[vid] = " ".join(words)
        verses[f"l{lang:02d}_t"] = text
    markers = {
        f"f{k}": {tid[:3]: cand(tid[:3], f"m{k}") for tid in verses}
        for k in range(n_features)
    }
    return make_corpus(verses), markers


class TestFamilyPrediction:
    def hand_dm(self):
        labels = ["a", "b", "c", "d"]
        pairs = {
            ("a", "b"): 0.1,
            ("a", "c"): 0.3,
            ("a", "d"): 0.9,
            ("b", "c"): 0.9,
            ("b", "d"): 0.9,
            ("c", "d"): 0.7,
        }
        return square(labels, pairs)

    def test_hand_confusion(self):
        metrics = evaluate_family_prediction(
            self.hand_dm(), {"a": "F1", "b": "F1", "c": "F2", "d": "F2"}, 0.5
        )
        assert (metrics["tp"], metrics["fp"], metrics["tn"], metrics["fn"]) == (1, 1, 3, 1)
        assert metrics["accuracy"] == pytest.approx(4 / 6)
        assert metrics["precision"] == pytest.approx(0.5)
        assert metrics["recall"] == pytest.approx(0.5)
        assert metrics["tnr"] == pytest.approx(0.75)
        assert metrics["base_rate"] == pytest.approx(2 / 6)
        assert metrics["n_pairs"] == 6
        assert metrics["n_families"] == 2

    def test_unlabeled_skipped(self):
        metrics = evaluate_family_prediction(
            self.hand_dm(), {"a": "F1", "b": "F1", "c": "F2"}, 0.5
        )
        assert metrics["n_languages"] == 3
        assert metrics["n_pairs"] == 3
        assert (metrics["tp"], metrics["fp"], metrics["tn"], metrics["fn"]) == (1, 1, 1, 0)

    def test_all_same_family(self):
        dm = square("ab", {("a", "b"): 0.1})
        metrics = evaluate_family_prediction(dm, {"a": "F", "b": "F"}, 0.5)
        assert metrics["precision"] == 1.0
        assert metrics["tnr"] == 0.0  # no unrelated pairs to score

    def test_needs_two_annotated(self):
        with pytest.raises(DataError):
            evaluate_family_prediction(self.hand_dm(), {"a": "F1"}, 0.5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_counts_partition_all_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        vals = rng.random((n, n))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 0.0)
        labels = [f"l{i}" for i in range(n)]
        fams = {lb: f"F{rng.integers(0, 3)}" for lb in labels}
        metrics = evaluate_family_prediction(DistanceMatrix(labels, vals), fams, 0.5)
        total = metrics["tp"] + metrics["fp"] + metrics["tn"] + metrics["fn"]
        assert total == n * (n - 1) // 2 == metrics["n_pairs"]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_equals_pair_loop_oracle(self, seed):
        # some labels unannotated, some distances NaN (never below threshold)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        vals = rng.random((n, n))
        vals = (vals + vals.T) / 2
        vals[rng.random((n, n)) < 0.05] = np.nan
        labels = [f"l{k}" for k in range(n)]
        fams = {lb: f"F{rng.integers(0, 4)}" for lb in labels if rng.random() < 0.8}
        if len(fams) < 2:
            fams = {labels[0]: "F0", labels[-1]: "F1"}
        dm = DistanceMatrix(labels, vals)
        metrics = evaluate_family_prediction(dm, fams, 0.5)
        got = (metrics["tp"], metrics["fp"], metrics["tn"], metrics["fn"])
        assert got == cluster_oracle.family_confusion(dm, fams, 0.5)


def test_marker_label():
    pivot = Pivot("aaa", "aaa_t", "ka", 1.0)
    assert marker_label(pivot) == "aaa_ka"
