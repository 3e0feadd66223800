"""Acceptance gate: ten numbered criteria, one summary line each.

Every test here carries the `acceptance` marker; the terminal summary
hook prints a PASS/FAIL line per criterion. Tolerances are pinned in the
assertions, not in shared constants, so each criterion reads standalone.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    CONFIG,
    chi2_reference,
    encode_surface_pairs,
    file_sha256,
    lex_rows,
    mining,
    presence_set,
    tree_merges,
    upgma_reference,
)
import pivotmine
from pivotmine.aligner import train_alignment
from pivotmine.cluster import (
    DistanceMatrix,
    evaluate_family_prediction,
    language_distance,
    upgma,
)
from pivotmine.evaluation import gram_matches, mrr, mrr_table
from pivotmine.manifest import MANIFEST_NAME
from pivotmine.maps import select_splitting_pivots, signature_clusters
from pivotmine.ngrams import mine_ngrams
from pivotmine.pivots import (
    Pivot,
    Query,
    expand_pivots,
    find_head_pivot,
    rank_pivot_candidates,
)
from pivotmine.stats import ContingencyTable, chi2, gaussian_density, jsd
from pivotmine.synth import (
    generate,
    preset_families28,
    preset_marking24,
    preset_tiny8,
    write_synth,
)


@pytest.mark.acceptance(1, "chi-square oracle equivalence")
def test_chi2_matches_reference():
    rng = np.random.default_rng(42)
    tables = []
    while len(tables) < 1000:
        a, b, c, d = (int(x) for x in rng.integers(1, 400, size=4))
        # all cells >= 1, so every margin is nonzero
        tables.append(ContingencyTable(a, b, c, d))
    start = time.perf_counter()
    got = [chi2(t, positive_only=False) for t in tables]
    elapsed = time.perf_counter() - start
    for t, value in zip(tables, got):
        want = chi2_reference(t.a, t.b, t.c, t.d)
        assert value == pytest.approx(want, rel=1e-9, abs=1e-12)
    assert elapsed < 1.0


@pytest.mark.acceptance(2, "gaussian density constant")
def test_gaussian_peak_value():
    assert gaussian_density(0.0, 6.0) == pytest.approx(0.06649, abs=1e-4)


@pytest.mark.acceptance(3, "jsd metric suite")
def test_jsd_suite():
    rng = np.random.default_rng(7)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        assert jsd(p, q) == jsd(q, p)
        assert jsd(p, p) == 0.0
    for _ in range(50):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        p = np.concatenate([rng.dirichlet(np.ones(k)), np.zeros(m)])
        q = np.concatenate([np.zeros(k), rng.dirichlet(np.ones(m))])
        assert jsd(p, q) == pytest.approx(1.0, abs=1e-12)
    assert jsd([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.311278, abs=1e-4)
    triples = rng.dirichlet(np.ones(4), size=(10_000, 3))
    for p, q, r in triples:
        d_pq = math.sqrt(jsd(p, q))
        d_qr = math.sqrt(jsd(q, r))
        d_pr = math.sqrt(jsd(p, r))
        assert d_pr <= d_pq + d_qr + 1e-12


def _cophenetic(root):
    """Pairwise tree distances: leaves joined at h sit 2h apart."""
    out = {}

    def walk(node):
        if node.is_leaf:
            return [node.label]
        left = walk(node.children[0])
        right = walk(node.children[1])
        for a in left:
            for b in right:
                out[frozenset((a, b))] = 2 * node.height
        return left + right

    walk(root)
    return out


@pytest.mark.acceptance(4, "upgma oracle equivalence")
def test_upgma_matches_reference():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        vals = rng.random((n, n))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 0.0)
        labels = [f"l{i}" for i in range(n)]
        root = upgma(DistanceMatrix(labels, vals))
        got = tree_merges(root)
        want = upgma_reference(labels, vals)
        assert set(got) == set(want)
        for key, height in want.items():
            assert got[key] == pytest.approx(height, rel=1e-9, abs=1e-12)
        coph = _cophenetic(root)
        for x in range(n):
            for y in range(x + 1, n):
                for z in range(y + 1, n):
                    ds = sorted(
                        [
                            coph[frozenset((labels[x], labels[y]))],
                            coph[frozenset((labels[y], labels[z]))],
                            coph[frozenset((labels[x], labels[z]))],
                        ]
                    )
                    assert ds[2] <= ds[1] + 1e-9


@pytest.mark.acceptance(5, "aligner lexical recovery")
def test_aligner_recovers_bijective_lexicon():
    rng = random.Random(1234)
    vocab = 50
    src_words = [f"s{i:02d}" for i in range(vocab)]
    tgt_words = [f"t{i:02d}" for i in range(vocab)]
    pairs = []
    for _ in range(500):
        concepts = rng.sample(range(vocab), rng.randint(4, 8))
        pairs.append(
            ([src_words[c] for c in concepts], [tgt_words[c] for c in concepts])
        )
    start = time.perf_counter()
    lex = train_alignment(encode_surface_pairs(pairs), replace(CONFIG, em_iterations=5))
    elapsed = time.perf_counter() - start
    lls = lex.log_likelihoods
    assert len(lls) == 5
    for earlier, later in zip(lls, lls[1:]):
        assert later >= earlier
    correct = 0
    rows = lex_rows(lex)
    for i in range(vocab):
        row = rows[src_words[i]]
        best = max(row, key=row.get)
        correct += best == tgt_words[i]
    assert correct >= math.ceil(0.95 * vocab)
    assert elapsed < 10.0


@pytest.fixture(scope="module")
def marking(tmp_path_factory):
    """Planted-marker corpus with heads and expanded pivot sets per feature.

    The alignment cache is shared across the three features, which is how
    the pipeline itself reuses EM runs; the timed portion covers the full
    head search plus expansion for every feature.
    """
    corpus, truth = generate(preset_marking24())
    corpus = corpus.select(len(corpus.verse_universe))
    allow = {
        iso
        for iso, info in truth["languages"].items()
        if info["style"] == "particle" and iso != "qaa"
    }
    cfg = replace(CONFIG, cache_dir=tmp_path_factory.mktemp("align_cache"))
    features = list(truth["features"])
    heads = {}
    sets = {}
    start = time.perf_counter()
    for feature in features:
        query = Query(
            feature,
            truth["query"]["translation_id"],
            frozenset(truth["query"]["forms"][feature]),
        )
        head = find_head_pivot(corpus, query, allow, cfg)
        ranking = rank_pivot_candidates(corpus, head, cfg)
        heads[feature] = head
        sets[feature] = expand_pivots(corpus, feature, head, 16, ranking)
    elapsed = time.perf_counter() - start
    return {
        "corpus": corpus,
        "truth": truth,
        "features": features,
        "allow": allow,
        "heads": heads,
        "sets": sets,
        "elapsed": elapsed,
    }


@pytest.mark.acceptance(6, "planted pivot recovery")
def test_planted_particles_recovered(marking):
    truth = marking["truth"]
    particle = {
        iso
        for iso, info in truth["languages"].items()
        if info["style"] == "particle"
    }
    for feature in marking["features"]:
        head = marking["heads"][feature]
        assert head.iso3 in marking["allow"]
        assert head.surface in truth["languages"][head.iso3]["markers"][feature]
        members = marking["sets"][feature].members
        assert len(members) == 16
        isos = [p.iso3 for p in members]
        assert len(set(isos)) == len(isos)
        recovered = {
            p.iso3
            for p in members
            if p.iso3 in particle
            and p.surface in truth["languages"][p.iso3]["markers"][feature]
        }
        assert len(recovered) >= math.ceil(0.9 * len(particle))
    assert marking["elapsed"] < 120.0


@pytest.fixture(scope="module")
def mined(marking):
    """Mining results for every translation, per feature."""
    corpus = marking["corpus"]
    out = {}
    for feature in marking["features"]:
        pivot_set = marking["sets"][feature]
        out[feature] = {
            tid: mine_ngrams(corpus, tid, pivot_set, **mining())
            for tid in sorted(corpus.translations)
        }
    return out


def _top_chi2(result):
    return max(
        (cands[0].score for cands in result.by_n.values() if cands),
        default=0.0,
    )


@pytest.mark.acceptance(7, "ngram mining recovery")
def test_mined_grams_recover_suffixes(marking, mined):
    corpus = marking["corpus"]
    truth = marking["truth"]
    by_style = lambda style: [
        iso for iso, info in truth["languages"].items() if info["style"] == style
    ]

    for feature in marking["features"]:
        results = mined[feature]
        for iso in by_style("suffix"):
            info = truth["languages"][iso]
            suffix = info["markers"][feature][0]
            result = results[info["translation_id"]]
            for n in result.by_n:
                if n < len(suffix):
                    continue
                top = result.top_grams(n)
                assert any(gram_matches(g, {suffix}, "both") for g in top), (
                    f"{iso} {feature} n={n}: {suffix!r} not in top 10"
                )

    gold = {}
    for iso, info in truth["languages"].items():
        if info["style"] == "none":
            continue
        for feature in marking["features"]:
            gold[(info["translation_id"], feature)] = set(info["markers"][feature])
    per_feature = []
    for feature in marking["features"]:
        ranked = {
            tid: {n: result.top_grams(n) for n in result.by_n}
            for tid, result in mined[feature].items()
        }
        per_feature.append(mrr(ranked, gold, feature, CONFIG.match_mode))
    table = mrr_table(per_feature)
    assert table["aggregates"]["all"] >= 0.9

    # label-permutation null: one verse shuffle per replicate moves the
    # pivot positions of every verse, as a block, to its shuffled verse for
    # every feature at once, and each unmarked language is summarized by
    # its top score across features and n
    unmarked = [
        truth["languages"][iso]["translation_id"] for iso in by_style("none")
    ]
    actual = {
        tid: max(_top_chi2(mined[f][tid]) for f in marking["features"])
        for tid in unmarked
    }
    rng = random.Random(1402)
    null_scores = {tid: [] for tid in unmarked}
    row_of = {vid: r for r, vid in enumerate(corpus.selected_verses)}
    for _ in range(79):
        shuffled = list(corpus.selected_verses)
        rng.shuffle(shuffled)
        moved = np.array([row_of[vid] for vid in shuffled])
        tops = {tid: 0.0 for tid in unmarked}
        for feature in marking["features"]:
            pivot_set = marking["sets"][feature]
            rows = moved[pivot_set.rows]
            order = np.argsort(rows, kind="stable")
            permuted = replace(pivot_set, rows=rows[order], rel=pivot_set.rel[order])
            for tid in unmarked:
                result = mine_ngrams(corpus, tid, permuted, **mining())
                tops[tid] = max(tops[tid], _top_chi2(result))
        for tid in unmarked:
            null_scores[tid].append(tops[tid])
    for tid in unmarked:
        cutoff = float(np.percentile(null_scores[tid], 95))
        assert actual[tid] < cutoff, f"{tid}: {actual[tid]} >= {cutoff}"


@pytest.mark.acceptance(8, "family prediction quality")
def test_family_prediction_beats_base_rate():
    corpus, truth = generate(preset_families28())
    corpus = corpus.select(len(corpus.verse_universe))
    features = list(truth["features"])
    markers = {feature: {} for feature in features}
    for iso, info in truth["languages"].items():
        for feature in features:
            markers[feature][iso] = Pivot(
                iso, info["translation_id"], info["markers"][feature][0], 1.0
            )
    heads = {feature: truth["query"]["translation_id"] for feature in features}
    dm, report = language_distance(
        corpus, markers, min_shared_verses=1500, head_translations=heads
    )
    assert not report.excluded
    families = {iso: info["family"] for iso, info in truth["languages"].items()}
    metrics = evaluate_family_prediction(dm, families, threshold=0.5)

    # brute-force pair enumeration over the matrix
    labeled = [lb for lb in dm.labels if lb in families]
    tp = fp = tn = fn = 0
    for i, a in enumerate(labeled):
        for b in labeled[i + 1 :]:
            predicted = dm.of(a, b) < 0.5
            related = families[a] == families[b]
            if predicted and related:
                tp += 1
            elif predicted:
                fp += 1
            elif related:
                fn += 1
            else:
                tn += 1
    total = tp + fp + tn + fn
    assert (metrics["tp"], metrics["fp"], metrics["tn"], metrics["fn"]) == (
        tp,
        fp,
        tn,
        fn,
    )
    assert metrics["n_pairs"] == total == math.comb(len(labeled), 2)
    assert metrics["accuracy"] == (tp + tn) / total
    assert metrics["precision"] == (tp / (tp + fp) if tp + fp else 0.0)
    assert metrics["recall"] == (tp / (tp + fn) if tp + fn else 0.0)
    assert metrics["tnr"] == (tn / (tn + fp) if tn + fp else 0.0)
    assert metrics["base_rate"] == (tp + fn) / total

    assert metrics["precision"] >= 5 * metrics["base_rate"]
    assert metrics["tnr"] >= 0.9


def _planted_matrix():
    """2000 verses: five classes under the head plus 400 background rows.

    Five true splitters carve the classes; three distractors have split
    fractions far from one half on every cluster the walk visits. True
    splitter columns get 0.5% bit flips so purity is high but not exact.
    """
    rng = random.Random(93)
    n = 2000
    class_rows = {
        "c0": range(0, 460),
        "c1": range(460, 810),
        "c2": range(810, 1190),
        "c3": range(1190, 1420),
        "c4": range(1420, 1600),
    }
    labels = ["bg"] * n
    for name, rows in class_rows.items():
        for r in rows:
            labels[r] = name

    def column(rows, flip=0.0):
        bits = np.zeros(n, dtype=np.uint8)
        bits[list(rows)] = 1
        if flip:
            for r in range(n):
                if rng.random() < flip:
                    bits[r] ^= 1
        return bits

    noise_05 = [r for r in range(n) if rng.random() < 0.05]
    noise_95 = [r for r in range(n) if rng.random() < 0.95]
    spec = [
        ("hhh", "head", column(range(1600)), 100.0),
        ("aab", "p1", column(range(0, 810), flip=0.005), 90.0),
        ("aac", "p2", column(range(0, 460), flip=0.005), 80.0),
        ("aad", "p3", column(range(810, 1190), flip=0.005), 70.0),
        ("aae", "p4", column(range(0, 230), flip=0.005), 60.0),
        ("aaf", "p5", column(range(1190, 1420), flip=0.005), 50.0),
        ("dda", "d1", column(noise_05), 40.0),
        ("ddb", "d2", column(range(80)), 30.0),
        ("ddc", "d3", column(noise_95), 20.0),
    ]
    pivots = []
    cols = []
    for iso, surface, bits, score in spec:
        pivots.append(Pivot(iso, f"{iso}_t", surface, score))
        cols.append(bits)
    verse_ids = tuple(f"v{i:04d}" for i in range(n))
    return presence_set(pivots, np.stack(cols, axis=1)), verse_ids, labels


def _replay_splits(matrix, head_idx, rounds):
    """Re-run the largest-cluster walk, scoring every candidate each round."""
    verses = np.arange(len(matrix.matrix))
    clusters = [verses[matrix.matrix[:, head_idx].astype(bool)]]
    used = {head_idx}
    replay = []
    for _ in range(rounds):
        target = max(range(len(clusters)), key=lambda ci: len(clusters[ci]))
        cluster = clusters[target]
        scores = {}
        for idx in range(len(matrix.members)):
            if idx in used:
                continue
            frac = float(matrix.matrix[cluster, idx].mean())
            scores[idx] = abs(frac - 0.5)
        pick = min(
            scores,
            key=lambda idx: (
                scores[idx],
                -matrix.members[idx].score,
                matrix.members[idx].iso3,
                matrix.members[idx].surface,
            ),
        )
        replay.append((pick, scores, int(cluster.size)))
        used.add(pick)
        mask = matrix.matrix[cluster, pick].astype(bool)
        parts = [part for part in (cluster[mask], cluster[~mask]) if part.size]
        clusters[target : target + 1] = parts
    return replay


@pytest.mark.acceptance(9, "splitting-pivot verse map")
def test_splitters_minimal_and_clusters_pure():
    matrix, verse_ids, labels = _planted_matrix()
    choices = select_splitting_pivots(matrix, 0, 5, "largest")
    chosen = [0, *(c.column for c in choices)]
    assert [matrix.members[c].surface for c in chosen] == ["head", "p1", "p2", "p3", "p4", "p5"]

    replay = _replay_splits(matrix, 0, rounds=5)
    assert len(choices) == len(replay) == 5
    for choice, (pick, scores, cluster_size) in zip(choices, replay):
        picked, pivot = matrix.members[pick], matrix.members[choice.column]
        assert (pivot.translation_id, pivot.surface) == (
            picked.translation_id,
            picked.surface,
        )
        assert choice.cluster_size == cluster_size
        assert choice.score == scores[pick]
        # minimality holds over every unused candidate, exhaustively
        assert all(choice.score <= s for s in scores.values())

    clusters = signature_clusters(matrix, verse_ids, chosen)
    label_of = dict(zip(verse_ids, labels))
    assert sum(c.size for c in clusters) == len(labels)
    agreement = sum(
        max(Counter(label_of[vid] for vid in c.verse_ids).values())
        for c in clusters
    )
    assert agreement / len(labels) >= 0.95


@pytest.mark.acceptance(10, "pipeline determinism")
def test_pipeline_reruns_byte_identical(tmp_path):
    data = tmp_path / "data"
    write_synth(preset_tiny8(), data)
    config = {
        "corpus_dir": str(data / "corpus"),
        "queries": str(data / "queries.tsv"),
        "allowlist": str(data / "allowlist.txt"),
        "gold": str(data / "gold.tsv"),
        "families": str(data / "families.tsv"),
        "coverage_target": 400,
        "k": 6,
        "min_count": 5,
        "map_rounds": 3,
        "min_shared_verses": 50,
        "seed": 7,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    # the child imports the package this test imported, with or without PYTHONPATH
    src = str(Path(pivotmine.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    hashes = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pivotmine",
                "pipeline",
                "--config",
                str(cfg_path),
                "--feature",
                "past",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        per_file = {}
        for path in sorted(out.rglob("*")):
            if not path.is_file():
                continue
            rel = str(path.relative_to(out))
            if rel == MANIFEST_NAME:
                continue  # carries wall-clock timings by design
            per_file[rel] = file_sha256(path)
        hashes.append(per_file)

    for rel in ("head.json", "pivots.tsv", "splitters.tsv", "mrr.json"):
        assert rel in hashes[0], f"pipeline wrote no {rel}"
    assert hashes[0].keys() == hashes[1].keys()
    assert hashes[0] == hashes[1]
