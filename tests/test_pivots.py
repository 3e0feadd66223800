"""Pivot discovery: head search, expansion, presence, serialization."""

import logging

import numpy as np
import pytest

import ngrams_oracle as oracle
from helpers import CONFIG, corpus_state, make_corpus, verses_of, with_translation
from pivotmine.aligner import PairLinkStats, link_counts
from pivotmine import pivots as pivots_module
from pivotmine.config import RunConfig
from pivotmine.errors import ConfigError, DataError
from pivotmine.pivots import (
    Pivot,
    PivotSet,
    Query,
    contingency_from_links,
    expand_pivots,
    find_head_pivot,
    rank_pivot_candidates,
    read_allowlist,
    read_pivots_tsv,
    read_queries,
    scan_pivots,
    score_candidates,
    synthetic_query_token,
    top_markers_by_language,
    write_pivots_tsv,
)
from pivotmine.synth import LanguageSpec, SynthSpec, generate

# find_head_pivot's and rank_pivot_candidates' run parameters, from CONFIG
SEARCH_PARAMS = (CONFIG, CONFIG.min_count, CONFIG.cache_dir)


def planted_spec(n_particle: int, n_verses: int = 400, seed: int = 3) -> SynthSpec:
    langs = [LanguageSpec("qaa", "particle", "fq")]
    langs += [
        LanguageSpec(f"p{chr(ord('a') + i)}a", "particle", f"f{i}")
        for i in range(n_particle)
    ]
    return SynthSpec(
        n_verses=n_verses,
        features=(("past", 0.4),),
        languages=tuple(langs),
        query_iso3="qaa",
        query_forms=2,
        seed=seed,
    )


@pytest.fixture(scope="module")
def planted():
    spec = planted_spec(20)
    corpus, truth = generate(spec)
    return corpus.select(len(corpus.verse_universe)), truth


class TestBasics:
    def test_synthetic_token_shape(self):
        token = synthetic_query_token("Past")
        assert token == "qtokpastq"

    def test_query_needs_forms(self):
        with pytest.raises(ValueError):
            Query("past", "aaa_t", frozenset())

    def test_contingency_from_links(self):
        stats = PairLinkStats(
            "src",
            source_word_to_target={"ka": 30, "other": 5},
            source_word_links=35,
            target_word_links={"ka": 33, "other": 50, "noise": 100},
            total_links=200,
        )
        table = contingency_from_links(stats, "ka")
        assert (table.a, table.b, table.c, table.d) == (30, 5, 3, 162)


class TestScoreCandidates:
    def make_stats(self, corpus):
        """Link counts onto bbb_t, with its token frequencies as
        link_counts hands them over."""
        freq = corpus.encode("bbb_t").frequencies()
        return {
            "bbb_t": PairLinkStats(
                "src",
                source_word_to_target={"hi": 40, "lo": 40, "rare": 40},
                source_word_links=120,
                target_word_links={"hi": 45, "lo": 80, "rare": 41},
                total_links=400,
                target_frequencies={w: freq[w] for w in ("hi", "lo", "rare")},
            )
        }

    def corpus_with_freqs(self):
        verses = {}
        for i in range(1, 11):
            words = ["hi"] * 5 + ["lo"] * 5
            verses[f"{i:08d}"] = " ".join(words) + (" rare" if i == 1 else "")
        return make_corpus({"bbb_t": verses})

    def test_min_count_filters(self):
        corpus = self.corpus_with_freqs()
        cands = score_candidates(corpus, self.make_stats(corpus), min_count=10)
        assert {c.surface for c in cands} == {"hi", "lo"}

    def test_sorted_by_score_then_ties(self):
        corpus = self.corpus_with_freqs()
        cands = score_candidates(corpus, self.make_stats(corpus), min_count=1)
        scores = [c.score for c in cands]
        assert scores == sorted(scores, reverse=True)
        assert cands[0].surface == "rare"


class TestPresence:
    def test_presence_vector(self):
        corpus = make_corpus(
            {"aaa_t": {"00000001": "ti ko", "00000002": "ko"}, "bbb_t": {"00000003": "x"}}
        )
        pm = scan_pivots(corpus, [Pivot("aaa", "aaa_t", "ti", 1.0)])[2]
        assert pm.matrix[:, 0].tolist() == [1, 0, 0]
        assert pm.missing[:, 0].tolist() == [False, False, True]

    def test_matches_token_cache_and_caches_nothing(self):
        corpus = make_corpus(
            {
                "ell_t": {
                    "00000001": "ΑΣ'Α",
                    "00000002": "ασ ΑΣΑ",
                    "00000003": "(Ας)",
                    "00000004": "",
                },
                "tur_t": {"00000001": "İki\fİKİ", "00000005": "DON'T, don't"},
            }
        )
        lookups = [
            ("ell_t", "ας"),
            ("ell_t", "ασ"),
            ("tur_t", "i̇ki"),
            ("tur_t", "don"),
            ("tur_t", "t"),
        ]
        before = corpus_state(corpus)
        pivots = [Pivot(tid[:3], tid, surface, 1.0) for tid, surface in lookups]
        pm = scan_pivots(corpus, pivots)[2]
        assert corpus_state(corpus) == before
        assert (pm.matrix.dtype, pm.missing.dtype) == (np.uint8, bool)
        for col, (tid, surface) in enumerate(lookups):
            ref_presence, ref_missing = oracle.token_presence_vector(corpus, tid, surface)
            assert pm.matrix[:, col].tolist() == ref_presence.tolist()
            assert pm.missing[:, col].tolist() == ref_missing.tolist()
        assert pm.matrix[:, 0].tolist() == [1, 0, 1, 0, 0]

    def test_matrix_requires_selection(self):
        corpus = make_corpus({"aaa_t": {"00000001": "ti"}}, select=False)
        pivot = Pivot("aaa", "aaa_t", "ti", 1.0)
        with pytest.raises(DataError):
            PivotSet.scan(corpus, pivot, [pivot])

    def test_matrix_shape_and_missing_rows(self):
        corpus = make_corpus(
            {
                "aaa_t": {"00000001": "ti", "00000002": "ko"},
                "bbb_t": {"00000002": "x ti"},
            }
        )
        a = Pivot("aaa", "aaa_t", "ti", 2.0)
        b = Pivot("bbb", "bbb_t", "x", 1.0)
        mat = PivotSet.scan(corpus, a, [a, b]).presence
        assert mat.verse_ids == ("00000001", "00000002")
        assert mat.pivots == [a, b]
        assert mat.matrix.dtype == np.uint8
        assert mat.matrix.tolist() == [[1, 0], [0, 1]]
        assert mat.missing.tolist() == [[False, True], [False, False]]

    def test_no_members(self):
        corpus = make_corpus({"aaa_t": {"00000001": "ti"}, "bbb_t": {"00000002": "x"}})
        ps = PivotSet.scan(corpus, Pivot("aaa", "aaa_t", "ti", 1.0), [])
        assert ps.rows.size == ps.rel.size == 0 and ps.presence.pivots == []
        assert ps.presence.matrix.shape == ps.presence.missing.shape == (2, 0)

    def test_member_lacking_verses(self):
        # the one scan gives the positions and the matrix column alike
        corpus = make_corpus(
            {
                "aaa_t": {"00000001": "ti ko ti", "00000003": "ko", "00000004": "ti"},
                "bbb_t": {"00000002": "x", "00000005": "y"},
            }
        )
        pivot = Pivot("aaa", "aaa_t", "ti", 1.0)
        ps = PivotSet.scan(corpus, pivot, [pivot])
        presence, missing = oracle.token_presence_vector(corpus, "aaa_t", "ti")
        assert ps.rows.tolist() == [0, 0, 3]
        assert ps.rel.tolist() == [1 / 8, 7 / 8, 0.5]
        assert missing.tolist() == [False, True, False, False, True]
        assert ps.presence.matrix[:, 0].tolist() == presence.tolist() == [1, 0, 0, 1, 0]
        assert ps.presence.missing[:, 0].tolist() == missing.tolist()


class TestHeadPivot:
    def test_empty_allowlist_fatal(self, planted):
        corpus, truth = planted
        q = truth["query"]
        query = Query("past", q["translation_id"], frozenset(q["forms"]["past"]))
        with pytest.raises(DataError):
            find_head_pivot(corpus, query, set(), *SEARCH_PARAMS)

    def test_unknown_query_translation(self, planted):
        corpus, _ = planted
        query = Query("past", "zzz_none", frozenset({"x"}))
        with pytest.raises(DataError):
            find_head_pivot(corpus, query, {"paa"}, *SEARCH_PARAMS)

    def test_planted_head_found(self, planted):
        corpus, truth = planted
        q = truth["query"]
        allow = {
            iso for iso, info in truth["languages"].items()
            if info["style"] == "particle" and iso != q["iso3"]
        }
        query = Query("past", q["translation_id"], frozenset(q["forms"]["past"]))
        head = find_head_pivot(corpus, query, allow, *SEARCH_PARAMS)
        assert head.iso3 in allow
        assert head.surface in truth["languages"][head.iso3]["markers"]["past"]
        assert head.score > 0

    def test_aligns_only_allowlisted_targets(self, planted, monkeypatch):
        corpus, truth = planted
        q = truth["query"]
        allow = {"pba", "pca", "pda"}
        query = Query("past", q["translation_id"], frozenset(q["forms"]["past"]))
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("targets", args[5] if len(args) > 5 else None))
            return link_counts(*args, **kwargs)

        monkeypatch.setattr(pivots_module, "link_counts", spy)
        head = find_head_pivot(corpus, query, allow, *SEARCH_PARAMS)
        assert [sorted(t) for t in seen] == [["pba_synth", "pca_synth", "pda_synth"]]

        # the head is the one found by aligning every translation
        stats = link_counts(
            corpus, q["translation_id"], synthetic_query_token("past"),
            CONFIG, CONFIG.cache_dir, None, query.forms,
        )
        best = next(
            c for c in score_candidates(corpus, stats, CONFIG.min_count)
            if c.iso3 in allow and c.score > 0
        )
        assert (head.translation_id, head.surface, head.score) == (
            best.translation_id,
            best.surface,
            best.score,
        )

    def test_no_positive_candidate_lists_alternatives(self, planted):
        corpus, truth = planted
        q = truth["query"]
        query = Query("past", q["translation_id"], frozenset(q["forms"]["past"]))
        with pytest.raises(DataError) as err:
            find_head_pivot(corpus, query, {"xxx"}, *SEARCH_PARAMS)
        assert "top candidates overall" in str(err.value)


@pytest.fixture(scope="module")
def head_and_ranking(planted):
    corpus, truth = planted
    q = truth["query"]
    allow = {
        iso for iso, info in truth["languages"].items()
        if info["style"] == "particle" and iso != q["iso3"]
    }
    query = Query("past", q["translation_id"], frozenset(q["forms"]["past"]))
    head = find_head_pivot(corpus, query, allow, *SEARCH_PARAMS)
    ranking = rank_pivot_candidates(corpus, head, *SEARCH_PARAMS)
    return head, ranking


class TestExpansion:
    def test_k10_one_planted_pivot_per_language(self, planted, head_and_ranking):
        corpus, truth = planted
        head, ranking = head_and_ranking
        ps = expand_pivots(corpus, "past", head, 10, ranking)
        assert len(ps.members) == 10
        langs = [p.iso3 for p in ps.members]
        assert len(set(langs)) == 10
        for p in ps.members:
            assert p.surface in truth["languages"][p.iso3]["markers"]["past"]

    def test_members_sorted_by_score(self, planted, head_and_ranking):
        corpus, _ = planted
        head, ranking = head_and_ranking
        ps = expand_pivots(corpus, "past", head, 8, ranking)
        scores = [p.score for p in ps.members]
        assert scores == sorted(scores, reverse=True)

    def test_duplicate_translation_does_not_double_language(
        self, planted, head_and_ranking
    ):
        corpus, _ = planted
        head, ranking = head_and_ranking
        twin_source = corpus.translations[ranking[0].translation_id]
        bigger = with_translation(
            corpus, "zza_twin", verses_of(corpus, twin_source.translation_id), twin_source.iso3
        )
        bigger = bigger.select(len(corpus.verse_universe))
        doubled = ranking + [
            Pivot(c.iso3, "zza_twin", c.surface, c.score)
            for c in ranking
            if c.translation_id == twin_source.translation_id
        ]
        doubled.sort(key=lambda c: (-c.score, c.iso3, c.surface, c.translation_id))
        ps = expand_pivots(bigger, "past", head, 10, doubled)
        langs = [p.iso3 for p in ps.members]
        assert len(langs) == len(set(langs))

    def test_runs_out_with_warning(self, planted, head_and_ranking, caplog):
        corpus, _ = planted
        head, ranking = head_and_ranking
        with caplog.at_level(logging.WARNING):
            ps = expand_pivots(corpus, "past", head, 100, ranking)
        assert len(ps.members) < 100
        assert "stopped at" in caplog.text

    def test_k_must_be_positive(self, planted, head_and_ranking):
        # RunConfig checks k; its smallest value keeps the head alone
        corpus, _ = planted
        head, ranking = head_and_ranking
        with pytest.raises(ConfigError):
            RunConfig(k=0)
        RunConfig(k=1)
        assert expand_pivots(corpus, "past", head, 1, ranking).members == [head]

    def test_top_markers_by_language(self, head_and_ranking):
        head, ranking = head_and_ranking
        top = top_markers_by_language(ranking, head)
        assert top[head.iso3] == head
        seen = {}
        for cand in ranking:
            if cand.score > 0 and cand.iso3 not in seen:
                seen[cand.iso3] = cand
        for iso, cand in seen.items():
            if iso != head.iso3:
                assert top[iso] == cand


class TestFiles:
    def test_queries_round_trip(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text(
            "# comment\npast\tqaa_synth\tti,wen\nfuture\tqaa_synth\tva\n",
            encoding="utf-8",
        )
        queries = read_queries(path)
        assert queries[0] == Query("past", "qaa_synth", frozenset({"ti", "wen"}))
        assert queries[1].forms == frozenset({"va"})

    def test_queries_malformed(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("past only_two_fields\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_queries(path)

    @pytest.mark.parametrize(
        "line", ["past\tqaa_synth\t,", "past tense\tqaa_synth\tti", "past.\tqaa_synth\tti"]
    )
    def test_queries_without_forms_or_with_delimiters_rejected(self, tmp_path, line):
        path = tmp_path / "queries.tsv"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_queries(path)

    def test_allowlist(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("# langs\npaa\n\npba\n", encoding="utf-8")
        assert read_allowlist(path) == {"paa", "pba"}

    def test_pivots_tsv_round_trip(self, tmp_path):
        corpus = make_corpus(
            {
                "aaa_t": {"00000001": "ti ko", "00000002": "ko"},
                "bbb_t": {"00000001": "ka so", "00000002": "so"},
            }
        )
        pivots = [Pivot("aaa", "aaa_t", "ti", 9.0), Pivot("bbb", "bbb_t", "ka", 5.0)]
        path = tmp_path / "pivots.tsv"
        write_pivots_tsv(pivots, path)
        text = path.read_text()
        assert text.startswith("rank\tiso3\ttranslation\tsurface\tchi2\n")
        assert "1\taaa\taaa_t\tti\t9\n" in text
        assert read_pivots_tsv(corpus, path) == pivots

    def test_pivots_tsv_rejects_garbage(self, tmp_path):
        corpus = make_corpus({"aaa_t": {"00000001": "x"}})
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a header\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_pivots_tsv(corpus, bad)
        header = "rank\tiso3\ttranslation\tsurface\tchi2\n"
        for row in ("1\taaa\taaa_t\tx\tmany\n", "1\taaa\taaa_t\tx\n",
                    "1\tzzz\tzzz_none\tx\t3\n"):
            bad.write_text(header + row, encoding="utf-8")
            with pytest.raises(DataError):
                read_pivots_tsv(corpus, bad)
        bad.write_text(header, encoding="utf-8")
        assert read_pivots_tsv(corpus, bad) == []
