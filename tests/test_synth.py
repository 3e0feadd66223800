"""Synthetic corpus generation and its ground-truth ledger."""

import json
import string
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synth_oracle
from helpers import CONFIG, verses_of
from pivotmine.cli import main
from pivotmine.corpus import load_corpus, read_families, tokenize_verse
from pivotmine.errors import ConfigError
from pivotmine.evaluation import read_gold
from pivotmine.pivots import read_allowlist, read_queries
from pivotmine.synth import (
    CONTENT_CONSONANTS,
    MARKER_CONSONANTS,
    PRESETS,
    LanguageSpec,
    STYLES,
    VOWELS,
    SynthSpec,
    _generate,
    _sub_rng,
    generate,
    preset_families28,
    preset_marking24,
    preset_tiny8,
    spec_from_json,
    translation_id_for,
    write_synth,
)


def small_spec(**overrides) -> SynthSpec:
    params = dict(
        n_verses=120,
        features=(("past", 0.4),),
        languages=(
            LanguageSpec("qaa", "particle", "fa"),
            LanguageSpec("paa", "particle", "fb"),
            LanguageSpec("saa", "suffix", "fc"),
            LanguageSpec("naa", "none", "fd"),
        ),
        query_iso3="qaa",
        vocabulary_size=30,
        seed=5,
    )
    params.update(overrides)
    return SynthSpec(**params)


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a, truth_a = generate(small_spec())
        b, truth_b = generate(small_spec())
        assert truth_a == truth_b
        for tid in a.translations:
            assert verses_of(a, tid) == verses_of(b, tid)

    def test_different_seed_differs(self):
        a, _ = generate(small_spec())
        b, _ = generate(small_spec(seed=6))
        assert any(
            verses_of(a, tid) != verses_of(b, tid)
            for tid in a.translations
        )

    def test_sub_rng_streams_are_independent(self):
        assert _sub_rng(5, "labels").random() == _sub_rng(5, "labels").random()
        assert _sub_rng(5, "labels").random() != _sub_rng(5, "content").random()
        assert _sub_rng(5, "a", "b").random() != _sub_rng(5, "ab").random()


class TestPlantedMarkers:
    def test_marked_lists_match_texts(self):
        corpus, truth = generate(small_spec())
        for iso3, info in truth["languages"].items():
            verses = verses_of(corpus, info["translation_id"])
            marks = set(info["markers"].get("past", ()))
            marked = set(info["marked"].get("past", ()))
            for vid, text in verses.items():
                words = text.split()
                if info["style"] == "particle":
                    hit = any(w in marks for w in words)
                elif info["style"] == "suffix":
                    hit = any(words[-1].endswith(m) for m in marks)
                else:
                    hit = False
                assert hit == (vid in marked), (iso3, vid)

    def test_particle_is_penultimate(self):
        corpus, truth = generate(small_spec())
        info = truth["languages"]["paa"]
        mark = info["markers"]["past"][0]
        for vid in info["marked"]["past"]:
            words = verses_of(corpus, info["translation_id"])[vid].split()
            assert words[-2] == mark

    def test_suffix_is_verse_final(self):
        corpus, truth = generate(small_spec())
        info = truth["languages"]["saa"]
        mark = info["markers"]["past"][0]
        for vid in info["marked"]["past"]:
            text = verses_of(corpus, info["translation_id"])[vid]
            assert text.endswith(mark)

    def test_content_words_avoid_marker_alphabet(self):
        corpus, truth = generate(small_spec())
        for iso3, info in truth["languages"].items():
            marks = {m for forms in info["markers"].values() for m in forms}
            for text in verses_of(corpus, info["translation_id"]).values():
                for word in tokenize_verse(text)[0]:
                    if info["style"] == "suffix":
                        for m in marks:
                            if word.endswith(m):
                                word = word[: -len(m)]
                                break
                    if word in marks:
                        continue
                    assert not set(word) & set(MARKER_CONSONANTS), (iso3, word)

    def test_marked_only_labeled_verses(self):
        _, truth = generate(small_spec())
        labels = truth["labels"]
        for info in truth["languages"].values():
            for f, vids in info["marked"].items():
                assert all(labels[v] == f for v in vids)

    def test_explicit_marker_forms_used(self):
        spec = small_spec(
            languages=(
                LanguageSpec("qaa", "particle", "fa"),
                LanguageSpec("paa", "particle", "fb", markers=(("past", ("kuxi",)),)),
            )
        )
        corpus, truth = generate(spec)
        info = truth["languages"]["paa"]
        assert info["markers"]["past"] == ["kuxi"]
        vid = info["marked"]["past"][0]
        assert " kuxi " in verses_of(corpus, "paa_synth")[vid]

    def test_particle_forms_share_consonant_split_vowels(self):
        # slot consonants repeat across features, vowels pin the feature
        _, truth = generate(small_spec(query_forms=2))
        for iso3, info in truth["languages"].items():
            if info["style"] != "particle":
                continue
            forms = info["markers"]
            n_forms = {len(v) for v in forms.values()}
            assert len(n_forms) == 1
            for j in range(n_forms.pop()):
                assert len({forms[f][j][0] for f in forms}) == 1
            for f, v in forms.items():
                assert all(len(m) == 2 for m in v)
                assert len({m[1] for m in v}) == 1
            assert len({v[0][1] for v in forms.values()}) == len(forms)

    def test_query_gets_multiple_forms_and_no_missing(self):
        spec = small_spec(verse_missing=0.3, query_forms=3)
        corpus, truth = generate(spec)
        assert len(truth["query"]["forms"]["past"]) == 3
        assert len(verses_of(corpus, "qaa_synth")) == spec.n_verses
        assert len(verses_of(corpus, "paa_synth")) < spec.n_verses

    def test_family_keep_subsets_marking(self):
        full, truth_full = generate(small_spec())
        sub, truth_sub = generate(small_spec(family_keep=0.5))
        for iso3 in ("qaa", "paa", "saa"):
            full_marked = set(truth_full["languages"][iso3]["marked"]["past"])
            sub_marked = set(truth_sub["languages"][iso3]["marked"]["past"])
            assert sub_marked < full_marked

    def test_drop_thins_marking(self):
        _, clean = generate(small_spec())
        _, noisy = generate(small_spec(marker_drop=0.4))
        for iso3 in ("paa", "saa"):
            n_clean = len(clean["languages"][iso3]["marked"]["past"])
            n_noisy = len(noisy["languages"][iso3]["marked"]["past"])
            assert n_noisy < n_clean


class TestValidation:
    def test_rejects_bad_specs(self):
        cases = [
            dict(n_verses=0),
            dict(features=()),
            dict(features=(("past", 0.0),)),
            dict(features=(("past", 0.7), ("future", 0.7))),
            dict(features=(("past", 0.2), ("past", 0.2))),
            dict(languages=()),
            dict(query_iso3="zzz"),
            dict(query_iso3="naa"),
            dict(marker_drop=1.0),
            dict(family_keep=0.0),
            dict(verse_missing=-0.1),
            dict(min_words=0),
            dict(min_words=9, max_words=5),
            dict(vocabulary_size=5),
            dict(query_forms=0),
            dict(jitter=-1.0),
        ]
        for overrides in cases:
            with pytest.raises(ConfigError):
                small_spec(**overrides)

    def test_rejects_bad_languages(self):
        with pytest.raises(ConfigError):
            small_spec(
                languages=(LanguageSpec("QAA", "particle", "fa"),),
                query_iso3="QAA",
            )
        with pytest.raises(ConfigError):
            small_spec(
                languages=(
                    LanguageSpec("qaa", "particle", "fa"),
                    LanguageSpec("qaa", "particle", "fb"),
                )
            )
        with pytest.raises(ConfigError):
            small_spec(
                languages=(LanguageSpec("qaa", "weird", "fa"),)
            )


class TestPresets:
    def test_marking24_roster(self):
        spec = preset_marking24()
        styles = [l.style for l in spec.languages]
        assert styles.count("particle") == 16
        assert styles.count("suffix") == 4
        assert styles.count("none") == 4
        assert spec.n_verses == 3000

    def test_families28_roster(self):
        spec = preset_families28()
        fams = [l.family for l in spec.languages]
        assert fams.count("famA") == 5
        assert fams.count("famB") == fams.count("famC") == fams.count("famD") == 5
        assert sum(1 for f in fams if f.startswith("iso_")) == 8
        assert spec.family_keep == 0.4

    def test_tiny8_roster(self):
        spec = preset_tiny8()
        assert len(spec.languages) == 8
        assert spec.n_verses == 400


class TestOnDisk:
    def test_write_synth_round_trips_through_loaders(self, tmp_path):
        spec = small_spec()
        written = write_synth(spec, tmp_path)
        assert sorted(written) == sorted(p for p in tmp_path.rglob("*") if p.is_file())
        corpus, truth = generate(spec)
        loaded = load_corpus(tmp_path / "corpus", CONFIG.families)
        assert set(loaded.translations) == set(corpus.translations)
        for tid, trans in corpus.translations.items():
            assert verses_of(loaded, tid) == verses_of(corpus, tid)
            assert loaded.translations[tid].iso3 == trans.iso3

        queries = read_queries(tmp_path / "queries.tsv")
        assert [q.feature for q in queries] == ["past"]
        assert queries[0].translation_id == "qaa_synth"
        assert queries[0].forms == frozenset(truth["query"]["forms"]["past"])

        assert read_allowlist(tmp_path / "allowlist.txt") == {"paa"}

        gold = read_gold(tmp_path / "gold.tsv")
        assert gold[("paa_synth", "past")] == set(
            truth["languages"]["paa"]["markers"]["past"]
        )
        assert ("naa_synth", "past") not in gold

        fams = read_families(tmp_path / "families.tsv")
        assert fams == {"qaa": "fa", "paa": "fb", "saa": "fc", "naa": "fd"}

        ledger = json.loads((tmp_path / "ground_truth.json").read_text())
        assert ledger == truth

    def test_spec_from_json_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "n_verses": 50,
                    "features": [["past", 0.4]],
                    "languages": [
                        {"iso3": "qaa", "style": "particle", "family": "fa"},
                        {"iso3": "paa", "style": "particle", "family": "fb",
                         "markers": {"past": ["kuxi"]}},
                    ],
                    "query_iso3": "qaa",
                    "vocabulary_size": 30,
                    "seed": 9,
                }
            ),
            encoding="utf-8",
        )
        spec = spec_from_json(path)
        assert spec.n_verses == 50
        assert spec.vocabulary_size == 30
        assert spec.languages[1].marker_map() == {"past": ("kuxi",)}
        generate(spec)

    def test_spec_from_json_rejects_unknown_keys(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"n_verses": 5, "features": [["past", 0.4]],
                        "languages": [], "query_iso3": "qaa", "bogus": 1}),
            encoding="utf-8",
        )
        with pytest.raises(ConfigError):
            spec_from_json(bad)
        bad_lang = tmp_path / "bad_lang.json"
        bad_lang.write_text(
            json.dumps({"n_verses": 5, "features": [["past", 0.4]],
                        "languages": [{"iso3": "qaa", "style": "particle",
                                       "family": "f", "oops": 1}],
                        "query_iso3": "qaa"}),
            encoding="utf-8",
        )
        with pytest.raises(ConfigError):
            spec_from_json(bad_lang)
        with pytest.raises(ConfigError):
            spec_from_json(tmp_path / "missing.json")


def test_synth_command_builds_no_corpus(tmp_path, caplog):
    # synth writes and counts the generated texts; loading them is the
    # other commands' work
    out = tmp_path / "out"
    with mock.patch("pivotmine.synth.build_corpus", side_effect=AssertionError("built")), \
            caplog.at_level("INFO", logger="pivotmine"):
        assert main(["synth", "--preset", "tiny8", "--out", str(out)]) == 0
    assert f"wrote 8 translations, 400 verses to {out}" in caplog.text
    corpus, _ = generate(preset_tiny8())
    loaded = load_corpus(out / "corpus", None)
    for tid in corpus.translations:
        assert verses_of(loaded, tid) == verses_of(corpus, tid)


class TestSpecExitCodes:
    """synth --spec exits 2, with a config error, for a spec of bad types."""

    SPEC = {
        "n_verses": 50,
        "features": [["past", 0.4]],
        "languages": [
            {"iso3": "qaa", "style": "particle", "family": "fa"},
            {"iso3": "paa", "style": "particle", "family": "fb"},
        ],
        "query_iso3": "qaa",
        "vocabulary_size": 30,
        "seed": 9,
    }

    def run(self, tmp_path, spec) -> int:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return main(["synth", "--spec", str(path), "--out", str(tmp_path / "out")])

    def test_good_spec_exits_0(self, tmp_path):
        assert self.run(tmp_path, self.SPEC) == 0

    @pytest.mark.parametrize("change", [
        {"n_verses": 10.5},
        {"vocabulary_size": "60"},
        {"languages": [SPEC["languages"][0], {**SPEC["languages"][1], "markers": {"past": "ab"}}]},
        {"features": [["past", "0.3"]]},
    ], ids=["float-n_verses", "string-vocabulary_size", "string-markers", "string-probability"])
    def test_bad_types_exit_2(self, tmp_path, capsys, change):
        assert self.run(tmp_path, {**self.SPEC, **change}) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not (tmp_path / "out" / "gold.tsv").exists()

    def test_vocabulary_size_is_one_per_spec(self, tmp_path, capsys):
        # a language's own vocabulary_size is an unknown key
        lang = {**self.SPEC["languages"][1], "vocabulary_size": 400}
        languages = [self.SPEC["languages"][0], lang]
        assert self.run(tmp_path, {**self.SPEC, "languages": languages}) == 2
        assert "unknown language keys: ['vocabulary_size']" in capsys.readouterr().err
        # the spec's sets every language's vocabulary
        corpora = []
        for size in (30, 400):
            assert self.run(tmp_path, {**self.SPEC, "vocabulary_size": size}) == 0
            corpora.append((tmp_path / "out" / "corpus" / "paa_synth.txt").read_text())
        assert corpora[0] != corpora[1]


def test_translation_id_format():
    assert translation_id_for("qaa") == "qaa_synth"


def test_alphabets_are_disjoint():
    assert not set(CONTENT_CONSONANTS) & set(MARKER_CONSONANTS)


# --- the generator against its per-verse oracle ------------------------------


def assert_matches_the_oracle(spec: SynthSpec) -> None:
    """_generate gives what the per-verse generator gives: the same verses
    in the same order, language codes, families and ledger. Ours are the
    ledger's, as generate takes them."""
    def items(verses, iso3, families, truth):
        texts = [(tid, list(by_vid.items())) for tid, by_vid in verses.items()]
        return texts, list(iso3.items()), list(families.items()), truth

    verses, truth = _generate(spec)
    languages = truth["languages"]
    ours = items(
        verses,
        {info["translation_id"]: code for code, info in languages.items()},
        {code: info["family"] for code, info in languages.items()},
        truth,
    )
    assert ours == items(*synth_oracle.generate(spec))


def bench_shaped_spec(seed: int) -> SynthSpec:
    """76 languages laid out like the wide benchmark corpus: the query,
    35 particle, 28 suffix and 12 unmarked languages with explicit codes,
    families round-robin within each style, and verses missing outside
    the query."""
    letters = string.ascii_lowercase
    langs = [LanguageSpec("qaa", "particle", "fam_q")]
    for style, prefix, count in (("particle", "p", 35), ("suffix", "s", 28), ("none", "n", 12)):
        langs += [
            LanguageSpec(prefix + letters[i // 26] + letters[i % 26], style, f"fam_{prefix}{i % 4}")
            for i in range(count)
        ]
    return SynthSpec(
        n_verses=600,
        features=(("past", 0.3), ("present", 0.3), ("future", 0.25)),
        languages=tuple(langs),
        query_iso3="qaa",
        query_forms=2,
        marker_drop=0.03,
        jitter=1.0,
        verse_missing=0.1,
        seed=seed,
    )


@st.composite
def synth_specs(draw) -> SynthSpec:
    features = tuple(
        (name, 0.9 / 3 * draw(st.sampled_from([0.5, 1.0])))
        for name in ["past", "present", "future"][: draw(st.integers(1, 3))]
    )
    min_words = draw(st.integers(1, 4))
    max_words = draw(st.integers(min_words, 7))
    langs = [LanguageSpec("qaa", "particle", "fq")]
    for i in range(draw(st.integers(1, 5))):
        style = draw(st.sampled_from(STYLES))
        markers = None
        if style != "none" and draw(st.booleans()):
            markers = tuple(
                (f, tuple(f"{c}{f[0]}{i}" for c in "xk"[: draw(st.integers(1, 2))]))
                for f, _ in features
            )
        langs.append(LanguageSpec(f"l{VOWELS[i]}a", style, f"f{i % 2}", markers))
    return SynthSpec(
        n_verses=draw(st.integers(1, 60)),
        features=features,
        languages=tuple(langs),
        query_iso3="qaa",
        query_forms=draw(st.integers(1, 3)),
        marker_drop=draw(st.sampled_from([0.0, 0.2])),
        jitter=draw(st.sampled_from([0.0, 0.3, 1.0, 2.5])),
        family_keep=draw(st.sampled_from([1.0, 0.5])),
        verse_missing=draw(st.sampled_from([0.0, 0.3])),
        min_words=min_words,
        max_words=max_words,
        vocabulary_size=max_words + draw(st.integers(0, 5)),
        seed=draw(st.integers(0, 2**32)),
    )


class TestGeneratorOracle:
    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    @pytest.mark.parametrize("preset", ["tiny8", "marking24", "families28"])
    def test_presets(self, preset, seed):
        spec = PRESETS[preset]()
        assert_matches_the_oracle(spec if seed is None else replace(spec, seed=seed))

    def test_benchmark_shaped_spec(self):
        spec = bench_shaped_spec(91)
        assert len(spec.languages) == 76
        assert_matches_the_oracle(spec)

    @settings(max_examples=80, deadline=None)
    @given(synth_specs())
    @example(SynthSpec(
        n_verses=40,
        features=(("past", 0.4), ("future", 0.4)),
        languages=(
            LanguageSpec("qaa", "particle", "fq"),
            LanguageSpec("paa", "particle", "f0", (("past", ("xa", "ka")), ("future", ("xo",)))),
            LanguageSpec("saa", "suffix", "f0"),
            LanguageSpec("naa", "none", "f1"),
        ),
        query_iso3="qaa",
        query_forms=3,
        marker_drop=0.0,
        jitter=0.0,
        family_keep=0.5,
        verse_missing=0.3,
        min_words=1,
        max_words=3,
        vocabulary_size=5,
    ))
    def test_random_specs(self, spec):
        assert_matches_the_oracle(spec)
