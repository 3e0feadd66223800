"""CLI plumbing: config files, subcommands, stage handoffs, exit codes."""

import argparse
import ctypes
import inspect
import json
import mmap
import os
import re
import shutil
import subprocess
import sys
import types
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

import numpy
import pytest

from helpers import verses_of
from pivotmine.aligner import link_counts, train_alignment, train_pair
from pivotmine import cli as cli_module
from pivotmine.cli import Run, _load_pivot_set, main
from pivotmine.config import RunConfig, load_config
from pivotmine.corpus import MultiCorpus, load_corpus
from pivotmine.evaluation import gram_matches, mrr, reciprocal_rank
from pivotmine.maps import select_splitting_pivots
from pivotmine.ngrams import mine_ngrams
from pivotmine import corpus as corpus_module
from pivotmine import manifest as manifest_module
from pivotmine import pivots as pivots_module
from pivotmine.errors import ConfigError, DataError
from pivotmine.manifest import RunRecorder, canonical_sha256, file_sha256
from pivotmine.pivots import (
    Pivot, expand_pivots, find_head_pivot, rank_pivot_candidates, read_pivots_tsv, score_candidates,
    top_markers_by_language,
)
from pivotmine.synth import LanguageSpec, SynthSpec, preset_tiny8, write_synth


class TestConfig:
    def test_save_load_round_trip(self, tmp_path):
        cfg = RunConfig(k=7, sigma=4.5, corpus_dir="/tmp/x", map_policy="largest")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)), encoding="utf-8")
        assert load_config(path) == cfg

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"bogus": 1}', encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_type_checks(self, tmp_path):
        for payload in (
            '{"window": "big"}',
            '{"top": true}',
            '{"sigma": "6"}',
            '{"corpus_dir": 5}',
            '{"k": null}',
            '[1, 2]',
            'not json',
        ):
            path = tmp_path / "cfg.json"
            path.write_text(payload, encoding="utf-8")
            with pytest.raises(ConfigError):
                load_config(path)

    def test_validation_bounds(self):
        bad = [
            dict(sigma=0.0),
            dict(window=-1),
            dict(k=0),
            dict(n_min=0),
            dict(n_min=5, n_max=4),
            dict(top=0),
            dict(min_count=0),
            dict(em_iterations=0),
            dict(diagonal_tension=-1.0),
            dict(null_prob=1.0),
            dict(coverage_target=0),
            dict(min_shared_verses=-1),
            dict(jsd_threshold=1.5),
            dict(map_rounds=-1),
            dict(map_policy="spiral"),
            dict(match_mode="fuzzy"),
        ]
        for overrides in bad:
            with pytest.raises(ConfigError):
                RunConfig(**overrides)

    # One bad value of each bounded field: every field of RunConfig but the
    # paths and the seed, and the scalar bounds of SynthSpec.
    BAD_RUN_VALUES = {
        "sigma": 0.0, "window": -1, "k": 0, "n_min": 0, "n_max": 1, "top": 0, "min_count": 0,
        "em_iterations": 0, "diagonal_tension": -1.0, "null_prob": 1.0, "coverage_target": 0,
        "min_shared_verses": -1, "jsd_threshold": 1.5, "map_rounds": -1,
        "map_policy": "spiral", "match_mode": "fuzzy",
    }
    BAD_SPEC_VALUES = {
        "n_verses": 0, "query_forms": 0, "marker_drop": 1.0, "jitter": -1.0,
        "family_keep": 0.0, "verse_missing": 1.0, "min_words": 0, "max_words": 0,
        "vocabulary_size": 5,
    }

    # The roster and feature checks of SynthSpec, each with the key it names.
    BAD_SPEC_ROSTERS = {
        "features-empty": ("features", ()),
        "features-negative": ("features", (("past", -0.1),)),
        "features-over-one": ("features", (("past", 0.6), ("future", 0.6))),
        "features-duplicate": ("features", (("past", 0.2), ("past", 0.2))),
        "languages-empty": ("languages", ()),
        "languages-too-many": ("languages", preset_tiny8().languages * 11),
        "query_iso3-not-in-languages": ("query_iso3", "zzz"),
    }

    def test_every_bounded_field_has_a_bad_value(self):
        unbounded = {f.name for f in fields(RunConfig) if f.type == "str | None"} | {"seed"}
        assert set(self.BAD_RUN_VALUES) == {f.name for f in fields(RunConfig)} - unbounded

    @pytest.mark.parametrize("base, field, bad", [
        *(pytest.param(RunConfig(), f, v, id=f"RunConfig.{f}") for f, v in BAD_RUN_VALUES.items()),
        *(pytest.param(preset_tiny8(), f, v, id=f"SynthSpec.{f}") for f, v in BAD_SPEC_VALUES.items()),
        *(
            pytest.param(preset_tiny8(), f, v, id=f"SynthSpec.{case}")
            for case, (f, v) in BAD_SPEC_ROSTERS.items()
        ),
    ])
    def test_a_config_is_checked_when_built(self, base, field, bad):
        """A bad value raises ConfigError naming its field, whether the
        config is built from its fields or by dataclasses.replace; no field
        can be assigned to."""
        values = {f.name: getattr(base, f.name) for f in fields(base)}
        with pytest.raises(ConfigError, match=field):
            type(base)(**{**values, field: bad})
        with pytest.raises(ConfigError, match=field):
            replace(base, **{field: bad})
        with pytest.raises(FrozenInstanceError):
            setattr(base, field, getattr(base, field))

    def test_hash_tracks_content(self):
        def config_sha256(cfg: RunConfig) -> str:  # as the manifest records it
            return canonical_sha256(asdict(cfg))

        assert config_sha256(RunConfig()) != config_sha256(RunConfig(k=3))
        assert config_sha256(RunConfig(k=3)) == config_sha256(RunConfig(k=3))

    # The parameter names under which library functions take RunConfig
    # fields: the config itself for the aligner settings (cfg), cache_dir,
    # min_count, k, the mining sigma, window (w), n_min/n_max (n_range) and
    # top, map_rounds (rounds), map_policy (policy) and match_mode (mode).
    RUN_PARAMETERS = {
        "cfg", "cache_dir", "min_count", "k", "sigma", "w", "n_range", "top",
        "rounds", "policy", "mode",
    }

    @pytest.mark.parametrize("fn", [
        train_alignment, train_pair, link_counts, score_candidates, find_head_pivot,
        rank_pivot_candidates, expand_pivots, mine_ngrams, select_splitting_pivots,
        gram_matches, reciprocal_rank, mrr,
    ], ids=lambda fn: fn.__name__)
    def test_run_parameters_have_no_library_default(self, fn):
        params = inspect.signature(fn).parameters
        carried = self.RUN_PARAMETERS & set(params)
        assert carried, "no run parameter to check"
        defaults = [n for n in carried if params[n].default is not inspect.Parameter.empty]
        assert defaults == [], f"{fn.__name__} defaults {defaults}; RunConfig holds them"

    @pytest.mark.parametrize("field", [f.name for f in fields(RunConfig)])
    def test_every_badly_typed_field_exits_2(self, field, tmp_path, capsys):
        # a list is no field's type; true is neither a number nor a string
        for value in ([1], True):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({field: value}), encoding="utf-8")
            argv = ["ingest", "--config", str(path), "--out", str(tmp_path / "o")]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "Traceback" not in err
            assert field in err


def cli_spec() -> SynthSpec:
    return SynthSpec(
        n_verses=150,
        features=(("past", 0.4),),
        languages=(
            LanguageSpec("qaa", "particle", "fa"),
            LanguageSpec("paa", "particle", "fb"),
            LanguageSpec("pba", "particle", "fc"),
            LanguageSpec("saa", "suffix", "fd"),
            LanguageSpec("naa", "none", "fe"),
        ),
        query_iso3="qaa",
        marker_drop=0.02,
        vocabulary_size=30,
        seed=21,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    write_synth(cli_spec(), data)
    truth = json.loads((data / "ground_truth.json").read_text(encoding="utf-8"))
    config = {
        "corpus_dir": str(data / "corpus"),
        "queries": str(data / "queries.tsv"),
        "allowlist": str(data / "allowlist.txt"),
        "gold": str(data / "gold.tsv"),
        "families": str(data / "families.tsv"),
        "coverage_target": 150,
        "k": 3,
        "min_count": 5,
        "map_rounds": 2,
        "min_shared_verses": 50,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return root, cfg_path, config, truth


@pytest.fixture(scope="module")
def expanded(workspace):
    """head.json, pivots.tsv and ranking.tsv of the workspace's past feature."""
    root, cfg_path, _, _ = workspace
    past = root / "expanded"
    cfg = ["--config", str(cfg_path), "--feature", "past", "--out", str(past)]
    assert main(["head-pivot", *cfg]) == 0
    assert main(["expand-pivots", *cfg, "--head", str(past / "head.json")]) == 0
    return past


class TestSynthCommand:
    def test_preset_writes_everything(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--preset", "tiny8", "--out", str(out)]) == 0
        for name in (
            "ground_truth.json", "queries.tsv", "allowlist.txt",
            "gold.tsv", "families.tsv", "manifest.json",
        ):
            assert (out / name).is_file()
        assert len(list((out / "corpus").glob("*_synth.txt"))) == 8

    def test_seed_override_changes_corpus(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--preset", "tiny8", "--out", str(a)]) == 0
        assert main(["synth", "--preset", "tiny8", "--seed", "99", "--out", str(b)]) == 0
        fa = (a / "corpus" / "qaa_synth.txt").read_text()
        fb = (b / "corpus" / "qaa_synth.txt").read_text()
        assert fa != fb

    def test_seed_override_applies_to_a_spec(self, tmp_path):
        spec = {
            "n_verses": 40,
            "features": [["past", 0.4]],
            "languages": [
                {"iso3": "qaa", "style": "particle", "family": "fa"},
                {"iso3": "paa", "style": "particle", "family": "fb"},
            ],
            "query_iso3": "qaa",
            "seed": 5,
        }
        corpora = []
        for seed, flag in ((5, []), (5, ["--seed", "99"]), (99, [])):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(dict(spec, seed=seed)), encoding="utf-8")
            out = tmp_path / f"out{len(corpora)}"
            assert main(["synth", "--spec", str(path), *flag, "--out", str(out)]) == 0
            corpora.append((out / "corpus" / "paa_synth.txt").read_bytes())
        assert corpora[1] != corpora[0]
        assert corpora[1] == corpora[2]

    def test_rerun_lists_only_its_own_outputs(self, tmp_path):
        out = tmp_path / "synth"
        for _ in range(2):
            assert main(["synth", "--preset", "tiny8", "--out", str(out)]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        names = {Path(p).name for p in outputs}
        assert "manifest.json" not in names
        assert "ground_truth.json" in names
        assert len(names) == 8 + 5

    def test_manifest_records_the_effective_spec(self, tmp_path):
        docs = []
        for flag in ([], ["--seed", "5"]):
            out = tmp_path / f"out{len(docs)}"
            assert main(["synth", "--preset", "tiny8", *flag, "--out", str(out)]) == 0
            docs.append(json.loads((out / "manifest.json").read_text()))
            # the manifest does not change what synth writes
            direct = tmp_path / f"direct{len(docs)}"
            write_synth(replace(preset_tiny8(), seed=5) if flag else preset_tiny8(), direct)
            for path in sorted((direct / "corpus").iterdir()):
                assert (out / "corpus" / path.name).read_bytes() == path.read_bytes()
        for doc, spec in zip(docs, (preset_tiny8(), replace(preset_tiny8(), seed=5))):
            assert doc["config"] == json.loads(json.dumps(asdict(spec)))
            assert doc["config_sha256"] == canonical_sha256(doc["config"])
            assert doc["inputs"] == {}
        assert [doc["config"]["seed"] for doc in docs] == [7, 5]
        assert docs[0]["config_sha256"] != docs[1]["config_sha256"]

    def test_spec_run_lists_its_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "n_verses": 40,
            "features": [["past", 0.4]],
            "languages": [
                {"iso3": "qaa", "style": "particle", "family": "fa"},
                {"iso3": "paa", "style": "particle", "family": "fb"},
            ],
            "query_iso3": "qaa",
        }), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(path), "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["inputs"] == {str(path): file_sha256(path)}
        assert doc["config"]["seed"] == 3
        assert doc["config"]["languages"][1]["iso3"] == "paa"
        assert doc["config_sha256"] == canonical_sha256(doc["config"])

    def test_source_argument_errors(self, tmp_path):
        out = str(tmp_path / "x")
        assert main(["synth", "--out", out]) == 2
        spec = tmp_path / "spec.json"
        spec.write_text("{}", encoding="utf-8")
        assert main(["synth", "--preset", "tiny8", "--spec", str(spec), "--out", out]) == 2
        assert main(["synth", "--preset", "nope", "--out", out]) == 2

    def test_bad_spec_value_exits_2_before_writing(self, tmp_path, capsys):
        # the spec checks itself as it is read, before any stage runs
        spec = asdict(preset_tiny8())
        spec["n_verses"] = 0
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "x"
        assert main(["synth", "--spec", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: n_verses must be >= 1\n"
        assert not out.exists()


class TestMapCommand:
    def test_rerun_lists_only_its_own_cluster_files(self, workspace, expanded, tmp_path):
        _, _, config, _ = workspace
        out = tmp_path / "map"
        argv = ["map", "--feature", "past", "--pivots", str(expanded / "pivots.tsv"),
                "--head", str(expanded / "head.json"), "--out", str(out)]
        for rounds in (1, 2):
            cfg = tmp_path / f"cfg{rounds}.json"
            cfg.write_text(json.dumps(dict(config, map_rounds=rounds)), encoding="utf-8")
            assert main([*argv, "--config", str(cfg)]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        listed = {Path(p).name for p in outputs if Path(p).parent.name == "clusters"}
        keys = [line.split("\t")[0] for line in (out / "clusters.tsv").read_text().splitlines()[1:]]
        assert listed == {f"{key}.txt" for key in keys}
        assert {p.name for p in (out / "clusters").iterdir()} == listed


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        code = main(["ingest", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_feature(self, workspace, tmp_path):
        _, cfg_path, _, _ = workspace
        code = main(["pipeline", "--config", str(cfg_path),
                     "--feature", "nope", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_empty_corpus_is_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus_dir": str(empty)}), encoding="utf-8")
        code = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_synthetic_token_in_an_unselected_verse_is_data_error(
        self, workspace, tmp_path, capsys
    ):
        # the verse only the query translation has is the one coverage leaves out
        _, _, config, _ = workspace
        corpus = tmp_path / "corpus"
        shutil.copytree(config["corpus_dir"], corpus)
        with open(corpus / "qaa_synth.txt", "a", encoding="utf-8") as fh:
            fh.write("00009999\tsome qtokpastq here\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(config, corpus_dir=str(corpus))), encoding="utf-8")
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "i")]) == 0
        assert "00009999" not in (tmp_path / "i" / "selection.txt").read_text().split()
        capsys.readouterr()
        code = main(["head-pivot", "--feature", "past", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert ("data error: synthetic token 'qtokpastq' already occurs in "
                "qaa_synth verse 00009999") in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["cache", "cache/sub"], ids=["file", "under-a-file"])
    def test_cache_dir_blocked_by_a_file_is_config_error(
        self, workspace, tmp_path, capsys, name
    ):
        _, _, config, _ = workspace
        (tmp_path / "cache").write_text("not a directory\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(config, cache_dir=str(tmp_path / name))), encoding="utf-8")
        code = main(["head-pivot", "--feature", "past", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: cache_dir" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "config_key, argv",
        [
            ("queries", ["head-pivot", "--feature", "past"]),
            ("allowlist", ["head-pivot", "--feature", "past"]),
            ("families", ["ingest"]),
            ("gold", ["eval-mrr", "--features", "past", "--from", "."]),
            (None, ["mine-ngrams", "--feature", "past", "--pivots", "{missing}"]),
            (None, ["eval-family", "--distances", "{missing}"]),
            (None, ["project", "--verses", "{missing}", "--translation", "naa_synth"]),
        ],
        ids=["queries", "allowlist", "families", "gold", "pivots", "distances", "verses"],
    )
    def test_missing_data_file_is_data_error(
        self, workspace, tmp_path, capsys, config_key, argv
    ):
        _, _, config, _ = workspace
        missing = str(tmp_path / "absent.tsv")
        if config_key:
            config = dict(config, **{config_key: missing})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv = [missing if a == "{missing}" else a for a in argv]
        code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        assert f"data error: cannot read {missing}: [Errno 2] " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, unreadable, code",
        [
            (["expand-pivots", "--feature", "past", "--head", "{tmp}/absent.json"],
             "{tmp}/absent.json", 3),
            (["mine-ngrams", "--pivots", "{expanded}/pivots.tsv", "--head", "{tmp}/absent.json"],
             "{tmp}/absent.json", 3),
            (["cluster-languages", "--features", "past", "--from", "{tmp}/from"],
             "{tmp}/from/past/ranking.tsv", 3),
            (["project", "--verses", "{tmp}", "--translation", "naa_synth"], "{tmp}", 3),
            (["synth", "--spec", "{tmp}/absent.json"], "{tmp}/absent.json", 2),
            (["synth", "--spec", "{tmp}"], "{tmp}", 2),
        ],
        ids=["expand-head", "mine-head", "ranking", "verses-dir", "spec", "spec-dir"],
    )
    def test_unreadable_input_names_its_path(
        self, workspace, expanded, tmp_path, capsys, argv, unreadable, code
    ):
        """A missing file, or a directory, where a subcommand reads an
        input is reported by the read itself, with the path as given."""
        _, cfg_path, _, _ = workspace
        (tmp_path / "from" / "past").mkdir(parents=True)
        shutil.copy(expanded / "head.json", tmp_path / "from" / "past" / "head.json")

        def fill(arg: str) -> str:
            return arg.replace("{tmp}", str(tmp_path)).replace("{expanded}", str(expanded))

        argv = [fill(a) for a in argv]
        if argv[0] != "synth":
            argv += ["--config", str(cfg_path)]
        assert main([*argv, "--out", str(tmp_path / "o")]) == code
        kind = "config" if code == 2 else "data"
        assert f"{kind} error: cannot read {fill(unreadable)}: [Errno " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, argv",
        [
            (
                "from/past/ngrams/naa_synth.tsv",
                "n\trank\tgram\tpos\tneg\tchi2\nx\t1\tab\t3\t1\t2.5\n",
                ["eval-mrr", "--features", "past", "--from", "{dir}/from"],
            ),
            (
                "distances.tsv",
                "label\tA\tB\nA\t0\tzz\nB\t0.5\t0\n",
                ["eval-family", "--distances", "{dir}/distances.tsv"],
            ),
        ],
        ids=["ngrams", "distances"],
    )
    def test_malformed_number_is_data_error(self, workspace, tmp_path, name, text, argv):
        _, cfg_path, _, _ = workspace
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
        code = main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize(
        "rows, code",
        [
            (["qaa\t0\t0.2\t0.9", "paa\t0.2\t0\t0.9", "saa\t0.9\t0.9\t0"], 0),
            (["qaa\t0\t0.2\t0.9", "saa\t0.9\t0.9\t0"], 3),
            (["qaa\t0\t0.2\t0.9", "paa\t0.2\t0\t0.9", "saa\t0.9\t0.9\t0",
              "naa\t0.9\t0.9\t0.9"], 3),
            (["qaa\t0\t0.2\t0.9", "saa\t0.9\t0.9\t0", "paa\t0.2\t0\t0.9"], 3),
        ],
        ids=["one-row-per-label", "missing-row", "extra-row", "mislabelled-row"],
    )
    def test_distance_rows_follow_the_header(self, workspace, tmp_path, rows, code):
        _, cfg_path, _, _ = workspace
        path = tmp_path / "distances.tsv"
        path.write_text("\n".join(["label\tqaa\tpaa\tsaa", *rows]) + "\n", encoding="utf-8")
        argv = ["eval-family", "--distances", str(path), "--config", str(cfg_path)]
        assert main([*argv, "--out", str(tmp_path / "o")]) == code

    @pytest.mark.parametrize(
        "command, edit",
        [
            ("mine-ngrams", "unknown-translation"),
            ("cluster-markers", "unknown-translation"),
            ("map", "unknown-translation"),
            ("mine-ngrams", "empty"),
            ("map", "foreign-head"),
            ("mine-ngrams", "foreign-head"),
            ("cluster-languages", "unknown-translation"),
        ],
    )
    def test_bad_pivot_input_is_data_error(
        self, workspace, expanded, tmp_path, command, edit
    ):
        _, cfg_path, _, _ = workspace
        past = tmp_path / "from" / "past"
        shutil.copytree(expanded, past)
        pivots, ranking, head = (
            past / name for name in ("pivots.tsv", "ranking.tsv", "head.json")
        )
        if edit == "unknown-translation":
            for path in (pivots, ranking):
                with path.open("a", encoding="utf-8") as f:
                    f.write("99\tzzz\tzzz_none\tko\t3\n")
        elif edit == "empty":
            pivots.write_text("rank\tiso3\ttranslation\tsurface\tchi2\n", encoding="utf-8")
        else:
            doc = json.loads(head.read_text(encoding="utf-8"))
            head.write_text(json.dumps(dict(doc, surface="nope")), encoding="utf-8")
        if command == "cluster-languages":
            argv = [command, "--features", "past", "--from", str(tmp_path / "from")]
        else:
            argv = [command, "--feature", "past", "--pivots", str(pivots), "--head", str(head)]
        code = main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize(
        "feature, line",
        [("past", "past\tqaa_synth\t,"), ("past tense", "past tense\tqaa_synth\tti")],
        ids=["no-forms", "delimiter-in-feature"],
    )
    def test_bad_query_line_is_data_error(self, workspace, tmp_path, feature, line):
        _, _, config, _ = workspace
        queries = tmp_path / "queries.tsv"
        queries.write_text(line + "\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(config, queries=str(queries))), encoding="utf-8")
        argv = ["head-pivot", "--feature", feature, "--config", str(cfg)]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 3

    def test_no_out_anywhere(self, workspace):
        _, cfg_path, _, _ = workspace
        assert main(["ingest", "--config", str(cfg_path)]) == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert "pivotmine" in capsys.readouterr().out


class TestOutDirFallback:
    def test_config_out_dir_used(self, workspace, tmp_path):
        _, _, config, _ = workspace
        target = tmp_path / "from_config"
        with_out = dict(config, out_dir=str(target))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(with_out), encoding="utf-8")
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert (target / "coverage.tsv").is_file()

    def test_flag_beats_config(self, workspace, tmp_path):
        _, _, config, _ = workspace
        with_out = dict(config, out_dir=str(tmp_path / "ignored"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(with_out), encoding="utf-8")
        chosen = tmp_path / "chosen"
        assert main(["ingest", "--config", str(cfg), "--out", str(chosen)]) == 0
        assert (chosen / "coverage.tsv").is_file()
        assert not (tmp_path / "ignored").exists()


class TestPivotSetHead:
    """--head picks the head member of --pivots; without it, rank 1 is the head."""

    def load(self, workspace, pivots, head):
        _, cfg_path, _, _ = workspace
        args = argparse.Namespace(
            pivots=str(pivots), head=head and str(head), modules=("corpus", "pivots")
        )
        rec = RunRecorder("mine-ngrams")
        return _load_pivot_set(Run(args, load_config(cfg_path), rec, Path()))

    def test_head_member_need_not_be_rank_one(self, workspace, expanded, tmp_path):
        corpus, ps = self.load(workspace, expanded / "pivots.tsv", None)
        members = read_pivots_tsv(corpus, expanded / "pivots.tsv")
        assert len(members) >= 2
        assert ps.members == members
        assert ps.head is ps.members[0]

        second = members[1]
        head = tmp_path / "head.json"
        head.write_text(json.dumps({
            "iso3": second.iso3, "translation_id": second.translation_id,
            "surface": second.surface, "score": 0.5,
        }), encoding="utf-8")
        _, ps = self.load(workspace, expanded / "pivots.tsv", head)
        assert ps.members == members
        assert ps.head is ps.members[1]

    def test_head_outside_the_set_rejected(self, workspace, expanded, tmp_path):
        doc = json.loads((expanded / "head.json").read_text(encoding="utf-8"))
        head = tmp_path / "head.json"
        head.write_text(json.dumps(dict(doc, surface="nope")), encoding="utf-8")
        with pytest.raises(DataError):
            self.load(workspace, expanded / "pivots.tsv", head)


class TestPipeline:
    def test_end_to_end_artifacts(self, workspace, tmp_path):
        _, cfg_path, _, truth = workspace
        out = tmp_path / "run"
        code = main(["pipeline", "--config", str(cfg_path),
                     "--feature", "past", "--out", str(out)])
        assert code == 0
        expected = [
            "coverage.tsv", "selection.txt", "corpus_stats.json",
            "head.json", "pivots.tsv", "ranking.tsv",
            "mining_summary.json", "markers_distance.tsv", "markers.nwk",
            "marker_family_metrics.json", "splitters.tsv", "clusters.tsv",
            "mrr.json", "manifest.json",
        ]
        for name in expected:
            assert (out / name).is_file(), name
        assert list((out / "ngrams").glob("*.tsv"))
        assert list((out / "clusters").glob("*.txt"))

        head = json.loads((out / "head.json").read_text())
        assert head["iso3"] in {"paa", "pba"}
        planted = truth["languages"][head["iso3"]]["markers"]["past"]
        assert head["surface"] in planted

        mrr_doc = json.loads((out / "mrr.json").read_text())
        assert mrr_doc["rows"]["saa_synth"]["past"] >= 0.5

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "pipeline"
        assert manifest["config"]["k"] == 3
        assert "head.json" in manifest["outputs"]
        assert "head-pivot" in manifest["timings"]


@pytest.fixture(scope="module")
def tiny8(tmp_path_factory):
    """The tiny8 preset and a pipeline config for it, as a dict."""
    data = tmp_path_factory.mktemp("tiny8")
    write_synth(preset_tiny8(), data)
    return {
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
    }


def run_pipeline(config: dict, feature: str, out: Path) -> None:
    cfg = out.parent / f"{out.name}.{feature}.config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    argv = ["pipeline", "--config", str(cfg), "--feature", feature, "--out", str(out)]
    assert main(argv) == 0


class TestReruns:
    def test_unknown_target_removes_nothing(self, workspace, expanded, tmp_path):
        _, cfg_path, _, _ = workspace
        out = tmp_path / "o"
        argv = ["mine-ngrams", "--config", str(cfg_path), "--feature", "past",
                "--pivots", str(expanded / "pivots.tsv"), "--head", str(expanded / "head.json"),
                "--out", str(out)]
        assert main([*argv, "--targets", "saa_synth,naa_synth"]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert out / "ngrams" / "naa_synth.tsv" in before
        # but the manifest: a run that did not finish leaves none
        del before[out / "manifest.json"]
        assert main([*argv, "--targets", "saa_synth,zzz_nope"]) == 3
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_rerun_with_larger_k_equals_fresh_run(self, tiny8, tmp_path):
        # at k=2 the k=4 run's new pivot members are mining targets
        run_pipeline(dict(tiny8, k=2), "past", tmp_path / "rerun")
        first = {p.name for p in (tmp_path / "rerun" / "ngrams").iterdir()}
        run_pipeline(dict(tiny8, k=4), "past", tmp_path / "rerun")
        run_pipeline(dict(tiny8, k=4), "past", tmp_path / "fresh")
        rerun, fresh = (
            sorted(p.name for p in (tmp_path / name / "ngrams").iterdir())
            for name in ("rerun", "fresh")
        )
        assert first - set(fresh)
        assert rerun == fresh
        assert (tmp_path / "rerun" / "mrr.json").read_bytes() == (
            tmp_path / "fresh" / "mrr.json"
        ).read_bytes()

    def test_cache_keeps_each_features_tables(self, tiny8, tmp_path):
        # head-pivot aligns the query after the feature's query merge, so
        # the query's pairs have one key per feature
        cache = tmp_path / "cache"
        config = dict(tiny8, cache_dir=str(cache))

        def state():
            return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in cache.iterdir()}

        run_pipeline(config, "past", tmp_path / "past")
        after_past = state()
        run_pipeline(config, "present", tmp_path / "present")
        after_present = state()
        assert set(after_past) < set(after_present)
        run_pipeline(config, "past", tmp_path / "past")
        assert state() == after_present


class TestStagewiseFlow:
    def test_handoffs_between_subcommands(self, workspace, tmp_path):
        _, cfg_path, _, truth = workspace
        cfg = str(cfg_path)
        past = tmp_path / "past"

        assert main(["head-pivot", "--config", cfg, "--feature", "past",
                     "--out", str(past)]) == 0
        head_json = past / "head.json"

        assert main(["expand-pivots", "--config", cfg, "--feature", "past",
                     "--head", str(head_json), "--out", str(past)]) == 0
        pivots = past / "pivots.tsv"
        assert pivots.is_file() and (past / "ranking.tsv").is_file()

        assert main(["mine-ngrams", "--config", cfg, "--feature", "past",
                     "--pivots", str(pivots), "--head", str(head_json),
                     "--targets", "saa_synth", "--out", str(past)]) == 0
        assert (past / "ngrams" / "saa_synth.tsv").is_file()

        assert main(["cluster-markers", "--config", cfg, "--feature", "past",
                     "--pivots", str(pivots), "--head", str(head_json),
                     "--out", str(past / "markers")]) == 0
        assert (past / "markers" / "markers.nwk").is_file()

        assert main(["map", "--config", cfg, "--feature", "past",
                     "--pivots", str(pivots), "--head", str(head_json),
                     "--out", str(past / "map")]) == 0
        cluster_files = sorted((past / "map" / "clusters").glob("*.txt"))
        assert cluster_files

        assert main(["project", "--config", cfg,
                     "--verses", str(cluster_files[0]),
                     "--translation", "naa_synth",
                     "--out", str(past / "proj")]) == 0
        projected = (past / "proj" / "projection.tsv").read_text().splitlines()
        assert len(projected) == len(
            cluster_files[0].read_text().splitlines()
        )

        assert main(["eval-mrr", "--config", cfg, "--features", "past",
                     "--from", str(tmp_path), "--out", str(past / "eval")]) == 0
        mrr_doc = json.loads((past / "eval" / "mrr.json").read_text())
        assert "past" in mrr_doc["aggregates"]

        assert main(["cluster-languages", "--config", cfg, "--features", "past",
                     "--from", str(tmp_path), "--out", str(past / "langs")]) == 0
        langs = past / "langs"
        assert (langs / "languages.nwk").is_file()
        assert (langs / "family_metrics.json").is_file()
        report = json.loads((langs / "language_report.json").read_text())
        assert set(report["languages"]) >= {"qaa", "paa", "pba"}

        assert main(["eval-family", "--config", cfg,
                     "--distances", str(langs / "languages_distance.tsv"),
                     "--out", str(past / "fam")]) == 0
        metrics = json.loads((past / "fam" / "family_metrics.json").read_text())
        assert metrics["n_pairs"] == len(report["languages"]) * (
            len(report["languages"]) - 1
        ) // 2


class TestPartialFamilies:
    """A stage whose distance matrix has fewer than two labels with a
    family writes its other outputs and its manifest, and no family
    metrics."""

    def run(self, workspace, tmp_path, families: str, argv: list[str]) -> Path:
        _, _, config, _ = workspace
        (tmp_path / "families.tsv").write_text(families, encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(config, families=str(tmp_path / "families.tsv"))),
                       encoding="utf-8")
        out = tmp_path / "o"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "manifest.json").is_file()
        return out

    def test_cluster_languages_with_one_annotated_language(
        self, workspace, expanded, tmp_path, caplog
    ):
        shutil.copytree(expanded, tmp_path / "from" / "past")
        argv = ["cluster-languages", "--features", "past", "--from", str(tmp_path / "from")]
        out = self.run(workspace, tmp_path, "qaa\tfa\n", argv)
        assert (out / "languages.nwk").is_file()
        assert not (out / "family_metrics.json").exists()
        assert "family metrics skipped: 1 of" in caplog.text

    def test_cluster_markers_with_an_annotated_marker_excluded(
        self, workspace, expanded, tmp_path, caplog
    ):
        # the naa marker never fires, so only the head's label keeps a family
        pivots = tmp_path / "pivots.tsv"
        extra = "9\tnaa\tnaa_synth\tnowhere\t1\n"
        pivots.write_text((expanded / "pivots.tsv").read_text() + extra, encoding="utf-8")
        head = json.loads((expanded / "head.json").read_text())
        argv = ["cluster-markers", "--feature", "past", "--pivots", str(pivots),
                "--head", str(expanded / "head.json")]
        out = self.run(workspace, tmp_path, f"naa\tfe\n{head['iso3']}\tfx\n", argv)
        assert (out / "markers.nwk").is_file()
        assert "naa_nowhere" not in (out / "markers_distance.tsv").read_text()
        assert not (out / "marker_family_metrics.json").exists()
        assert "family metrics skipped: 1 of" in caplog.text


class TestPivotScans:
    """Each pivot translation is scanned once per process, for all of its
    surfaces, when its pivot set is built, and mining, marker clustering
    and maps share that scan."""

    @pytest.fixture
    def scans(self, monkeypatch):
        # one (translation, *surfaces) entry per pass
        calls = []
        real = pivots_module._scan_translation

        def spy(corpus, translation_id, surfaces):
            calls.append((translation_id, *surfaces))
            return real(corpus, translation_id, surfaces)

        monkeypatch.setattr(pivots_module, "_scan_translation", spy)
        return calls

    def test_pipeline_scans_each_member_once(self, workspace, tmp_path, scans):
        _, cfg_path, _, _ = workspace
        out = tmp_path / "run"
        argv = ["pipeline", "--config", str(cfg_path), "--feature", "past", "--out", str(out)]
        assert main(argv) == 0
        for name in ("mining_summary.json", "markers_distance.tsv", "splitters.tsv"):
            assert (out / name).is_file()
        members = pivot_keys(out / "pivots.tsv")
        assert sorted(scans) == sorted(members)

    @pytest.mark.parametrize("command", ["mine-ngrams", "cluster-markers", "map"])
    def test_subcommand_scans_each_member_once(
        self, workspace, expanded, tmp_path, scans, command
    ):
        _, cfg_path, _, _ = workspace
        argv = [command, "--feature", "past", "--pivots", str(expanded / "pivots.tsv"),
                "--head", str(expanded / "head.json")]
        assert main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        assert sorted(scans) == sorted(pivot_keys(expanded / "pivots.tsv"))

    def test_cluster_languages_scans_each_marker_once(
        self, workspace, expanded, tmp_path, scans
    ):
        _, cfg_path, _, _ = workspace
        shutil.copytree(expanded, tmp_path / "from" / "past")
        out = tmp_path / "langs"
        argv = ["cluster-languages", "--features", "past", "--from", str(tmp_path / "from")]
        assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 0
        # each language's marker: the head for its own language, else the
        # first positively scored row of the ranking
        head = json.loads((expanded / "head.json").read_text(encoding="utf-8"))
        markers = {head["iso3"]: (head["translation_id"], head["surface"])}
        rows = (expanded / "ranking.tsv").read_text(encoding="utf-8").splitlines()[1:]
        for _, iso3, tid, surface, score in (row.split("\t") for row in rows):
            if float(score) > 0:
                markers.setdefault(iso3, (tid, surface))
        langs = json.loads((out / "language_report.json").read_text())["languages"]
        assert len(langs) >= 3
        assert sorted(scans) == sorted(markers[iso3] for iso3 in langs)

    def test_cluster_languages_scans_each_translation_once(self, tiny8, tmp_path, scans):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(tiny8), encoding="utf-8")
        features = ["past", "present", "future"]
        for feature in features:
            argv = ["--config", str(cfg), "--feature", feature, "--out", str(tmp_path / feature)]
            assert main(["head-pivot", *argv]) == 0
            head = str(tmp_path / feature / "head.json")
            assert main(["expand-pivots", *argv, "--head", head]) == 0
        scans.clear()
        out = tmp_path / "langs"
        argv = ["cluster-languages", "--features", ",".join(features), "--from", str(tmp_path)]
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        langs = json.loads((out / "language_report.json").read_text())["languages"]
        # one pass per marker translation, though each holds three markers
        passes = [tid for tid, *_ in scans]
        assert len(langs) >= 3
        assert len(passes) == len(set(passes)) == len(langs)


class TestEncodingStore:
    """A pipeline tokenizes each translation once, from head-pivot to the
    end of expand-pivots; a standalone subcommand keeps no store."""

    @pytest.fixture
    def passes(self, monkeypatch):
        # one entry per tokenize pass: "encode", or "query check" for the
        # pass of head-pivot over the query translation's every verse
        calls = []
        for module, caller in ((corpus_module, "encode"), (pivots_module, "query check")):
            def spy(texts, real=module.tokenize_blocks, caller=caller):
                calls.append(caller)
                return real(texts)

            monkeypatch.setattr(module, "tokenize_blocks", spy)
        return calls

    def test_pipeline_encodes_each_translation_once(self, tiny8, tmp_path, passes, monkeypatch):
        encoded: dict[str, list] = {}
        real = MultiCorpus.encode

        def spy(self, translation_id):
            enc = real(self, translation_id)
            encoded.setdefault(translation_id, []).append(enc)
            return enc

        monkeypatch.setattr(MultiCorpus, "encode", spy)
        run_pipeline(tiny8, "past", tmp_path / "run")
        assert len(encoded) == 8
        # the query, the head and the members are each asked for more than once
        assert max(map(len, encoded.values())) > 1
        assert all(enc is encs[0] for encs in encoded.values() for enc in encs)
        assert sorted(passes) == ["encode"] * 8 + ["query check"]

    def test_standalone_expand_pivots_keeps_no_store(self, tiny8, tmp_path, passes, monkeypatch):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(tiny8), encoding="utf-8")
        argv = ["--config", str(cfg), "--feature", "past", "--out", str(tmp_path)]
        assert main(["head-pivot", *argv]) == 0
        stores = []
        real = pivots_module._scan_translation

        def spy(corpus, translation_id, surfaces):
            stores.append(corpus.encodings)
            return real(corpus, translation_id, surfaces)

        monkeypatch.setattr(pivots_module, "_scan_translation", spy)
        passes.clear()
        assert main(["expand-pivots", *argv, "--head", str(tmp_path / "head.json")]) == 0
        members = {tid for tid, _ in pivot_keys(tmp_path / "pivots.tsv")}
        assert stores == [None] * len(members)
        # every translation is encoded to align it, and the members again
        # to scan them
        assert passes == ["encode"] * (8 + len(members))


class TestFeatureFlag:
    """--feature is optional where the pivot set alone fixes the feature."""

    @pytest.mark.parametrize("command, extra", [
        ("mine-ngrams", ["--targets", "saa_synth"]),
        ("cluster-markers", []),
        ("map", []),
    ])
    def test_same_bytes_without_feature(self, workspace, expanded, tmp_path, command, extra):
        _, cfg_path, _, _ = workspace
        argv = [command, "--config", str(cfg_path), "--pivots", str(expanded / "pivots.tsv"),
                "--head", str(expanded / "head.json"), *extra]
        outputs = []
        for flag in (["--feature", "past"], []):
            out = tmp_path / f"out{len(outputs)}"
            assert main([*argv, *flag, "--out", str(out)]) == 0
            outputs.append({
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"
            })
        assert outputs[0] and outputs[0] == outputs[1]


class TestManifestInputs:
    """A subcommand's manifest lists every file it read: the config files
    that it opens (the corpus directory and families file of a corpus
    load, the queries and allowlist of head-pivot, the gold file of
    eval-mrr, the families file of eval-family) and, beyond them, exactly
    the files its arguments lead it to."""

    CONFIG_FILES = ("corpus_dir", "queries", "allowlist", "gold", "families")

    def extra_inputs(self, workspace, argv, out) -> list[str]:
        root, cfg_path, _, _ = workspace
        assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 0
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        return sorted(k for k in inputs if not k.startswith(str(root / "data")))

    def config_inputs(self, config: dict, argv, out) -> list[str]:
        """The config fields whose files the manifest of argv lists. A run
        that loads the corpus lists each translation file of corpus_dir,
        which here are all of its files."""
        out.parent.mkdir(parents=True, exist_ok=True)
        cfg_path = out.parent / f"{out.name}.config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 0
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        corpus_dir = Path(config["corpus_dir"])
        corpus_files = sorted(k for k in inputs if Path(k).parent == corpus_dir)
        if corpus_files:
            assert corpus_files == sorted(str(p) for p in corpus_dir.iterdir())
        return [
            name for name in self.CONFIG_FILES
            if (corpus_files if name == "corpus_dir" else config.get(name) in inputs)
        ]

    @pytest.mark.parametrize("command, extra", [
        ("ingest", []),
        ("expand-pivots", ["--feature", "past", "--head", "{expanded}/head.json"]),
        ("map", ["--pivots", "{expanded}/pivots.tsv"]),
    ])
    def test_corpus_loader_lists_corpus_and_families(
        self, workspace, expanded, tmp_path, command, extra
    ):
        _, _, config, _ = workspace
        argv = [command, *(a.replace("{expanded}", str(expanded)) for a in extra)]
        assert self.config_inputs(config, argv, tmp_path / "o") == ["corpus_dir", "families"]

    def test_head_pivot_also_lists_queries_and_allowlist(self, workspace, tmp_path):
        _, _, config, _ = workspace
        argv = ["head-pivot", "--feature", "past"]
        assert self.config_inputs(config, argv, tmp_path / "o") == [
            "corpus_dir", "queries", "allowlist", "families"
        ]

    def test_eval_mrr_lists_only_gold(self, workspace, expanded, tmp_path):
        _, _, config, _ = workspace
        argv = ["mine-ngrams", "--pivots", str(expanded / "pivots.tsv"), "--targets", "saa_synth"]
        self.config_inputs(config, argv, tmp_path / "from" / "past")
        argv = ["eval-mrr", "--features", "past", "--from", str(tmp_path / "from")]
        assert self.config_inputs(config, argv, tmp_path / "o") == ["gold"]

    def test_eval_family_lists_only_families(self, workspace, tmp_path):
        _, _, config, _ = workspace
        distances = tmp_path / "distances.tsv"
        rows = ["label\tqaa\tpaa\tsaa", "qaa\t0\t0.2\t0.9", "paa\t0.2\t0\t0.9",
                "saa\t0.9\t0.9\t0"]
        distances.write_text("\n".join(rows) + "\n", encoding="utf-8")
        argv = ["eval-family", "--distances", str(distances)]
        assert self.config_inputs(config, argv, tmp_path / "o") == ["families"]

    @pytest.mark.parametrize("with_gold", [True, False])
    def test_pipeline_lists_every_config_file_it_is_given(self, workspace, tmp_path, with_gold):
        _, _, config, _ = workspace
        if not with_gold:
            config = {k: v for k, v in config.items() if k != "gold"}
        argv = ["pipeline", "--feature", "past"]
        listed = self.config_inputs(config, argv, tmp_path / "o")
        assert listed == [n for n in self.CONFIG_FILES if with_gold or n != "gold"]

    def test_mine_ngrams_lists_head(self, workspace, expanded, tmp_path):
        pivots, head = expanded / "pivots.tsv", expanded / "head.json"
        argv = ["mine-ngrams", "--feature", "past", "--pivots", str(pivots),
                "--head", str(head), "--targets", "saa_synth"]
        assert self.extra_inputs(workspace, argv, tmp_path / "o") == [str(head), str(pivots)]

    def test_eval_mrr_lists_the_ngram_tsvs(self, workspace, expanded, tmp_path):
        past = tmp_path / "from" / "past"
        argv = ["mine-ngrams", "--feature", "past", "--pivots", str(expanded / "pivots.tsv"),
                "--targets", "saa_synth,naa_synth"]
        self.extra_inputs(workspace, argv, past)
        argv = ["eval-mrr", "--features", "past", "--from", str(tmp_path / "from")]
        assert self.extra_inputs(workspace, argv, tmp_path / "o") == [
            str(past / "ngrams" / "naa_synth.tsv"), str(past / "ngrams" / "saa_synth.tsv")
        ]

    def test_cluster_languages_lists_head_and_ranking(self, workspace, expanded, tmp_path):
        past = tmp_path / "from" / "past"
        shutil.copytree(expanded, past)
        argv = ["cluster-languages", "--features", "past", "--from", str(tmp_path / "from")]
        assert self.extra_inputs(workspace, argv, tmp_path / "o") == [
            str(past / "head.json"), str(past / "ranking.tsv")
        ]

    def test_project_lists_the_verses_file(self, workspace, tmp_path):
        verses = tmp_path / "verses.txt"
        verses.write_text("00000001\n00000002\n", encoding="utf-8")
        argv = ["project", "--verses", str(verses), "--translation", "saa_synth"]
        assert self.extra_inputs(workspace, argv, tmp_path / "o") == [str(verses)]

    def test_eval_family_lists_the_distances(self, workspace, tmp_path):
        distances = tmp_path / "distances.tsv"
        rows = ["label\tqaa\tsaa", "qaa\t0\t0.9", "saa\t0.9\t0"]
        distances.write_text("\n".join(rows) + "\n", encoding="utf-8")
        argv = ["eval-family", "--distances", str(distances)]
        assert self.extra_inputs(workspace, argv, tmp_path / "o") == [str(distances)]

    def test_ingest_corpus_override_lists_the_loaded_corpus(self, workspace, tmp_path):
        """The corpus files listed are those load_corpus read: not a file
        that is not *.txt, nor one in a subdirectory, nor a *.txt whose
        name is no translation's, but a translation file with no verse."""
        _, cfg_path, config, _ = workspace
        other = tmp_path / "other" / "corpus"
        write_synth(preset_tiny8(), other.parent)
        translations = sorted(str(p) for p in other.iterdir())
        (other / "README").write_text("not a translation\n", encoding="utf-8")
        (other / "notes.txt").write_text("00000001\tnot a translation\n", encoding="utf-8")
        (other / "old").mkdir()
        shutil.copy(other / "naa_synth.txt", other / "old" / "naa_synth.txt")
        (other / "zzz_empty.txt").write_text("no verse here\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["ingest", "--config", str(cfg_path), "--corpus", str(other),
                     "--out", str(out)]) == 0
        stats = json.loads((out / "corpus_stats.json").read_text())
        assert stats["n_translations"] == 8
        assert stats["malformed_lines"] == 1  # zzz_empty.txt was read
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert sorted(k for k in inputs if k.startswith(str(other))) == sorted(
            [*translations, str(other / "zzz_empty.txt")]
        )
        assert not [k for k in inputs if k.startswith(config["corpus_dir"])]


class TestEveryReadIsRecorded:
    """Every file a subcommand reads is in its manifest's inputs, and each
    input is read from disk once, because the reader that parses a file
    reads it through the run's recorder. Not inputs: the config file,
    alignment-cache tables, and files the run itself wrote (pipeline's
    eval-mrr reads the n-gram TSVs of its mine-ngrams), which are its
    outputs only."""

    @pytest.fixture
    def opened(self, monkeypatch) -> list[Path]:
        """The paths read through Path.read_text or Path.read_bytes."""
        paths = []
        for name in ("read_text", "read_bytes"):
            def spy(path, *args, real=getattr(Path, name), **kwargs):
                paths.append(path)
                return real(path, *args, **kwargs)

            monkeypatch.setattr(Path, name, spy)
        return paths

    @pytest.fixture
    def hashed(self, monkeypatch) -> list[Path]:
        """The paths hashed through manifest.file_sha256, which would read
        an input a second time."""
        paths = []

        def spy(path, real=manifest_module.file_sha256):
            paths.append(path)
            return real(path)

        monkeypatch.setattr(manifest_module, "file_sha256", spy)
        return paths

    def test_every_subcommand_lists_the_files_it_read(self, tiny8, tmp_path, opened, hashed):
        cache = tmp_path / "cache"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(tiny8, cache_dir=str(cache))), encoding="utf-8")
        no_gold = tmp_path / "no_gold.json"
        config = {k: v for k, v in tiny8.items() if k != "gold"}
        no_gold.write_text(json.dumps(dict(config, cache_dir=str(cache))), encoding="utf-8")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(asdict(preset_tiny8(seed=11))), encoding="utf-8")
        verses = tmp_path / "verses.txt"
        verses.write_text("00000001\n00000002\n", encoding="utf-8")
        o = tmp_path / "o"
        c = ["--config", str(cfg)]
        past = o / "feat" / "past"
        pivots = ["--pivots", str(past / "pivots.tsv"), "--head", str(past / "head.json")]
        runs = [
            ["synth", "--spec", str(spec), "--out", str(o / "synth")],
            ["ingest", *c, "--out", str(o / "ingest")],
            ["ingest", *c, "--corpus", str(o / "synth" / "corpus"), "--out", str(o / "ingest2")],
        ]
        for feature in ("past", "present"):
            fdir = str(o / "feat" / feature)
            runs += [
                ["head-pivot", *c, "--feature", feature, "--out", fdir],
                ["expand-pivots", *c, "--feature", feature,
                 "--head", f"{fdir}/head.json", "--out", fdir],
            ]
        runs += [
            ["mine-ngrams", *c, *pivots, "--out", str(o / "mine" / "past")],
            ["cluster-markers", *c, *pivots, "--out", str(o / "markers")],
            ["map", *c, *pivots, "--out", str(o / "map")],
            ["project", *c, "--verses", str(verses), "--translation", "naa_synth",
             "--out", str(o / "project")],
            ["eval-mrr", *c, "--features", "past", "--from", str(o / "mine"),
             "--out", str(o / "mrr")],
            ["cluster-languages", *c, "--features", "past,present",
             "--from", str(o / "feat"), "--out", str(o / "languages")],
            ["eval-family", *c, "--distances", str(o / "languages" / "languages_distance.tsv"),
             "--out", str(o / "family")],
            ["pipeline", *c, "--feature", "past", "--out", str(o / "pipeline")],
            ["pipeline", "--config", str(no_gold), "--feature", "past",
             "--out", str(o / "pipeline_no_gold")],
        ]
        unlisted = {}
        for argv in runs:
            opened.clear()
            hashed.clear()
            assert main(argv) == 0, argv
            reads = [str(p) for p in opened]
            read = set(reads)
            out = Path(argv[argv.index("--out") + 1])
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            inputs = set(manifest["inputs"])
            # each input is read from disk once, by the reader that parses it
            assert {k: reads.count(k) for k in inputs} == dict.fromkeys(inputs, 1), argv
            assert not inputs & {str(p) for p in hashed}, argv
            if argv[0] in ("ingest", "pipeline"):
                corpus = Path(argv[argv.index("--corpus") + 1] if "--corpus" in argv
                              else tiny8["corpus_dir"])
                files = {str(p) for p in corpus.glob("*.txt")}
                assert len(files) == 8 and files <= inputs, argv
            written = {str(out / k) for k in manifest["outputs"]}
            assert not written & set(manifest["inputs"]), argv
            exempt = {str(cfg), str(no_gold)} | written
            missing = sorted(
                p for p in read - exempt - inputs
                if not p.startswith(str(cache))
            )
            if missing:
                unlisted[f"{argv[0]} {out.name}"] = missing
            assert read - exempt, argv  # each run read an input
        assert unlisted == {}


class TestPeakRss:
    """The manifest records the process's peak RSS at the end of each
    stage, and each stage's minor page faults and system CPU time."""

    def test_recorder_keeps_the_peak_after_each_stage(self):
        rec = RunRecorder("test")
        with rec.time_stage("small"):
            pass
        with rec.time_stage("large"):
            block = bytearray(16 << 20)
            block[::4096] = b"x" * len(block[::4096])  # touch every page
            del block
        assert list(rec.peak_rss_kib) == list(rec.timings) == ["small", "large"]
        assert 0 < rec.peak_rss_kib["small"] <= rec.peak_rss_kib["large"]
        assert rec.peak_rss_kib["large"] >= 16 << 10

    def test_recorder_counts_the_faults_of_each_stage(self):
        rec = RunRecorder("test")
        with rec.time_stage("idle"):
            pass
        with rec.time_stage("faulting"):
            # fresh anonymous pages, each faulted in when first touched
            with mmap.mmap(-1, 16 << 20) as block:
                for i in range(0, len(block), mmap.PAGESIZE):
                    block[i] = 1
        assert list(rec.minor_faults) == list(rec.sys_s) == ["idle", "faulting"]
        assert rec.minor_faults["idle"] >= 0 and rec.minor_faults["faulting"] > 0
        assert all(v >= 0 for v in rec.sys_s.values())

    def test_pipeline_manifest_has_a_peak_per_stage(self, workspace, tmp_path):
        _, cfg_path, _, _ = workspace
        out = tmp_path / "run"
        argv = ["pipeline", "--config", str(cfg_path), "--feature", "past", "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads((out / "manifest.json").read_text())
        peaks = doc["peak_rss_kib"]
        assert set(peaks) == set(doc["timings"]) and "mine-ngrams" in peaks
        assert all(isinstance(v, int) for v in peaks.values())
        # the load is the first stage, and a peak never falls
        assert 0 < peaks["load"] == min(peaks.values())
        faults, sys_s = doc["minor_faults"], doc["sys_s"]
        assert list(faults) == list(sys_s) == list(doc["timings"])
        assert all(isinstance(v, int) and v >= 0 for v in faults.values())
        assert all(isinstance(v, float) and v >= 0 for v in sys_s.values())


class TestClusterLanguagesFloor:
    def test_error_names_the_shared_verse_floor(self, tiny8, tmp_path, capsys):
        # the default min_shared_verses, 7000, is above tiny8's 400 verses
        config = {k: v for k, v in tiny8.items() if k != "min_shared_verses"}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        past = tmp_path / "from" / "past"
        argv = ["--config", str(cfg), "--feature", "past", "--out", str(past)]
        assert main(["head-pivot", *argv]) == 0
        assert main(["expand-pivots", *argv, "--head", str(past / "head.json")]) == 0
        capsys.readouterr()
        argv = ["cluster-languages", "--features", "past", "--from", str(tmp_path / "from")]
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "min_shared_verses is 7000" in err
        most = int(re.search(r"shares at most (\d+) selected verses", err).group(1))
        # the largest count of selected verses that a language's marker
        # translation shares with the head translation
        corpus = load_corpus(config["corpus_dir"], None).select(config["coverage_target"])
        doc = json.loads((past / "head.json").read_text(encoding="utf-8"))
        head = Pivot(doc["iso3"], doc["translation_id"], doc["surface"], doc["score"])
        markers = top_markers_by_language(read_pivots_tsv(corpus, past / "ranking.tsv"), head)
        head_verses = verses_of(corpus, head.translation_id)
        shared = [
            sum(v in head_verses and v in verses_of(corpus, p.translation_id)
                for v in corpus.selected_verses)
            for p in markers.values()
        ]
        assert most == max(shared) > 0


class TestLoadTiming:
    """Every subcommand that loads a corpus times the load as `load`."""

    @pytest.mark.parametrize("command, extra", [
        ("ingest", []),
        ("mine-ngrams", ["--feature", "past", "--targets", "saa_synth"]),
        ("map", ["--feature", "past"]),
    ])
    def test_manifest_times_the_load(self, workspace, expanded, tmp_path, command, extra):
        _, cfg_path, _, _ = workspace
        if command != "ingest":
            extra = [*extra, "--pivots", str(expanded / "pivots.tsv")]
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg_path), *extra, "--out", str(out)]) == 0
        timings = json.loads((out / "manifest.json").read_text())["timings"]
        assert set(timings) == {"load", command}


def run_child(code: str, *args) -> subprocess.CompletedProcess:
    """Run python code with args in a child process that imports the
    package this test imported."""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )


# main(argv) in a child; its last line of output is the exit code and
# the modules the child imported, as JSON
MAIN_CHILD = (
    "import json, sys\n"
    "from pivotmine.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(json.dumps([code, sorted(sys.modules)]))\n"
)

# main(argv) in a child whose mine_ngrams raises an unexpected error
FAILING_STAGE_CHILD = (
    "import sys\n"
    "from pivotmine import cli\n"
    "def boom(*args, **kwargs):\n"
    "    raise RuntimeError('boom')\n"
    "cli.mine_ngrams = boom\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def run_main_child(argv) -> tuple[int, list[str]]:
    """The exit code of main(argv) in a child, and the modules it imported."""
    proc = run_child(MAIN_CHILD, *argv)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, modules


class TestFailedRunManifest:
    """A run removes its output directory's manifest before its body runs,
    so a directory holds a manifest only after a run that finished."""

    def test_failed_pipeline_rerun_leaves_no_manifest(self, tiny8, tmp_path):
        out = tmp_path / "run"
        bad_gold = tmp_path / "bad_gold.tsv"
        bad_gold.write_text("only\ttwo cells\n", encoding="utf-8")
        for feature, gold, code in (("past", tiny8["gold"], 0), ("present", str(bad_gold), 3)):
            cfg = tmp_path / f"{feature}.config.json"
            cfg.write_text(json.dumps(dict(tiny8, gold=gold)), encoding="utf-8")
            argv = ["pipeline", "--config", cfg, "--feature", feature, "--out", out]
            assert run_main_child(argv)[0] == code
            assert (out / "manifest.json").is_file() == (code == 0)
        # the stages before eval-mrr did run again
        assert json.loads((out / "head.json").read_text())["feature"] == "present"

    def test_config_error_in_a_body_leaves_no_manifest(self, workspace, tmp_path):
        _, cfg_path, _, _ = workspace
        out = tmp_path / "o"
        argv = ["--config", cfg_path, "--out", out]
        assert run_main_child(["ingest", *argv])[0] == 0
        assert (out / "manifest.json").is_file()
        code, _ = run_main_child(["head-pivot", *argv, "--feature", "nope"])
        assert code == 2
        assert not (out / "manifest.json").exists()
        assert (out / "coverage.tsv").is_file()

    def test_unexpected_error_leaves_no_manifest(self, workspace, expanded, tmp_path):
        _, cfg_path, _, _ = workspace
        out = tmp_path / "o"
        argv = ["mine-ngrams", "--config", cfg_path, "--pivots", expanded / "pivots.tsv",
                "--out", out]
        assert main([*map(str, argv), "--targets", "saa_synth"]) == 0
        assert (out / "manifest.json").is_file()
        proc = run_child(FAILING_STAGE_CHILD, *argv)
        assert proc.returncode == 1
        assert "RuntimeError: boom" in proc.stderr
        assert not (out / "manifest.json").exists()
        assert (out / "ngrams" / "saa_synth.tsv").is_file()


class TestStageImports:
    """A subcommand imports only the stage modules it runs; the names it
    takes from them stay patchable on pivotmine.cli."""

    @pytest.fixture
    def mined(self, workspace, expanded, tmp_path):
        """A directory of mined n-grams for the past feature."""
        _, cfg_path, _, _ = workspace
        out = tmp_path / "from" / "past"
        argv = ["mine-ngrams", "--config", str(cfg_path), "--pivots",
                str(expanded / "pivots.tsv"), "--out", str(out)]
        assert main(argv) == 0
        return out

    def test_eval_mrr_runs_without_numpy(self, workspace, mined, tmp_path):
        _, cfg_path, _, _ = workspace
        out = tmp_path / "mrr"
        code, modules = run_main_child([
            "eval-mrr", "--config", cfg_path, "--features", "past",
            "--from", mined.parent, "--out", out,
        ])
        assert code == 0
        assert "numpy" not in modules
        assert (out / "mrr.json").is_file()
        # the run used no numpy, so the manifest names no version of it
        assert json.loads((out / "manifest.json").read_text())["versions"]["numpy"] is None

    def test_help_runs_without_numpy(self):
        code, modules = run_main_child(["--help"])
        assert code == 0
        assert "numpy" not in modules

    def test_mine_ngrams_imports_neither_synth_nor_cluster(self, workspace, expanded, tmp_path):
        _, cfg_path, _, _ = workspace
        code, modules = run_main_child([
            "mine-ngrams", "--config", cfg_path, "--pivots", expanded / "pivots.tsv",
            "--targets", "saa_synth", "--out", tmp_path / "o",
        ])
        assert code == 0
        assert "pivotmine.ngrams" in modules
        assert "pivotmine.synth" not in modules and "pivotmine.cluster" not in modules

    def test_manifest_records_the_numpy_a_run_used(self, mined):
        versions = json.loads((mined / "manifest.json").read_text())["versions"]
        assert versions["numpy"] == numpy.__version__

    def test_running_a_subcommand_keeps_patched_names(
        self, workspace, expanded, tmp_path, monkeypatch
    ):
        calls = []

        def spy(name):
            real = getattr(cli_module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(cli_module, name, wrapper)

        spy("mine_ngrams")
        spy("write_distance_tsv")
        _, cfg_path, _, _ = workspace
        pivots = ["--config", str(cfg_path), "--pivots", str(expanded / "pivots.tsv")]
        assert main(["mine-ngrams", *pivots, "--targets", "saa_synth",
                     "--out", str(tmp_path / "m")]) == 0
        assert main(["cluster-markers", *pivots, "--out", str(tmp_path / "c")]) == 0
        assert calls == ["mine_ngrams", "write_distance_tsv"]

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError):
            cli_module.no_such_stage_function


# main(argv) in a child, with the malloc policy left as it is
# (no_policy) or as main sets it
POLICY_CHILD = (
    "import sys\n"
    "from pivotmine import cli\n"
    "if sys.argv[1] == 'no_policy':\n"
    "    cli.keep_freed_memory = lambda: None\n"
    "sys.exit(cli.main(sys.argv[2:]))\n"
)


def tree_bytes(root: Path) -> dict[str, bytes]:
    """The bytes of every file under root, by relative path, manifests
    aside."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


class TestMallocPolicy:
    """main keeps freed memory in the process through glibc's mallopt,
    where the C library has it; no output depends on it."""

    def test_main_applies_it_once_before_the_body(self, tmp_path, monkeypatch):
        calls = []
        run_command = cli_module.run_command
        monkeypatch.setattr(cli_module, "keep_freed_memory", lambda: calls.append("policy"))

        def body(args):
            calls.append("body")
            return run_command(args)

        monkeypatch.setattr(cli_module, "run_command", body)
        assert main(["synth", "--preset", "tiny8", "--out", str(tmp_path / "s")]) == 0
        assert calls == ["policy", "body"]

    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        cli_module.keep_freed_memory()
        # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD of glibc's malloc.h
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert mallopt.restype is ctypes.c_int

    def test_a_library_without_mallopt_is_left_as_it_is(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert cli_module.keep_freed_memory() is None

    def test_outputs_do_not_depend_on_it(self, tiny8, tmp_path):
        trees = []
        for policy in ("policy", "no_policy"):
            root = tmp_path / policy
            root.mkdir()
            cfg = root / "config.json"
            cfg.write_text(json.dumps(dict(tiny8, cache_dir=str(root / "cache"))),
                           encoding="utf-8")
            argv = ["pipeline", "--config", cfg, "--feature", "past", "--out", root / "out"]
            proc = run_child(POLICY_CHILD, policy, *argv)
            assert proc.returncode == 0, proc.stderr
            trees.append((tree_bytes(root / "out"), tree_bytes(root / "cache")))
        (out, cache), (out_without, cache_without) = trees
        assert "mrr.json" in out and cache
        assert out == out_without
        assert cache == cache_without


def pivot_keys(path: Path) -> list[tuple[str, str]]:
    """(translation, surface) of each row of a rank TSV."""
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return [tuple(row.split("\t")[2:4]) for row in rows if row]
