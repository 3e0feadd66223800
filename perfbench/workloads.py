"""Workload definitions and input generation for the pivotmine benchmark.

Every input is made from the benchmark seed: the marking24 (or tiny8)
preset with its seed overridden, or a synth spec JSON built from
``SynthSpec`` fields.  Nothing here imports pivotmine; the corpora are
written by the ``pivotmine synth`` subcommand.
"""

from __future__ import annotations

import json
import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

FEATURE = "past"
FEATURES = [["past", 0.3], ["present", 0.3], ["future", 0.25]]


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str  # "pipeline" or "mine"
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "m24-cold", "pipeline",
            "marking24 pipeline with an empty alignment cache, so EM training dominates; "
            "a warm rerun checks that cache hits reproduce it",
        ),
        Workload(
            "wide-mine", "mine",
            "wide synthetic corpus through mine-ngrams, cluster-markers, map and "
            "eval-mrr: loading, tokenization and mining, no alignment",
        ),
    )
}


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the benchmark, SMALL the self-check."""

    m24_preset: str
    m24_coverage: int
    m24_k: int
    wide_particle: int  # particle languages besides the query language
    wide_suffix: int
    wide_none: int
    wide_verses: int
    wide_coverage: int
    wide_pivots: int


FULL = Scale("marking24", 3000, 12, 35, 28, 12, 1500, 1200, 16)
SMALL = Scale("tiny8", 380, 4, 7, 4, 2, 600, 480, 4)

MIN_COUNT = 5
VERSE_MISSING = 0.1


def iso_codes(prefix: str, count: int) -> list[str]:
    """Explicit three-letter codes ``<prefix><a-z><a-z>``, count <= 676."""
    letters = string.ascii_lowercase
    return [prefix + letters[i // 26] + letters[i % 26] for i in range(count)]


def wide_spec(scale: Scale, seed: int) -> dict:
    """SynthSpec JSON for the wide corpus: many languages, a universe
    larger than the selection (verses go missing outside the query)."""
    langs = [{"iso3": "qaa", "style": "particle", "family": "fam_q"}]
    for style, prefix, count in (
        ("particle", "p", scale.wide_particle),
        ("suffix", "s", scale.wide_suffix),
        ("none", "n", scale.wide_none),
    ):
        langs += [
            {"iso3": iso, "style": style, "family": f"fam_{prefix}{i % 4}"}
            for i, iso in enumerate(iso_codes(prefix, count))
        ]
    return {
        "n_verses": scale.wide_verses,
        "features": FEATURES,
        "languages": langs,
        "query_iso3": "qaa",
        "query_forms": 2,
        "marker_drop": 0.03,
        "jitter": 1.0,
        "verse_missing": VERSE_MISSING,
        "seed": seed,
    }


def synth_args(workload: Workload, scale: Scale, seed: int, work: Path) -> list[str]:
    """Arguments of the ``pivotmine synth`` call that writes work/data."""
    if workload.shape == "pipeline":
        return ["synth", "--preset", scale.m24_preset, "--seed", str(seed), "--out", "data"]
    spec = work / "spec.json"
    spec.write_text(json.dumps(wide_spec(scale, seed), indent=1) + "\n", encoding="utf-8")
    return ["synth", "--spec", "spec.json", "--out", "data"]


def write_config(workload: Workload, scale: Scale, work: Path) -> Path:
    pipeline = workload.shape == "pipeline"
    cfg = {
        "corpus_dir": "data/corpus",
        "queries": "data/queries.tsv",
        "allowlist": "data/allowlist.txt",
        "gold": "data/gold.tsv",
        "families": "data/families.tsv",
        "coverage_target": scale.m24_coverage if pipeline else scale.wide_coverage,
        "k": scale.m24_k if pipeline else scale.wide_pivots,
        "min_count": MIN_COUNT,
        "seed": 7,
    }
    if pipeline:
        cfg["cache_dir"] = "cache"
    path = work / "config.json"
    path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
    return path


def read_corpus(corpus_dir: Path) -> dict[str, dict[str, str]]:
    """translation id -> verse id -> text, read straight from the files."""
    out = {}
    for path in sorted(corpus_dir.glob("*.txt")):
        verses = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            vid, _, text = line.partition("\t")
            verses.setdefault(vid, text)
        out[path.stem] = verses
    return out


def selection(corpus: dict[str, dict[str, str]], target: int) -> list[str]:
    """The coverage_target best-covered verses (coverage descending, then
    verse id), returned in verse-id order."""
    counts = Counter(vid for verses in corpus.values() for vid in verses)
    ranked = sorted(counts, key=lambda v: (-counts[v], v))
    return sorted(ranked[: min(target, len(ranked))])


def write_wide_pivots(work: Path, truth: dict, corpus: dict, selected: list[str], k: int) -> None:
    """pivots.tsv and head.json from the planted markers of the first k
    non-query particle languages.

    The score column is the number of selected verses the marker occurs
    in; the head is the member with the highest score.
    """
    members = []
    langs = truth["languages"]
    particle = sorted(
        iso for iso, info in langs.items()
        if info["style"] == "particle" and iso != truth["query"]["iso3"]
    )
    for iso in particle[:k]:
        info = langs[iso]
        surface = info["markers"][FEATURE][0]
        verses = corpus[info["translation_id"]]
        score = sum(1 for vid in selected if surface in verses.get(vid, "").split())
        members.append((score, iso, info["translation_id"], surface))
    members.sort(key=lambda m: (-m[0], m[1]))
    lines = ["rank\tiso3\ttranslation\tsurface\tchi2"]
    lines += [f"{r}\t{iso}\t{tid}\t{s}\t{score}" for r, (score, iso, tid, s) in enumerate(members, 1)]
    (work / "pivots.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    score, iso, tid, surface = members[0]
    head = {"feature": FEATURE, "iso3": iso, "translation_id": tid, "surface": surface, "score": score}
    (work / "head.json").write_text(json.dumps(head, indent=2) + "\n", encoding="utf-8")


def mine_commands(out: str) -> list[list[str]]:
    """The wide-mine round: four subcommands, no alignment."""
    common = ["--config", "config.json", "--feature", FEATURE,
              "--pivots", "pivots.tsv", "--head", "head.json"]
    return [
        ["mine-ngrams", *common, "--out", f"{out}/{FEATURE}"],
        ["cluster-markers", *common, "--out", f"{out}/markers"],
        ["map", *common, "--out", f"{out}/map"],
        ["eval-mrr", "--config", "config.json", "--features", FEATURE,
         "--from", out, "--out", f"{out}/eval"],
    ]


def pipeline_command(out: str) -> list[str]:
    return ["pipeline", "--config", "config.json", "--feature", FEATURE, "--out", out]

