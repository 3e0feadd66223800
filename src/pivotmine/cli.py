"""Command-line interface.

Each subcommand runs one pipeline stage into an output directory and
writes a manifest there; `pipeline` chains the stages for one feature.
All of them go through run_command, which loads the config, times each
stage and writes the manifest around the subcommand's own body. Each
input file is read once, by the reader that parses it, through
run.rec.read, and each output is written by the writer that formats it,
through run.rec.write_output; both record the sha256 of the bytes in hand
in the manifest. A stage returns only its value.

A subcommand imports only the stage modules it runs. Most of them import
numpy, which costs each process about 0.1 s of start-up, and eval-mrr,
for one, needs none. Each subcommand names its stage modules when its
parser is added. Before its body runs, the names this module takes from
them (STAGE_NAMES) are bound as globals here; from outside, the module
__getattr__ binds them on first access. Binding never overwrites a name
already set. The names live on this module, not in function-local
imports, because perfbench/tracing.py times the stages by patching them
here.

main sets glibc malloc's policy (keep_freed_memory) before anything else
runs, so that the temporaries each mining target and alignment pair frees
are reused from the heap instead of faulted in again from the kernel.

process_main is the process entry of `python -m pivotmine` and of the
pivotmine console script. It ends the process with os._exit once main
has returned, so CPython's teardown (a full garbage collection and the
clearing of every module) is skipped after every output is written and
closed. main itself returns its code, for callers in the same process.

Exit codes: 0 success, 1 unexpected error, 2 configuration problems, 3 data
problems.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import logging
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import NoReturn

from . import __version__
from .config import RunConfig, is_scalar, load_config
from .errors import ConfigError, DataError
from .evaluation import mrr, mrr_table, read_gold
from .gramtsv import read_ngrams_tsv, write_ngrams_tsv
from .manifest import MANIFEST_NAME, RunRecorder
from .textio import read_json, remove_stale, write_lines, write_text
# perfbench/tracing.py times artifact writes by wrapping cli._write_json
from .textio import write_json as _write_json

# The names this module takes from each stage module; see the docstring.
STAGE_NAMES = {
    "cluster": (
        "DistanceMatrix", "evaluate_family_prediction", "language_distance",
        "marker_distance_matrix", "marker_label", "read_distance_tsv", "to_newick",
        "upgma", "write_distance_tsv",
    ),
    "corpus": (
        "MultiCorpus", "load_corpus", "read_families", "read_verse_ids", "write_coverage_report",
        "write_verses",
    ),
    "maps": (
        "project_cluster", "select_splitting_pivots", "signature_clusters",
        "write_cluster_summary", "write_cluster_verses", "write_splitters_tsv",
    ),
    "ngrams": ("mine_ngrams",),
    "pivots": (
        "Pivot", "PivotSet", "check_pivot", "expand_pivots", "find_head_pivot",
        "rank_pivot_candidates", "read_allowlist", "read_pivots_tsv", "read_queries",
        "scan_pivots", "top_markers_by_language", "write_pivots_tsv",
    ),
    "synth": ("PRESETS", "SynthSpec", "spec_from_json", "write_synth"),
}
_HOME = {name: module for module, names in STAGE_NAMES.items() for name in names}


def _bind(*modules: str) -> None:
    """Import the stage modules and set their STAGE_NAMES here, all but
    the names already set (say, a wrapper that a tracer put in place)."""
    for module_name in modules:
        module = importlib.import_module(f".{module_name}", __package__)
        for name in STAGE_NAMES[module_name]:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    """A stage module's name, bound on first access from outside."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_HOME[name])
    return globals()[name]


logger = logging.getLogger("pivotmine")


def _query_for(run: Run, feature: str):
    queries = read_queries(run.cfg.path("queries"), run.rec.read)
    for q in queries:
        if q.feature == feature:
            return q
    raise ConfigError(
        f"feature {feature!r} not in {run.cfg.queries} "
        f"(has: {', '.join(q.feature for q in queries)})"
    )


def _head_from_json(run: Run, corpus: MultiCorpus, path: str | Path) -> Pivot:
    """The head pivot in path, checked as head-pivot writes it: a standard
    JSON object (read_json) whose iso3, translation_id and surface are
    strings that check_pivot accepts, and whose score is a number.
    DataError naming path otherwise."""
    try:
        doc = read_json(path, run.rec.read)
    except ValueError as exc:
        raise DataError(f"cannot read head pivot from {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: head pivot is not a JSON object")
    for key in ("iso3", "translation_id", "surface"):
        if not is_scalar(doc.get(key), "str"):
            raise DataError(f"{path}: head pivot {key} is not a string: {doc.get(key)!r}")
    if not is_scalar(doc.get("score"), "float"):
        raise DataError(f"{path}: head pivot score is not a number: {doc.get('score')!r}")
    iso3, tid, surface = doc["iso3"], doc["translation_id"], doc["surface"]
    check_pivot(corpus, str(path), "head pivot", iso3, tid, surface)
    return Pivot(iso3, tid, surface, float(doc["score"]))


# --- stages -----------------------------------------------------------------


def stage_synth(run: Run, spec: SynthSpec) -> None:
    write_synth(spec, run.out, run.rec.write_output)


def stage_ingest(run: Run, corpus: MultiCorpus) -> None:
    out, write = run.out, run.rec.write_output
    write_coverage_report(corpus, out / "coverage.tsv", write)
    write_lines(out / "selection.txt", corpus.selected_verses, write)
    stats = {
        "n_translations": len(corpus.translations),
        "n_languages": len(corpus.languages()),
        "n_verses_universe": len(corpus.verse_universe),
        "n_selected": len(corpus.selected_index),
        "malformed_lines": corpus.malformed_lines,
    }
    _write_json(out / "corpus_stats.json", stats, write)


def stage_head(run: Run, corpus: MultiCorpus, feature: str) -> Pivot:
    query = _query_for(run, feature)
    allowlist = read_allowlist(run.cfg.path("allowlist"), run.rec.read)
    head = find_head_pivot(corpus, query, allowlist, run.cfg)
    doc = {
        "feature": feature,
        "iso3": head.iso3,
        "translation_id": head.translation_id,
        "surface": head.surface,
        "score": head.score,
    }
    _write_json(run.out / "head.json", doc, run.rec.write_output)
    return head


def stage_expand(run: Run, corpus: MultiCorpus, feature: str, head: Pivot) -> PivotSet:
    ranking = rank_pivot_candidates(corpus, head, run.cfg)
    pivot_set = expand_pivots(corpus, feature, head, run.cfg.k, ranking)
    write_pivots_tsv(pivot_set.members, run.out / "pivots.tsv", run.rec.write_output)
    write_pivots_tsv(ranking, run.out / "ranking.tsv", run.rec.write_output)
    return pivot_set


def stage_mine(
    run: Run, corpus: MultiCorpus, pivot_set: PivotSet, targets: list[str] | None = None
) -> None:
    """Mine each target's n-grams into ngrams/, which then holds exactly
    those files: an earlier run's TSVs for other targets are removed, once
    every target is known to be in the corpus."""
    cfg, out, write = run.cfg, run.out, run.rec.write_output
    ngram_dir = out / "ngrams"
    member_tids = {p.translation_id for p in pivot_set.members}
    if targets is None:
        targets = [t for t in sorted(corpus.translations) if t not in member_tids]
    unknown = sorted(set(targets) - set(corpus.translations))
    if unknown:
        raise DataError(f"unknown translation {unknown[0]!r}")
    remove_stale(ngram_dir, "*.tsv", {ngram_dir / f"{tid}.tsv" for tid in targets})
    summary = {}
    for tid in sorted(targets):
        result = mine_ngrams(
            corpus, tid, pivot_set, sigma=cfg.sigma, w=cfg.window,
            n_range=(cfg.n_min, cfg.n_max), top=cfg.top,
        )
        write_ngrams_tsv(result, ngram_dir / f"{tid}.tsv", write)
        summary[tid] = {
            "verses_scored": result.verses_scored,
            "verses_positive": result.verses_positive,
            "overlap_flagged": result.overlap_flagged,
        }
    _write_json(out / "mining_summary.json", summary, write)


def _family_metrics(
    run: Run, dm: DistanceMatrix, families: dict[str, str], path: Path
) -> None:
    """Write the family metrics of dm to path when at least two of its
    labels carry a family; otherwise log why not and write nothing."""
    annotated = sum(label in families for label in dm.labels)
    if annotated < 2:
        logger.warning(
            "family metrics skipped: %d of %d clustered labels carry a family",
            annotated,
            len(dm.labels),
        )
        return
    metrics = evaluate_family_prediction(dm, families, run.cfg.jsd_threshold)
    _write_json(path, metrics, run.rec.write_output)


def stage_cluster_markers(run: Run, corpus: MultiCorpus, pivot_set: PivotSet) -> None:
    out, write = run.out, run.rec.write_output
    dm = marker_distance_matrix(pivot_set)
    write_distance_tsv(dm, out / "markers_distance.tsv", write)
    write_text(out / "markers.nwk", to_newick(upgma(dm)) + "\n", write)
    if corpus.families:
        # marker labels inherit the family of their language
        marker_families = {
            marker_label(p): corpus.families[p.iso3]
            for p in pivot_set.members
            if p.iso3 in corpus.families
        }
        _family_metrics(run, dm, marker_families, out / "marker_family_metrics.json")


def stage_map(run: Run, corpus: MultiCorpus, pivot_set: PivotSet, head: int) -> None:
    cfg, out, write = run.cfg, run.out, run.rec.write_output
    choices = select_splitting_pivots(pivot_set, head, cfg.map_rounds, cfg.map_policy)
    write_splitters_tsv(pivot_set.members, head, choices, out / "splitters.tsv", write)
    columns = [head, *(c.column for c in choices)]
    clusters = signature_clusters(pivot_set, corpus.selected_verses, columns)
    write_cluster_summary(clusters, out / "clusters.tsv", write)
    write_cluster_verses(clusters, out / "clusters", write)


def stage_project(
    run: Run, corpus: MultiCorpus, verse_ids: list[str], translation_id: str
) -> None:
    projected = project_cluster(corpus, verse_ids, translation_id)
    # a verse the translation lacks has no row, as in a corpus file
    present = [(vid, text) for vid, text in projected if text is not None]
    if len(present) < len(projected):
        missing = len(projected) - len(present)
        logger.warning("%d of %d verses missing from %s", missing, len(projected), translation_id)
    write_verses(run.out / "projection.tsv", present, run.rec.write_output)


def stage_eval_mrr(run: Run, ngram_dirs: list[tuple[str, Path]]) -> None:
    """Score each feature's mined n-grams, read from its (feature, dir) pair."""
    gold = read_gold(run.cfg.path("gold"), run.rec.read)
    results = []
    for feature, ngram_dir in ngram_dirs:
        if not ngram_dir.is_dir():
            raise DataError(f"no mined n-grams under {ngram_dir}")
        paths = sorted(ngram_dir.glob("*.tsv"))
        if not paths:
            raise DataError(f"no n-gram TSVs in {ngram_dir}")
        ranked = {p.stem: read_ngrams_tsv(p, run.rec.read) for p in paths}
        results.append(mrr(ranked, gold, feature, run.cfg.match_mode))
    _write_json(run.out / "mrr.json", mrr_table(results), run.rec.write_output)


def stage_cluster_languages(
    run: Run, corpus: MultiCorpus, features: list[str], from_dir: Path
) -> None:
    """Cluster languages by the top markers of each feature's head.json
    and ranking.tsv under from_dir."""
    cfg, out, write = run.cfg, run.out, run.rec.write_output
    markers_by_feature = {}
    head_translations = {}
    for feature in features:
        fdir = from_dir / feature
        head = _head_from_json(run, corpus, fdir / "head.json")
        ranking = read_pivots_tsv(corpus, fdir / "ranking.tsv", run.rec.read)
        markers_by_feature[feature] = top_markers_by_language(ranking, head)
        head_translations[feature] = head.translation_id
    dm, report = language_distance(
        corpus, markers_by_feature, cfg.min_shared_verses, head_translations
    )
    write_distance_tsv(dm, out / "languages_distance.tsv", write)
    write_text(out / "languages.nwk", to_newick(upgma(dm)) + "\n", write)
    _write_json(out / "language_report.json", asdict(report), write)
    if corpus.families:
        _family_metrics(run, dm, corpus.families, out / "family_metrics.json")


def stage_eval_family(run: Run, distances: str) -> None:
    families = read_families(run.cfg.path("families"), run.rec.read)
    dm = read_distance_tsv(distances, run.rec.read)
    metrics = evaluate_family_prediction(dm, families, run.cfg.jsd_threshold)
    _write_json(run.out / "family_metrics.json", metrics, run.rec.write_output)


# --- the command runner -------------------------------------------------------


@dataclass
class Run:
    """One subcommand invocation, as its body sees it."""

    args: argparse.Namespace
    cfg: RunConfig | None  # None for synth, which takes no config file
    rec: RunRecorder
    out: Path

    def __post_init__(self):
        _bind(*self.args.modules)

    def stage(self, name: str, fn, *fn_args):
        """Return fn(self, *fn_args), called under the manifest timer `name`.

        The output directory exists when fn runs. fn writes each file
        through run.rec.write_output, which records it.
        """
        with self.rec.time_stage(name):
            self.out.mkdir(parents=True, exist_ok=True)
            return fn(self, *fn_args)

    def corpus(self) -> MultiCorpus:
        """The corpus of ingest's --corpus, else of corpus_dir, with its
        families and verse selection, loaded under the manifest timer
        `load`; load_corpus reads each file through run.rec.read. A
        coverage_target past the verse universe is clamped to it."""
        # cfg.path raises the ConfigError of a missing corpus_dir
        root = getattr(self.args, "corpus", None) or self.cfg.path("corpus_dir")
        with self.rec.time_stage("load"):
            corpus = load_corpus(root, self.cfg.families, self.rec.read)
            target = self.cfg.coverage_target
            if target > len(corpus.verse_universe):
                logger.warning(
                    "coverage target %d exceeds universe %d; clamping",
                    target,
                    len(corpus.verse_universe),
                )
                target = len(corpus.verse_universe)
            return corpus.select(target)


def _out_dir(args, cfg: RunConfig | None) -> Path:
    if args.out:
        return Path(args.out)
    if cfg is not None and cfg.out_dir:
        return Path(cfg.out_dir)
    raise ConfigError("no output directory: pass --out or set out_dir in the config")


def run_command(args: argparse.Namespace) -> int:
    """Run one subcommand and write its manifest.

    Loads the config, resolves the output directory and removes its
    manifest, so that a directory holds a manifest only after a run that
    finished; an output directory that is, or lies under, a file is a
    ConfigError, raised before any stage runs. Then it runs the
    subcommand's body, with the stage modules it names in `modules` bound
    (see Run), and writes the manifest. The body times its stages through
    Run.stage, and records each file where it reads or writes it.
    """
    rec = RunRecorder(args.command)
    if "config" in args:
        cfg = load_config(args.config)
        rec.set_config(asdict(cfg))
    else:  # synth, which takes no config file
        cfg = None
    run = Run(args, cfg, rec, _out_dir(args, cfg))
    try:
        (run.out / MANIFEST_NAME).unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {run.out} is not usable: {exc}") from exc
    args.body(run)
    rec.write(run.out)
    return 0


# --- subcommand bodies --------------------------------------------------------


def _comma_list(text: str, what: str) -> list[str]:
    """The comma-separated items of text in order, without empty items
    and repeats; a ConfigError when none is left."""
    items = list(dict.fromkeys(item for item in text.split(",") if item))
    if not items:
        raise ConfigError(f"no {what} given")
    return items


def _load_pivot_set(run: Run) -> tuple[MultiCorpus, PivotSet, int]:
    """The selected corpus, the --pivots set scanned once, and the head's
    column.

    --head names the head member: the first whose translation and surface
    match. Member order does not encode it, because scores against the
    query and against the head live on different scales. Without --head
    the top-ranked member, column 0, is the head.
    """
    corpus = run.corpus()
    path = run.args.pivots
    members = read_pivots_tsv(corpus, path, run.rec.read)
    if not members:
        raise DataError(f"empty pivots TSV: {path}")
    head = 0
    if run.args.head:
        pivot = _head_from_json(run, corpus, run.args.head)
        key = (pivot.translation_id, pivot.surface)
        head = next(
            (i for i, p in enumerate(members) if (p.translation_id, p.surface) == key), None
        )
        if head is None:
            raise DataError(f"head {key!r} not among pivots in {path}")
    return corpus, scan_pivots(corpus, members), head


def cmd_synth(run: Run) -> None:
    args = run.args
    if bool(args.preset) == bool(args.spec):
        raise ConfigError("pass exactly one of --preset or --spec")
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r} (have: {', '.join(sorted(PRESETS))})"
            )
        spec = PRESETS[args.preset]()
    else:
        spec = spec_from_json(args.spec, run.rec.read)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    run.rec.set_config(asdict(spec))
    run.stage("synth", stage_synth, spec)
    # one translation per language; the query language lacks no verse
    logger.info(
        "wrote %d translations, %d verses to %s", len(spec.languages), spec.n_verses, run.out
    )


def cmd_ingest(run: Run) -> None:
    run.stage("ingest", stage_ingest, run.corpus())


def cmd_head_pivot(run: Run) -> None:
    run.stage("head-pivot", stage_head, run.corpus(), run.args.feature)


def cmd_expand_pivots(run: Run) -> None:
    corpus = run.corpus()
    head = _head_from_json(run, corpus, run.args.head)
    run.stage("expand-pivots", stage_expand, corpus, run.args.feature, head)


def cmd_mine_ngrams(run: Run) -> None:
    targets = run.args.targets
    if targets is not None:
        targets = _comma_list(targets, "targets")
    corpus, pivot_set, _ = _load_pivot_set(run)
    run.stage("mine-ngrams", stage_mine, corpus, pivot_set, targets)


def cmd_cluster_markers(run: Run) -> None:
    corpus, pivot_set, _ = _load_pivot_set(run)
    run.stage("cluster-markers", stage_cluster_markers, corpus, pivot_set)


def cmd_cluster_languages(run: Run) -> None:
    corpus = run.corpus()
    features = _comma_list(run.args.features, "features")
    run.stage(
        "cluster-languages", stage_cluster_languages, corpus, features, Path(run.args.from_dir)
    )


def cmd_map(run: Run) -> None:
    corpus, pivot_set, head = _load_pivot_set(run)
    run.stage("map", stage_map, corpus, pivot_set, head)


def cmd_project(run: Run) -> None:
    corpus = run.corpus()
    verse_ids = read_verse_ids(run.args.verses, run.rec.read)
    run.stage("project", stage_project, corpus, verse_ids, run.args.translation)


def cmd_eval_mrr(run: Run) -> None:
    from_dir = Path(run.args.from_dir)
    features = _comma_list(run.args.features, "features")
    ngram_dirs = [(f, from_dir / f / "ngrams") for f in features]
    run.stage("eval-mrr", stage_eval_mrr, ngram_dirs)


def cmd_eval_family(run: Run) -> None:
    run.stage("eval-family", stage_eval_family, run.args.distances)


def cmd_pipeline(run: Run) -> None:
    feature = run.args.feature
    corpus = run.corpus()
    run.stage("ingest", stage_ingest, corpus)
    # head-pivot and the alignments of expand-pivots share one encoding of
    # each translation; the member scan and mining read none
    aligning = corpus.keeping_encodings()
    head = run.stage("head-pivot", stage_head, aligning, feature)
    pivot_set = run.stage("expand-pivots", stage_expand, aligning, feature, head)
    del aligning
    run.stage("mine-ngrams", stage_mine, corpus, pivot_set)
    run.stage("cluster-markers", stage_cluster_markers, corpus, pivot_set)
    run.stage("map", stage_map, corpus, pivot_set, pivot_set.members.index(head))
    if run.cfg.gold:
        # its n-gram TSVs are this run's outputs, so not recorded as inputs
        run.stage("eval-mrr", stage_eval_mrr, [(feature, run.out / "ngrams")])
    logger.info("pipeline for %r finished in %s", feature, run.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pivotmine",
        description="Crosslingual surface-marker discovery over verse-parallel corpora",
    )
    parser.add_argument("--version", action="version", version=f"pivotmine {__version__}")
    parser.add_argument(
        "--verbose", action="store_true", help="log at DEBUG instead of INFO"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True)
    common.add_argument("--out", help="output directory (default: config out_dir)")
    pivot_input = argparse.ArgumentParser(add_help=False, parents=[common])
    # still accepted, as callers pass it, and ignored
    pivot_input.add_argument("--feature", help="ignored; --pivots fixes the feature")
    pivot_input.add_argument("--pivots", required=True, help="pivots.tsv from expand-pivots")
    pivot_input.add_argument("--head", help="head.json (marks the head member)")

    def add(name, body, help_text, modules, parents=(common,)):
        """A subcommand whose body runs the stage modules named in modules."""
        p = sub.add_parser(name, help=help_text, parents=list(parents))
        p.set_defaults(body=body, modules=modules)
        return p

    pivot_modules = ("corpus", "pivots")

    p = add("synth", cmd_synth, "generate a synthetic corpus with planted markers", ("synth",), ())
    p.add_argument("--preset", help="name of a built-in spec; an unknown name lists them")
    p.add_argument("--spec", help="path to a synth spec JSON")
    p.add_argument("--seed", type=int, default=None, help="override the seed of the preset or spec")
    p.add_argument("--out", required=True, help="output directory")

    p = add("ingest", cmd_ingest, "load a corpus and report verse coverage", ("corpus",))
    p.add_argument("--corpus", help="override the configured corpus directory")

    p = add("head-pivot", cmd_head_pivot, "find the head pivot for a feature", pivot_modules)
    p.add_argument("--feature", required=True)

    p = add(
        "expand-pivots", cmd_expand_pivots, "grow the k-pivot set from a head", pivot_modules
    )
    p.add_argument("--feature", required=True)
    p.add_argument("--head", required=True, help="head.json from head-pivot")

    p = add(
        "mine-ngrams", cmd_mine_ngrams, "mine marker n-grams per translation",
        (*pivot_modules, "ngrams"), [pivot_input],
    )
    p.add_argument("--targets", help="comma-separated translation ids")

    add(
        "cluster-markers", cmd_cluster_markers, "cluster pivot markers by JSD",
        (*pivot_modules, "cluster"), [pivot_input],
    )

    p = add(
        "cluster-languages",
        cmd_cluster_languages,
        "cluster languages from per-feature rankings",
        (*pivot_modules, "cluster"),
    )
    p.add_argument("--features", required=True, help="comma-separated feature names")
    p.add_argument(
        "--from", dest="from_dir", required=True,
        help="directory holding <feature>/head.json and <feature>/ranking.tsv",
    )

    add(
        "map", cmd_map, "partition verses by splitting-pivot signatures",
        (*pivot_modules, "maps"), [pivot_input],
    )

    p = add(
        "project", cmd_project, "project a verse cluster into a translation", ("corpus", "maps")
    )
    p.add_argument("--verses", required=True, help="file with one verse id per line")
    p.add_argument("--translation", required=True)

    p = add("eval-mrr", cmd_eval_mrr, "score mined n-grams against gold markers", ())
    p.add_argument("--features", required=True, help="comma-separated feature names")
    p.add_argument(
        "--from", dest="from_dir", required=True,
        help="directory holding <feature>/ngrams/*.tsv",
    )

    p = add(
        "eval-family", cmd_eval_family, "same-family prediction from distances",
        ("corpus", "cluster"),
    )
    p.add_argument("--distances", required=True, help="distance matrix TSV")

    p = add(
        "pipeline", cmd_pipeline, "run every stage for one feature",
        (*pivot_modules, "ngrams", "cluster", "maps"),
    )
    p.add_argument("--feature", required=True)

    return parser


# glibc's mallopt parameters (malloc.h), and the values main sets: the
# ceiling its dynamic mmap threshold climbs to on 64-bit
# (DEFAULT_MMAP_THRESHOLD_MAX), and twice that for the trim threshold
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def keep_freed_memory() -> None:
    """Keep freed memory in the process: serve blocks below MMAP_THRESHOLD
    from the heap, and return the heap's free top to the kernel only past
    TRIM_THRESHOLD. Otherwise glibc trims the heap after each mining
    target or alignment pair, and the next one faults the same pages in
    again. These calls override MALLOC_MMAP_THRESHOLD_ and
    MALLOC_TRIM_THRESHOLD_ from the environment. A C library without
    mallopt (macOS, Windows) is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv: list[str] | None = None) -> int:
    keep_freed_memory()
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return run_command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


def process_main() -> NoReturn:
    """Run main and end the process with its code, skipping the
    interpreter's teardown. Every output is written and closed by then,
    and logging.shutdown is the one exit callback the package's imports
    register, so it is called here and no byte of output changes. An
    exception raised by main, SystemExit included (argparse's errors,
    --help, --version), propagates and ends the process the usual way."""
    code = main()
    logging.shutdown()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
