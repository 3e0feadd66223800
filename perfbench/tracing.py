"""Span tracing of pivotmine's public functions, from outside the package.

Run as a script, this file is a traced stand-in for ``python -m pivotmine``:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json <subcommand> [args...]

It imports pivotmine, replaces each hooked function with a timing wrapper
in the module where its caller looks it up, runs ``pivotmine.cli.main``
with the remaining arguments, and writes the spans it kept in memory to
SPANS.json.  A hook whose target no longer exists is listed as missing;
its spans are absent and the run goes on.

``layer_metrics`` turns the span files of one traced round into the
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("corpus.load_s", "s"), ("corpus.bytes_loaded", "B"),
    ("corpus.tokenize_s", "s"), ("corpus.verses_tokenized", "count"),
    ("corpus.select_s", "s"),
    ("aligner.em_s", "s"), ("aligner.em_cells", "count"),
    ("aligner.pairs_trained", "count"), ("aligner.pair_em_s_max", "s"),
    ("aligner.viterbi_s", "s"), ("aligner.links", "count"),
    ("aligner.cache_read_s", "s"), ("aligner.cache_hits", "count"),
    ("aligner.cache_write_s", "s"), ("aligner.cache_misses", "count"),
    ("aligner.cache_bytes_written", "B"), ("aligner.link_counts_self_s", "s"),
    ("pivots.score_s", "s"), ("pivots.candidates_scored", "count"),
    ("pivots.candidates_below_min_count", "count"),
    ("pivots.head_targets_aligned", "count"),
    ("pivots.head_targets_allowlisted", "count"), ("pivots.presence_s", "s"),
    ("ngrams.relpos_s", "s"), ("ngrams.mine_s", "s"), ("ngrams.target_s_max", "s"),
    ("ngrams.targets", "count"), ("ngrams.verses_scored", "count"),
    ("ngrams.verses_positive", "count"),
    ("cluster.distance_s", "s"), ("cluster.upgma_s", "s"),
    ("maps.split_s", "s"), ("maps.signature_s", "s"), ("evaluation.mrr_s", "s"),
    ("manifest.hash_s", "s"), ("manifest.bytes_hashed", "B"),
    ("cli.artifact_write_s", "s"), ("cli.artifact_bytes", "B"),
    ("process.cpu_s", "s"), ("pipeline.warm_rerun_s", "s"),
    ("trace.traced_wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.unaccounted_s", "s"),
    ("trace.missing_hooks", "count"),
]


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 is top level.

    A hot hook (called per verse or per verse pair) keeps no span per
    call; its calls are summed per (name, parent) instead, so that the
    parent's self time still excludes them.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.hot: dict[tuple[str, int], list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self.context: dict = {}
        self.missing: list[str] = []

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, fn, name: str, hot: bool = False, pre=None, post=None):
        tracer = self
        if hot:
            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                parent = tracer.stack[-1] if tracer.stack else -1
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                agg = tracer.hot[(name, parent)]
                agg[0] += 1
                agg[1] += time.perf_counter() - t0
                if post is not None:
                    post(tracer, args, kwargs, result)
                return result
            return hot_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args, kwargs)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if post is not None:
                post(tracer, args, kwargs, result)
            return result
        return wrapper

    def install(self, module_name: str, attr_path: str, name: str, **kw) -> None:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr_path}")
            return
        setattr(owner, attr, self.wrap(fn, name, **kw))

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "hot": [[n, p, c, t] for (n, p), (c, t) in self.hot.items()],
            "counts": dict(self.counts),
            "missing": self.missing,
        }


def _arg(args, kwargs, index: int, key: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _size(path) -> int:
    p = Path(path)
    if p.is_file():
        return p.stat().st_size
    if p.is_dir():
        return sum(c.stat().st_size for c in p.rglob("*") if c.is_file())
    return 0


def _count(key: str, fn):
    def post(tracer, args, kwargs, result):
        tracer.counts[key] += fn(args, kwargs, result)
    return post


def _em_cells(tracer, args, kwargs):
    pairs = _arg(args, kwargs, 0, "pairs")
    cfg = _arg(args, kwargs, 1, "cfg")
    iterations = getattr(cfg, "em_iterations", None)
    if iterations is None:
        iterations = importlib.import_module("pivotmine.aligner").AlignerConfig().em_iterations
    if not isinstance(pairs, (list, tuple)):
        return  # a one-shot iterable cannot be walked twice
    cells = 0
    for src, tgt in pairs:
        s = len(getattr(src, "surfaces", src))
        t = len(getattr(tgt, "surfaces", tgt))
        if s and t:
            cells += (s + 1) * t
    tracer.counts["aligner.em_cells"] += iterations * cells


def _cache_read(tracer, args, kwargs, result):
    tracer.counts["aligner.cache_misses" if result is None else "aligner.cache_hits"] += 1


def _head_start(tracer, args, kwargs):
    tracer.context["allowlist"] = set(_arg(args, kwargs, 2, "allowlist") or ())


def _head_targets(tracer, args, kwargs, result):
    if not tracer.inside("pivots.find_head"):
        return
    corpus = _arg(args, kwargs, 0, "corpus")
    allow = tracer.context.get("allowlist", set())
    tracer.counts["pivots.head_targets_aligned"] += len(result)
    tracer.counts["pivots.head_targets_allowlisted"] += sum(
        1 for tid in result if corpus.translations[tid].iso3 in allow
    )


def _scored(tracer, args, kwargs, result):
    stats = _arg(args, kwargs, 1, "stats_by_translation") or {}
    considered = sum(len(s.source_word_to_target) for s in stats.values())
    tracer.counts["pivots.candidates_scored"] += len(result)
    tracer.counts["pivots.candidates_below_min_count"] += considered - len(result)


def _mined(tracer, args, kwargs, result):
    tracer.counts["ngrams.targets"] += 1
    tracer.counts["ngrams.verses_scored"] += result.verses_scored
    tracer.counts["ngrams.verses_positive"] += result.verses_positive


def _written(tracer, args, kwargs, result):
    paths = [a for a in (*args, *kwargs.values()) if isinstance(a, (str, Path))]
    tracer.counts["cli.artifact_bytes"] += sum(_size(p) for p in paths)


WRITERS = (
    "write_coverage_report", "write_pivots_tsv", "_write_ranking_tsv",
    "write_ngrams_tsv", "write_distance_tsv", "write_splitters_tsv",
    "write_cluster_summary", "write_cluster_verses", "_write_json",
)


def install_hooks(tracer: Tracer) -> None:
    """Patch every hooked function where its caller looks it up."""
    cli, corpus, aligner, pivots = (
        "pivotmine.cli", "pivotmine.corpus", "pivotmine.aligner", "pivotmine.pivots",
    )
    hooks = [
        (cli, "load_corpus", "corpus.load", dict(post=_count(
            "corpus.bytes_loaded",
            lambda a, k, r: sum(_size(p) for p in Path(_arg(a, k, 0, "root")).glob("*.txt"))))),
        (corpus, "MultiCorpus.tokenized", "corpus.tokenize", {}),
        (corpus, "tokenize_verse", "corpus.tokenize", dict(
            hot=True, post=_count("corpus.verses_tokenized", lambda a, k, r: 1))),
        (corpus, "MultiCorpus.select", "corpus.select", {}),
        (aligner, "train_alignment", "aligner.em", dict(pre=_em_cells)),
        (aligner, "viterbi_align", "aligner.viterbi", dict(
            hot=True, post=_count("aligner.links", lambda a, k, r: len(r)))),
        (aligner, "load_lex_table", "aligner.cache_read", dict(post=_cache_read)),
        (aligner, "save_lex_table", "aligner.cache_write", dict(post=_count(
            "aligner.cache_bytes_written", lambda a, k, r: _size(_arg(a, k, 1, "path"))))),
        (pivots, "link_counts", "aligner.link_counts", dict(post=_head_targets)),
        (cli, "find_head_pivot", "pivots.find_head", dict(pre=_head_start)),
        (cli, "rank_pivot_candidates", "pivots.rank", {}),
        (pivots, "score_candidates", "pivots.score", dict(post=_scored)),
        (pivots, "presence_vector", "pivots.presence", {}),
        (cli, "presence_vector", "pivots.presence", {}),
        (cli, "pivot_relative_positions", "ngrams.relpos", {}),
        ("pivotmine.ngrams", "pivot_relative_positions", "ngrams.relpos", {}),
        (cli, "mine_ngrams", "ngrams.mine", dict(post=_mined)),
        (cli, "marker_distance_matrix", "cluster.distance", {}),
        (cli, "upgma", "cluster.upgma", {}),
        (cli, "select_splitting_pivots", "maps.split", {}),
        (cli, "signature_clusters", "maps.signature", {}),
        (cli, "mrr", "evaluation.mrr", {}),
        ("pivotmine.manifest", "file_sha256", "manifest.hash", dict(post=_count(
            "manifest.bytes_hashed", lambda a, k, r: _size(_arg(a, k, 0, "path"))))),
        ("pivotmine.manifest", "RunRecorder.write", "cli.write", dict(post=_count(
            "cli.artifact_bytes", lambda a, k, r: _size(r)))),  # writes manifest.json
    ]
    hooks += [(cli, name, "cli.write", dict(post=_written)) for name in WRITERS]
    for module_name, attr_path, name, kw in hooks:
        tracer.install(module_name, attr_path, name, **kw)


def traced_main(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    code = 1
    try:
        cli = tracer.wrap(importlib.import_module, "trace.import")("pivotmine.cli")
        install_hooks(tracer)
        code = tracer.wrap(cli.main, "cli.main")(argv)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


# --- aggregation ----------------------------------------------------------


def self_times(doc: dict) -> tuple[Counter, dict, Counter, float]:
    """Per name: summed self time, longest span, span count; and the
    summed duration of top-level spans."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: Counter = Counter()
    longest: dict = {}
    calls: Counter = Counter()
    for name, parent, count, total in doc["hot"]:
        self_s[name] += total
        calls[name] += count
        if parent >= 0:
            child[parent] += total
    top = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        self_s[name] += dur - child[i]
        longest[name] = max(longest.get(name, 0.0), dur)
        calls[name] += 1
        if parent < 0:
            top += dur
    return self_s, longest, calls, top


def layer_metrics(span_docs: list[dict], traced_wall: float, untraced_wall: float,
                  cpu_s: float, warm_rerun_s: float) -> dict:
    """Per-layer metrics of one traced round (one span file per command),
    with the CPU time and warm-rerun time of the untraced round."""
    self_s: Counter = Counter()
    longest: dict = {}
    calls: Counter = Counter()
    counts: Counter = Counter()
    top = 0.0
    missing = set()
    for doc in span_docs:
        s, lg, c, t = self_times(doc)
        self_s.update(s)
        calls.update(c)
        for k, v in lg.items():
            longest[k] = max(longest.get(k, 0.0), v)
        counts.update(doc["counts"])
        top += t
        missing.update(doc["missing"])
    out = {
        "aligner.pairs_trained": calls["aligner.em"],
        "aligner.pair_em_s_max": longest.get("aligner.em", 0.0),
        "aligner.link_counts_self_s": self_s["aligner.link_counts"],
        "ngrams.target_s_max": longest.get("ngrams.mine", 0.0),
        "cli.artifact_write_s": self_s["cli.write"],
        "process.cpu_s": cpu_s,
        "pipeline.warm_rerun_s": warm_rerun_s,
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unaccounted_s": traced_wall - top,
        "trace.missing_hooks": len(missing),
    }
    for name, unit in LAYER_METRICS:
        if name in out:
            continue
        if unit == "s":
            out[name] = self_s[name[: -len("_s")]]
        else:
            out[name] = counts[name]
    return out


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1], sys.argv[2:]))
