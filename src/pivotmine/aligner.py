"""Word alignment between verse pairs.

A lexical translation table is trained per translation pair with EM under
a diagonal position prior (relative-position mismatch penalized by a fixed
tension, plus a fixed null-alignment mass), then decoded with a one-best
link per target token. The pipeline only consumes aggregate link counts,
so that is the main entry point here.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import MultiCorpus
from .errors import DataError
from .textio import read_lines, write_lines

logger = logging.getLogger(__name__)

# Sentinel surface for the null source word in serialized tables. Real
# tokens never contain a tab, so the empty string is unambiguous there;
# in-memory we key the null row by None.
NULL_SURFACE = ""

CACHE_FORMAT = "lex-tsv-1"


@dataclass(frozen=True)
class AlignerConfig:
    em_iterations: int = 5
    diagonal_tension: float = 4.0
    null_prob: float = 0.08

    def validate(self) -> None:
        if self.em_iterations < 1:
            raise ValueError("em_iterations must be >= 1")
        if self.diagonal_tension < 0:
            raise ValueError("diagonal_tension must be >= 0")
        if not 0 <= self.null_prob < 1:
            raise ValueError("null_prob must lie in [0, 1)")


@dataclass
class LexTable:
    """Trained lexical table: t[source_word][target_word] = probability.

    The null source row is keyed by None. Rows sum to 1 over the target
    words seen with that source word. log_likelihoods holds the corpus
    log-likelihood at the start of each EM iteration (non-decreasing).
    """

    t: dict[str | None, dict[str, float]]
    log_likelihoods: list[float] = field(default_factory=list)

    def prob(self, source: str | None, target: str) -> float:
        return self.t.get(source, {}).get(target, 0.0)


def diagonal_prior(
    src_len: int, tgt_len: int, j: int, cfg: AlignerConfig
) -> list[float]:
    """Prior weight of each source position for target position j.

    Weights decay exponentially in the relative-position gap and are
    normalized to 1 - null_prob; the remaining null_prob is the prior of
    aligning to the null word.
    """
    rel_j = (j + 1) / tgt_len
    ws = [
        math.exp(-cfg.diagonal_tension * abs((i + 1) / src_len - rel_j))
        for i in range(src_len)
    ]
    z = sum(ws)
    scale = (1.0 - cfg.null_prob) / z
    return [w * scale for w in ws]


_PRIOR_CACHE: dict[tuple, list[list[float]]] = {}


def _prior_matrix(src_len: int, tgt_len: int, cfg: AlignerConfig) -> list[list[float]]:
    """Rows of diagonal_prior for every target position, memoized."""
    key = (src_len, tgt_len, cfg.diagonal_tension, cfg.null_prob)
    cached = _PRIOR_CACHE.get(key)
    if cached is None:
        cached = [diagonal_prior(src_len, tgt_len, j, cfg) for j in range(tgt_len)]
        _PRIOR_CACHE[key] = cached
    return cached


def _surfaces(verse) -> list[str]:
    if hasattr(verse, "surfaces"):
        return verse.surfaces
    return list(verse)


def train_alignment(pairs, cfg: AlignerConfig | None = None) -> LexTable:
    """EM-train a lexical table from (source, target) verse pairs.

    Each pair is a TokenizedVerse pair or a plain pair of token lists.
    Pairs with an empty side are skipped; raises DataError if nothing
    remains. The null source word co-occurs with every target word.
    """
    cfg = cfg or AlignerConfig()
    cfg.validate()
    src_ids: dict[str, int] = {}
    tgt_ids: dict[str, int] = {}
    id_pairs: list[tuple[list[int], list[int]]] = []
    skipped = 0
    for src, tgt in pairs:
        s = _surfaces(src)
        t = _surfaces(tgt)
        if not s or not t:
            skipped += 1
            continue
        id_pairs.append(
            (
                [src_ids.setdefault(w, len(src_ids) + 1) for w in s],
                [tgt_ids.setdefault(w, len(tgt_ids)) for w in t],
            )
        )
    if not id_pairs:
        raise DataError("no non-empty verse pairs to train on")
    if skipped:
        logger.debug("alignment training skipped %d empty pairs", skipped)

    n_src = len(src_ids) + 1  # id 0 is the null word
    # Uniform init over the target words co-occurring with each source word.
    cooc: list[set[int]] = [set() for _ in range(n_src)]
    for s_ids, t_ids in id_pairs:
        for f in t_ids:
            cooc[0].add(f)
            for e in s_ids:
                cooc[e].add(f)
    table: list[dict[int, float]] = []
    for e in range(n_src):
        u = 1.0 / len(cooc[e]) if cooc[e] else 0.0
        table.append({f: u for f in sorted(cooc[e])})

    null_p = cfg.null_prob
    lls: list[float] = []
    for _ in range(cfg.em_iterations):
        counts: list[dict[int, float]] = [dict() for _ in range(n_src)]
        ll = 0.0
        for s_ids, t_ids in id_pairs:
            priors = _prior_matrix(len(s_ids), len(t_ids), cfg)
            null_row = table[0]
            for j, f in enumerate(t_ids):
                pr = priors[j]
                w_null = null_p * null_row.get(f, 0.0)
                ws = [pr[i] * table[e].get(f, 0.0) for i, e in enumerate(s_ids)]
                denom = w_null + sum(ws)
                ll += math.log(denom)
                inv = 1.0 / denom
                c0 = counts[0]
                c0[f] = c0.get(f, 0.0) + w_null * inv
                for i, e in enumerate(s_ids):
                    ce = counts[e]
                    ce[f] = ce.get(f, 0.0) + ws[i] * inv
        lls.append(ll)
        for e in range(n_src):
            total = sum(counts[e].values())
            if total > 0:
                row = table[e]
                inv = 1.0 / total
                for f in row:
                    row[f] = counts[e].get(f, 0.0) * inv

    tgt_names = {i: w for w, i in tgt_ids.items()}
    src_names: dict[int, str | None] = {i: w for w, i in src_ids.items()}
    src_names[0] = None
    out: dict[str | None, dict[str, float]] = {}
    for e in range(n_src):
        out[src_names[e]] = {tgt_names[f]: p for f, p in table[e].items()}
    return LexTable(out, lls)


def viterbi_align(lex: LexTable, source, target, cfg: AlignerConfig | None = None):
    """One-best alignment links (source_index, target_index) for a pair.

    Each target token takes its single best source position under
    prior * t, or the null word when nothing beats the null score; null
    and out-of-vocabulary tokens produce no link. A source token must
    strictly exceed the null score, and ties between source positions go
    to the leftmost.
    """
    cfg = cfg or AlignerConfig()
    src = _surfaces(source)
    tgt = _surfaces(target)
    links: list[tuple[int, int]] = []
    if not src or not tgt:
        return links
    null_row = lex.t.get(None, {})
    rows = [lex.t.get(e, {}) for e in src]
    priors = _prior_matrix(len(src), len(tgt), cfg)
    for j, f in enumerate(tgt):
        pr = priors[j]
        best = cfg.null_prob * null_row.get(f, 0.0)
        best_i = -1
        for i, row in enumerate(rows):
            w = pr[i] * row.get(f, 0.0)
            if w > best:
                best = w
                best_i = i
        if best_i >= 0:
            links.append((best_i, j))
    return links


@dataclass
class PairLinkStats:
    """Aggregate link counts between one source translation and one target.

    source_word_to_target counts links from the tracked source word to each
    target word; target_word_links counts all links onto each target word
    regardless of source.
    """

    source_word: str
    source_word_to_target: Counter = field(default_factory=Counter)
    source_word_links: int = 0
    target_word_links: Counter = field(default_factory=Counter)
    total_links: int = 0


def _verse_pairs(corpus: MultiCorpus, src_id: str, tgt_id: str):
    """Aligned (source, target) token lists over the selected verses."""
    src_tok = corpus.tokenized(src_id)
    tgt_tok = corpus.tokenized(tgt_id)
    pairs = []
    for vid in corpus.selected_verses:
        sv = src_tok.get(vid)
        tv = tgt_tok.get(vid)
        if sv is None or tv is None or not sv.tokens or not tv.tokens:
            continue
        pairs.append((sv.surfaces, tv.surfaces))
    return pairs


def _pair_cache_key(
    corpus: MultiCorpus, src_id: str, tgt_id: str, cfg: AlignerConfig
) -> str:
    h = hashlib.sha256()
    h.update(CACHE_FORMAT.encode())
    h.update(
        json.dumps(
            [src_id, tgt_id, cfg.em_iterations, cfg.diagonal_tension, cfg.null_prob]
        ).encode()
    )
    src_tok = corpus.translations[src_id].verses
    tgt_tok = corpus.translations[tgt_id].verses
    for vid in corpus.selected_verses:
        s = src_tok.get(vid)
        t = tgt_tok.get(vid)
        if s is None or t is None:
            continue
        h.update(vid.encode())
        h.update(s.encode())
        h.update(b"\x00")
        h.update(t.encode())
        h.update(b"\x01")
    return h.hexdigest()


def save_lex_table(lex: LexTable, path: Path, key: str) -> None:
    lines = [f"# {CACHE_FORMAT} key={key}"]
    for src, row in lex.t.items():
        sname = NULL_SURFACE if src is None else src
        for tgt, p in row.items():
            lines.append(f"{sname}\t{tgt}\t{p!r}")
    write_lines(path, lines)


def load_lex_table(path: Path, key: str) -> LexTable | None:
    """Load a cached table, or None when missing, stale, or corrupt."""
    try:
        lines = read_lines(path)
    except DataError:
        return None
    if not lines or lines[0] != f"# {CACHE_FORMAT} key={key}":
        return None
    t: dict[str | None, dict[str, float]] = {}
    try:
        for line in lines[1:]:
            if not line:
                continue
            sname, tgt, p = line.split("\t")
            src = None if sname == NULL_SURFACE else sname
            t.setdefault(src, {})[tgt] = float(p)
    except ValueError:
        logger.warning("corrupt alignment cache %s, recomputing", path)
        return None
    if not t:
        return None
    return LexTable(t)


def train_pair(
    corpus: MultiCorpus,
    src_id: str,
    tgt_id: str,
    cfg: AlignerConfig,
    cache_dir: str | Path | None = None,
) -> LexTable:
    """Train (or load from cache) the lexical table for one pair."""
    if cache_dir is None:
        return train_alignment(_verse_pairs(corpus, src_id, tgt_id), cfg)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = _pair_cache_key(corpus, src_id, tgt_id, cfg)
    path = cache_dir / f"{src_id}__{tgt_id}.lex.tsv"
    cached = load_lex_table(path, key)
    if cached is not None:
        return cached
    lex = train_alignment(_verse_pairs(corpus, src_id, tgt_id), cfg)
    save_lex_table(lex, path, key)
    return lex


def link_counts(
    corpus: MultiCorpus,
    source_translation_id: str,
    source_word: str,
    cfg: AlignerConfig | None = None,
    targets: list[str] | None = None,
    cache_dir: str | Path | None = None,
) -> dict[str, PairLinkStats]:
    """Align the source translation against each target and count links.

    source_word must be a tokenizer-normalized surface; if it never occurs
    in the selected verses of the source translation the result is empty
    (with a warning). Targets default to every other translation, and are
    processed in sorted order.
    """
    cfg = cfg or AlignerConfig()
    cfg.validate()
    if source_translation_id not in corpus.translations:
        raise DataError(f"unknown translation {source_translation_id!r}")
    freq = corpus.token_frequencies(source_translation_id)
    if freq.get(source_word, 0) == 0:
        logger.warning(
            "source word %r absent from selected verses of %s",
            source_word,
            source_translation_id,
        )
        return {}
    if targets is None:
        targets = [t for t in corpus.translations if t != source_translation_id]
    out: dict[str, PairLinkStats] = {}
    for tgt_id in sorted(targets):
        if tgt_id == source_translation_id:
            continue
        pairs = _verse_pairs(corpus, source_translation_id, tgt_id)
        if not pairs:
            logger.warning(
                "no shared selected verses between %s and %s",
                source_translation_id,
                tgt_id,
            )
            continue
        lex = train_pair(corpus, source_translation_id, tgt_id, cfg, cache_dir)
        stats = PairLinkStats(source_word)
        for src, tgt in pairs:
            for i, j in viterbi_align(lex, src, tgt, cfg):
                f = tgt[j]
                stats.target_word_links[f] += 1
                stats.total_links += 1
                if src[i] == source_word:
                    stats.source_word_to_target[f] += 1
                    stats.source_word_links += 1
        out[tgt_id] = stats
    return out
