"""References for the array aligner.

Two oracles that the EM and decoding in pivotmine.aligner are tested
against:
- a dict-of-dicts aligner: plain loops over verse pairs and tokens, one
  dict row per source word, and one Viterbi pass per verse pair;
- the array EM and decoding as first written: EM gathers with np.take in
  its default mode="raise", and decoding takes the argmax over the
  strided source columns of each block, returns per-block source
  positions, and finds the linked cells with a second gather.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from pivotmine.aligner import (
    LexTable,
    PairEncoding,
    PairLinkStats,
    _prior_matrix,
    diagonal_prior,
)
from pivotmine.config import RunConfig
from pivotmine.errors import DataError


def _prior_rows(src_len: int, tgt_len: int, cfg: RunConfig) -> list[list[float]]:
    return [diagonal_prior(src_len, tgt_len, j, cfg) for j in range(tgt_len)]


@dataclass
class DictTable:
    """t[source][target] = probability, the null word being source None,
    and the log-likelihood at the start of each EM iteration."""

    t: dict[str | None, dict[str, float]]
    log_likelihoods: list[float]


def train_alignment(pairs, cfg: RunConfig) -> DictTable:
    """EM over (source, target) token-list pairs, one token at a time."""
    src_ids: dict[str, int] = {}
    tgt_ids: dict[str, int] = {}
    id_pairs: list[tuple[list[int], list[int]]] = []
    for s, t in pairs:
        if not s or not t:
            continue
        id_pairs.append(
            (
                [src_ids.setdefault(w, len(src_ids) + 1) for w in s],
                [tgt_ids.setdefault(w, len(tgt_ids)) for w in t],
            )
        )
    if not id_pairs:
        raise DataError("no non-empty verse pairs to train on")

    n_src = len(src_ids) + 1  # id 0 is the null word
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
            priors = _prior_rows(len(s_ids), len(t_ids), cfg)
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
    return DictTable(out, lls)


def viterbi_align(t: dict, source, target, cfg: RunConfig):
    """Links (source_index, target_index) under the rows t: leftmost best
    source position per target token, kept only when it strictly beats the
    null word."""
    src = list(source)
    tgt = list(target)
    links: list[tuple[int, int]] = []
    if not src or not tgt:
        return links
    null_row = t.get(None, {})
    rows = [t.get(e, {}) for e in src]
    priors = _prior_rows(len(src), len(tgt), cfg)
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


# --- the array EM and decoding as first written ----------------------------------


def em(enc: PairEncoding, cfg: RunConfig) -> tuple[np.ndarray, list[float]]:
    """Per-cell probabilities after EM, and the log-likelihood at the
    start of each iteration."""
    n_cells = len(enc.cell_src)
    # Uniform init over the target words co-occurring with each source word.
    table = 1.0 / np.bincount(enc.cell_src)[enc.cell_src]
    priors = [_prior_matrix(s, t, cfg) for _, _, s, t in enc.blocks]
    w = np.empty(len(enc.cells))
    lls: list[float] = []
    for _ in range(cfg.em_iterations):
        np.take(table, enc.cells, out=w)
        ll = 0.0
        for prior, (_, _, block) in zip(priors, enc.views(w)):
            block *= prior
            denom = block.sum(axis=2)
            ll += float(np.log(denom).sum())
            block *= (1.0 / denom)[..., None]
        lls.append(ll)
        counts = np.bincount(enc.cells, w, minlength=n_cells)
        totals = np.bincount(enc.cell_src, counts)[enc.cell_src]
        # A row without posterior mass keeps its previous probabilities.
        filled = totals > 0
        table[filled] = counts[filled] * (1.0 / totals[filled])
    return table, lls


def viterbi_positions(lex: LexTable, cfg: RunConfig) -> list[np.ndarray]:
    """Per block, the (n, tgt_len) source position linked to each target
    token, or -1 for no link.

    Each target token takes its best source position under prior times
    cell probability, the leftmost on a tie, and links only when that
    weight strictly exceeds the null word's.
    """
    w = lex.probs[lex.enc.cells]
    out = []
    for s, t, block in lex.enc.views(w):
        block *= _prior_matrix(s, t, cfg)
        best = block[..., 1:].argmax(axis=2)
        w_best = np.take_along_axis(block, best[..., None] + 1, axis=2)[..., 0]
        out.append(np.where(w_best > block[..., 0], best, -1))
    return out


def link_cells(lex: LexTable, cfg: RunConfig) -> np.ndarray:
    """The cell of every link of viterbi_positions, block by block in
    verse and target order."""
    linked = [
        np.take_along_axis(block, positions[..., None] + 1, axis=2)[positions >= 0, 0]
        for positions, (_, _, block) in zip(
            viterbi_positions(lex, cfg), lex.enc.views(lex.enc.cells)
        )
    ]
    return np.concatenate(linked)


def link_stats(lex: LexTable, cfg: RunConfig, source_word: str) -> PairLinkStats:
    """Tally the links of link_cells."""
    enc = lex.enc
    cells = link_cells(lex, cfg)
    tgt = enc.cell_tgt[cells]
    n_tgt = len(enc.tgt_words)
    all_links = np.bincount(tgt, minlength=n_tgt)
    try:
        word_id = enc.src_words.index(source_word, 1)
    except ValueError:
        word_id = -1
    from_word = np.bincount(tgt[enc.cell_src[cells] == word_id], minlength=n_tgt)

    def counter(counts: np.ndarray) -> Counter:
        return Counter({enc.tgt_words[f]: c for f, c in enumerate(counts.tolist()) if c})

    return PairLinkStats(
        source_word,
        counter(from_word),
        int(from_word.sum()),
        counter(all_links),
        len(cells),
    )
