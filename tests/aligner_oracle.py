"""Dict-of-dicts reference for the array aligner.

The oracle that the array EM and batched Viterbi in pivotmine.aligner are
tested against: plain loops over verse pairs and tokens, one dict row per
source word, and one Viterbi pass per verse pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from pivotmine.aligner import AlignerConfig, diagonal_prior
from pivotmine.errors import DataError


def _prior_rows(src_len: int, tgt_len: int, cfg: AlignerConfig) -> list[list[float]]:
    return [diagonal_prior(src_len, tgt_len, j, cfg) for j in range(tgt_len)]


@dataclass
class DictTable:
    """t[source][target] = probability, the null word being source None,
    and the log-likelihood at the start of each EM iteration."""

    t: dict[str | None, dict[str, float]]
    log_likelihoods: list[float]


def train_alignment(pairs, cfg: AlignerConfig) -> DictTable:
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


def viterbi_align(t: dict, source, target, cfg: AlignerConfig):
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
