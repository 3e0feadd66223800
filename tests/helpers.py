"""Independent reference implementations the tests check against.

Everything here is a direct transcription of a definition, kept naive on
purpose: agreement between these and the package is evidence, not
tautology. Nothing in this module imports package internals beyond the
plain data types and encoders needed to build fixtures.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np

from pivotmine.aligner import LexTable, PairEncoding, encode_pairs
from pivotmine.config import RunConfig
from pivotmine.corpus import MultiCorpus, TranslationEncoding, build_corpus

# The run parameters a test leaves alone, from the one place that defines them.
CONFIG = RunConfig()


def mining(**overrides) -> dict:
    """mine_ngrams' run parameters from CONFIG, with overrides."""
    params = dict(
        sigma=CONFIG.sigma, w=CONFIG.window, n_range=(CONFIG.n_min, CONFIG.n_max), top=CONFIG.top
    )
    return {**params, **overrides}


def chi2_reference(a: float, b: float, c: float, d: float) -> float:
    """Pearson chi-square from the expected-count definition."""
    n = a + b + c + d
    rows = (a + b, c + d)
    cols = (a + c, b + d)
    if 0 in rows or 0 in cols:
        return 0.0
    total = 0.0
    observed = ((a, b), (c, d))
    for i in range(2):
        for j in range(2):
            e = rows[i] * cols[j] / n
            total += (observed[i][j] - e) ** 2 / e
    return total


def jsd_reference(p, q) -> float:
    """Jensen-Shannon divergence, base-2, straight from the formula."""
    # Sums, not midpoints: halving a subnormal entry rounds it to zero.
    s = [x + y for x, y in zip(p, q)]

    def kl(u, v):
        acc = 0.0
        for ui, vi in zip(u, v):
            if ui > 0:
                acc += ui * math.log2(2.0 * ui / vi)
        return acc

    return 0.5 * kl(p, s) + 0.5 * kl(q, s)


def upgma_reference(labels, values):
    """O(n^3) UPGMA recomputing cluster distances from the original matrix.

    Returns {(left leaves, right leaves): height} with each side a
    frozenset and left holding the smaller minimum label. Ties break on
    (distance, min label of left, min label of right), matching the
    documented package rule.
    """
    index = {lb: i for i, lb in enumerate(labels)}
    clusters = [frozenset([lb]) for lb in labels]

    def dist(ca, cb):
        total = 0.0
        for x in ca:
            for y in cb:
                total += values[index[x]][index[y]]
        return total / (len(ca) * len(cb))

    merges = {}
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                a, b = clusters[i], clusters[j]
                lo, hi = (a, b) if min(a) <= min(b) else (b, a)
                key = (dist(a, b), min(lo), min(hi))
                if best is None or key < best[0]:
                    best = (key, i, j, lo, hi)
        key, i, j, lo, hi = best
        merges[(lo, hi)] = key[0] / 2.0
        merged = clusters[i] | clusters[j]
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append(merged)
    return merges


def tree_merges(root):
    """Extract {(left leaves, right leaves): height} from a dendrogram.

    Sides are frozensets ordered so the left one holds the smaller
    minimum label, mirroring upgma_reference's canonical form.
    """

    def leaves(node):
        if node.is_leaf:
            return frozenset([node.label])
        out = frozenset()
        for ch in node.children:
            out |= leaves(ch)
        return out

    merges = {}

    def walk(node):
        if node.is_leaf:
            return
        a, b = (leaves(ch) for ch in node.children)
        lo, hi = (a, b) if min(a) <= min(b) else (b, a)
        merges[(lo, hi)] = node.height
        for ch in node.children:
            walk(ch)

    walk(root)
    return merges


_NUM_RE = re.compile(r"[-+0-9.eE]+")
_BARE_RE = re.compile(r"[^:,();]*")


def parse_newick(text: str) -> dict:
    """Minimal Newick reader for round-trip tests.

    Returns nested {"children": [...], "label": str, "length": float|None}.
    Handles single-quoted labels with doubled-quote escaping.
    """
    s = text.strip()
    if not s.endswith(";"):
        raise ValueError("newick must end with ';'")
    pos = 0

    def node():
        nonlocal pos
        children = []
        if s[pos] == "(":
            pos += 1
            while True:
                children.append(node())
                if s[pos] == ",":
                    pos += 1
                    continue
                if s[pos] == ")":
                    pos += 1
                    break
                raise ValueError(f"unexpected {s[pos]!r} at {pos}")
        if pos < len(s) and s[pos] == "'":
            pos += 1
            buf = []
            while True:
                ch = s[pos]
                if ch == "'":
                    if pos + 1 < len(s) and s[pos + 1] == "'":
                        buf.append("'")
                        pos += 2
                        continue
                    pos += 1
                    break
                buf.append(ch)
                pos += 1
            label = "".join(buf)
        else:
            label = _BARE_RE.match(s, pos).group(0)
            pos += len(label)
        length = None
        if pos < len(s) and s[pos] == ":":
            pos += 1
            m = _NUM_RE.match(s, pos)
            length = float(m.group(0))
            pos += len(m.group(0))
        return {"children": children, "label": label, "length": length}

    root = node()
    if s[pos] != ";":
        raise ValueError(f"trailing content at {pos}: {s[pos:]!r}")
    return root


def newick_leaf_depths(root: dict) -> dict[str, float]:
    """Sum of branch lengths from the root to each leaf label."""
    depths = {}

    def walk(node, acc):
        acc += node["length"] or 0.0
        if not node["children"]:
            depths[node["label"]] = acc
            return
        for ch in node["children"]:
            walk(ch, acc)

    walk(root, 0.0)
    return depths


def tokenize_reference(text: str) -> list[tuple[str, int, int]]:
    """(surface, start, end) of each maximal run of non-delimiters.

    The character loop that the package's regex tokenizer replaced: runs
    are lowercased, and start/end index the raw text.
    """
    delims = set(" \t\r\n\f\v.,;:!?()[]\"'")
    tokens = []
    start = None
    for i, ch in enumerate(text):
        if ch in delims:
            if start is not None:
                tokens.append((text[start:i].lower(), start, i))
                start = None
        elif start is None:
            start = i
    if start is not None:
        tokens.append((text[start:].lower(), start, len(text)))
    return tokens


def make_corpus(verses_by_tid: dict[str, dict[str, str]], iso3=None, select=True):
    """Assemble a MultiCorpus from {translation_id: {verse_id: text}}.

    iso3 overrides default language codes (first three id characters).
    With select the full universe becomes the working selection.
    """
    iso3 = iso3 or {}
    corpus = build_corpus(
        verses_by_tid, {tid: iso3.get(tid, tid[:3]) for tid in verses_by_tid}
    )
    if select:
        corpus = corpus.select(len(corpus.verse_universe))
    return corpus


def verses_of(corpus: MultiCorpus, translation_id: str) -> dict[str, str]:
    """{verse_id: text} of every verse of a translation, in file order: a
    readable view for tests."""
    index = corpus.translations[translation_id].verse_index
    verse_ids = map(corpus.verse_universe.__getitem__, index.tolist())
    return dict(zip(verse_ids, corpus.texts(translation_id, index)))


def corpus_state(corpus: MultiCorpus) -> dict:
    """vars(corpus) in a form that compares by value: arrays as lists and
    each translation as its fields."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if hasattr(value, "__dataclass_fields__"):
            return {k: plain(v) for k, v in vars(value).items()}
        return value

    return plain(vars(corpus))


def with_translation(corpus: MultiCorpus, translation_id: str, verses: dict[str, str], iso3=None):
    """corpus with one translation (new or replaced) given as {verse_id:
    text}, and the same verse ids selected. The universe must not change."""
    all_verses = {tid: verses_of(corpus, tid) for tid in corpus.translations}
    all_verses[translation_id] = verses
    codes = {tid: t.iso3 for tid, t in corpus.translations.items()}
    codes[translation_id] = iso3 or codes.get(translation_id, translation_id[:3])
    rebuilt = build_corpus(all_verses, codes, corpus.families)
    assert rebuilt.verse_universe == corpus.verse_universe
    return replace(rebuilt, selected_index=corpus.selected_index)


def assert_encodings_equal(got: PairEncoding, want: PairEncoding) -> None:
    """The two pair encodings are equal, word lists, cell arrays (with
    their dtypes) and blocks."""
    assert got.src_words == want.src_words
    assert got.tgt_words == want.tgt_words
    for name in ("cell_src", "cell_tgt", "cells"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
    assert got.blocks == want.blocks


def encode_surfaces(rows) -> TranslationEncoding:
    """Encode rows of token surfaces, one row per list; ids follow first
    occurrence, and each token's span is the one it takes when its row's
    surfaces are joined by single spaces."""
    index: dict[str, int] = {}
    ids = [index.setdefault(w, len(index)) for row in rows for w in row]
    offsets = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    span_sums = []
    for row in rows:
        start = 0
        for w in row:
            span_sums.append(2 * start + len(w))
            start += len(w) + 1
    return TranslationEncoding(
        list(index), np.array(ids, dtype=np.int32), offsets, np.array(span_sums, dtype=np.int32)
    )


def encode_surface_pairs(pairs) -> PairEncoding:
    """encode_pairs of (source, target) token surface lists, one row each."""
    pairs = list(pairs)
    return encode_pairs(
        encode_surfaces([s for s, _ in pairs]), encode_surfaces([t for _, t in pairs])
    )


def lex_table(enc: PairEncoding, rows: dict) -> LexTable:
    """A LexTable over enc from {source: {target: p}}, the null word being
    source None; a cell that rows lack gets 0."""
    probs = [
        rows.get(enc.src_words[e], {}).get(enc.tgt_words[f], 0.0)
        for e, f in zip(enc.cell_src.tolist(), enc.cell_tgt.tolist())
    ]
    return LexTable(enc, np.array(probs, dtype=float), [])


def lex_rows(lex: LexTable) -> dict[str | None, dict[str, float]]:
    """{source: {target: p}} of every cell of lex, in cell order; the null
    word is source None."""
    enc = lex.enc
    rows: dict[str | None, dict[str, float]] = {}
    for e, f, p in zip(enc.cell_src.tolist(), enc.cell_tgt.tolist(), lex.probs.tolist()):
        rows.setdefault(enc.src_words[e], {})[enc.tgt_words[f]] = p
    return rows


def positions_by_verse(corpus: MultiCorpus, pivot_set) -> dict[str, list[float]]:
    """A pivot set's token positions as relative midpoints per verse id, in
    their order: the form of ngrams_oracle.token_relative_positions."""
    rels: dict[str, list[float]] = {}
    for row, rel in zip(pivot_set.rows.tolist(), pivot_set.rel.tolist()):
        rels.setdefault(corpus.selected_verses[row], []).append(rel)
    return rels


def with_positions(corpus: MultiCorpus, pivot_set, rels: dict[str, list[float]]):
    """pivot_set with its positions replaced by rels, relative midpoints
    per selected verse id."""
    row_of = {vid: r for r, vid in enumerate(corpus.selected_verses)}
    by_row = sorted((row_of[vid], found) for vid, found in rels.items())
    rows = [r for r, found in by_row for _ in found]
    rel = [x for _, found in by_row for x in found]
    return replace(pivot_set, rows=np.array(rows, dtype=np.int64), rel=np.array(rel, dtype=float))
