"""Per-verse and sorting references for the corpus and pair encoders.

The oracles that MultiCorpus.encode, aligner.encode_pairs,
aligner._pair_cache_key, the head-pivot query merge and the pivot scan
are tested against: one regex match per token and one verse at a time,
np.unique for word and cell numbering, one hash update per piece of each
selected verse, a merge that rewrites the query text, and a scan that tokenizes
the translation's text.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import struct
from collections import defaultdict
from itertools import repeat

import numpy as np

from pivotmine.aligner import CACHE_FORMAT, PairEncoding
from helpers import verses_of
from pivotmine.config import RunConfig
from pivotmine.corpus import DELIMITERS, MultiCorpus, TranslationEncoding, tokenize_blocks
from pivotmine.errors import DataError

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(f"[^{re.escape(DELIMITERS)}]+")


def encode(corpus: MultiCorpus, translation_id: str) -> TranslationEncoding:
    """MultiCorpus.encode, tokenizing one selected verse at a time: each
    token a regex match, lowercased on its own."""
    verses = verses_of(corpus, translation_id)
    index: defaultdict[str, int] = defaultdict()
    index.default_factory = index.__len__
    ids: list[int] = []
    span_sums: list[int] = []
    offsets = [0]
    for vid in corpus.selected_verses:
        for m in _TOKEN_RE.finditer(verses.get(vid, "")):
            ids.append(index[m.group().lower()])
            span_sums.append(m.start() + m.end())
        offsets.append(len(ids))
    return TranslationEncoding(
        list(index),
        np.array(ids, dtype=np.int32),
        np.array(offsets, dtype=np.int32),
        np.array(span_sums, dtype=np.int32),
    )


def first_occurrence(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ids in first-occurrence order, and the index
    of each entry's value among them, by sorting."""
    uniq, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return uniq[order], rank[inverse.ravel()]


def encode_pairs(src: TranslationEncoding, tgt: TranslationEncoding) -> PairEncoding:
    """aligner.encode_pairs, numbering words and cells with np.unique."""
    src_len = np.diff(src.offsets)
    tgt_len = np.diff(tgt.offsets)
    keep = (src_len > 0) & (tgt_len > 0)
    if not keep.any():
        raise DataError("no non-empty verse pairs to train on")
    src_vocab, src_ids = first_occurrence(src.ids[np.repeat(keep, src_len)])
    tgt_vocab, tgt_ids = first_occurrence(tgt.ids[np.repeat(keep, tgt_len)])
    src_ids += 1
    n_tgt = len(tgt_vocab)
    shape = np.column_stack((src_len[keep], tgt_len[keep])).astype(np.int64)
    src_start = np.cumsum(shape[:, 0]) - shape[:, 0]
    tgt_start = np.cumsum(shape[:, 1]) - shape[:, 1]

    order = np.lexsort((shape[:, 1], shape[:, 0]))
    cuts = np.flatnonzero(np.any(np.diff(shape[order], axis=0), axis=1)) + 1
    keys = []
    blocks = []
    offset = 0
    for rows in np.split(order, cuts):
        s_len, t_len = shape[rows[0]].tolist()
        block_src = np.zeros((len(rows), s_len + 1), dtype=np.int64)
        block_src[:, 1:] = src_ids[src_start[rows, None] + np.arange(s_len)]
        block_tgt = tgt_ids[tgt_start[rows, None] + np.arange(t_len)]
        key = (block_src[:, None, :] * n_tgt + block_tgt[:, :, None]).ravel()
        keys.append(key)
        blocks.append((offset, len(rows), s_len, t_len))
        offset += key.size
    uniq, cells = np.unique(np.concatenate(keys), return_inverse=True)
    return PairEncoding(
        src_words=[None, *(src.vocab[i] for i in src_vocab.tolist())],
        tgt_words=[tgt.vocab[i] for i in tgt_vocab.tolist()],
        cell_src=(uniq // n_tgt).astype(np.int32),
        cell_tgt=(uniq % n_tgt).astype(np.int32),
        cells=cells.astype(np.intp).ravel(),
        blocks=blocks,
    )


def texts_digest(corpus: MultiCorpus, translation_id: str) -> bytes:
    """aligner.texts_digest with one hash update per piece of each selected
    verse: every verse's int64 length (-1 when missing), then every text."""
    verses = verses_of(corpus, translation_id)
    h = hashlib.sha256()
    for vid in corpus.selected_verses:
        h.update(struct.pack("<q", len(verses[vid]) if vid in verses else -1))
    for vid in corpus.selected_verses:
        h.update(verses.get(vid, "").encode())
    return h.digest()


def pair_cache_key(
    corpus: MultiCorpus, src_id: str, tgt_id: str, cfg: RunConfig, merge: tuple = ()
) -> str:
    """aligner._pair_cache_key of the pair, its digests from texts_digest."""
    h = hashlib.sha256()
    h.update(CACHE_FORMAT.encode())
    h.update(
        json.dumps(
            [src_id, tgt_id, cfg.em_iterations, cfg.diagonal_tension, cfg.null_prob, *merge]
        ).encode()
    )
    h.update(texts_digest(corpus, src_id))
    h.update(texts_digest(corpus, tgt_id))
    return h.hexdigest()


def apply_query_merge(
    corpus: MultiCorpus,
    translation_id: str,
    forms: set[str] | frozenset[str],
    synthetic: str,
) -> dict[str, str]:
    """The query merge as a rewrite of the text: the translation's verses,
    {verse_id: text}, with every token matching one of forms replaced by
    a synthetic token.

    forms are compared lowercased. Raises ValueError if the synthetic
    token would be split by the tokenizer, and DataError if it already
    occurs as a token of this translation (the merge would be ambiguous).
    """
    if any(ch in DELIMITERS for ch in synthetic):
        raise ValueError(f"synthetic token {synthetic!r} contains a delimiter")
    if not synthetic:
        raise ValueError("synthetic token must be non-empty")
    target = synthetic.lower()
    norm_forms = {f.lower() for f in forms}
    new_verses: dict[str, str] = {}
    replaced = 0
    items = list(verses_of(corpus, translation_id).items())
    for lo, (surfaces, starts, ends, counts) in tokenize_blocks([text for _, text in items]):
        block = items[lo : lo + len(counts)]
        verse = np.repeat(np.arange(len(block)), counts).tolist()
        if target in surfaces:
            raise DataError(
                f"synthetic token {synthetic!r} already occurs in "
                f"{translation_id} verse {block[verse[surfaces.index(target)]][0]}"
            )
        spans = defaultdict(list)
        for k, surface in enumerate(surfaces):
            if surface in norm_forms:
                spans[verse[k]].append((int(starts[k]), int(ends[k])))
                replaced += 1
        for v, (vid, text) in enumerate(block):
            parts: list[str] = []
            prev = 0
            for start, end in spans.get(v, ()):
                parts += (text[prev:start], synthetic)
                prev = end
            parts.append(text[prev:])
            new_verses[vid] = "".join(parts)
    if replaced == 0:
        logger.warning("query merge matched no tokens in %s", translation_id)
    return new_verses


def scan_translation(
    corpus: MultiCorpus, translation_id: str, surfaces: list[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """pivots._scan_translation as one tokenize pass over the translation's
    selected verses, looking each block's surfaces up among surfaces."""
    verses = verses_of(corpus, translation_id)
    texts = [verses.get(vid, "") for vid in corpus.selected_verses]
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    index = {surface: k for k, surface in enumerate(surfaces)}
    found = []
    for lo, (tokens, starts, ends, counts) in tokenize_blocks(texts):
        code = np.fromiter(map(index.get, tokens, repeat(-1)), np.int64, len(tokens))
        hits = np.flatnonzero(code >= 0)
        row = lo + np.searchsorted(np.cumsum(counts), hits, side="right")
        found.append((row, code[hits], (starts[hits] + ends[hits]) / 2.0 / lengths[row]))
    missing = np.fromiter((vid not in verses for vid in corpus.selected_verses), bool, len(texts))
    return (*map(np.concatenate, zip(*found)), missing)
