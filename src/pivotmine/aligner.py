"""Word alignment between verse pairs.

A lexical translation table is trained per translation pair with EM under
a diagonal position prior (relative-position mismatch penalized by a fixed
tension, plus a fixed null-alignment mass), then decoded with a one-best
link per target token. The pipeline only consumes aggregate link counts,
so that is the main entry point here.

Both EM and decoding run on one array encoding of a pair's verses (see
PairEncoding): every co-occurring (source word, target word) pair is a
cell with a pointer-width (np.intp) id, and verse pairs of the same shape
form one block that shares one prior matrix. The ids are intp because
numpy converts an index array of any other type to intp on every take and
bincount, which EM does twice per iteration. The trained table is one
probability per cell, from EM through decoding to the cache file.

EM and decoding gather with np.take(..., mode="clip"), as numpy buffers
a take's output under the default mode="raise". The clip never acts: a
PairEncoding checks once that its cell ids lie in [0, len(cell_src)), and
a LexTable that it holds one probability per cell.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig
from .corpus import MultiCorpus, TranslationEncoding, dense_index
from .errors import ConfigError, DataError
from .textio import read_bytes, write_bytes

logger = logging.getLogger(__name__)

# Surface of the null source word in the cache's cells digest. Real
# tokens are never empty, so the empty string is unambiguous there;
# in memory the null word is source id 0.
NULL_SURFACE = ""

CACHE_FORMAT = "lex-bin-2"

# A cached table whose rows do not sum to 1 within this is corrupt.
ROW_SUM_TOLERANCE = 1e-9


def diagonal_prior(
    src_len: int, tgt_len: int, j: int, cfg: RunConfig
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
    scale = (1.0 - cfg.null_prob) / sum(ws)
    return [w * scale for w in ws]


@functools.lru_cache(maxsize=1024)
def _prior_matrix(src_len: int, tgt_len: int, cfg: RunConfig) -> np.ndarray:
    """Read-only (tgt_len, src_len + 1) prior of one verse shape.

    Column 0 is null_prob; columns 1.. of row j are diagonal_prior for
    target position j, value for value.
    """
    m = np.empty((tgt_len, src_len + 1))
    m[:, 0] = cfg.null_prob
    for j in range(tgt_len):
        m[j, 1:] = diagonal_prior(src_len, tgt_len, j, cfg)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class PairEncoding:
    """Verse pairs as intp cell ids, in blocks of one verse shape.

    Source word ids start at 1; id 0 is the null word. Word ids follow
    first occurrence, and cells (co-occurring source and target ids,
    null included) are numbered in (source id, target id) order. The
    block of shape (src_len, tgt_len) holding n verse pairs is an
    (n, tgt_len, src_len + 1) slice of cells: entry [v, j, 0] is the cell
    of (null, target token j) and entry [v, j, i + 1] the cell of
    (source token i, target token j) in the block's verse pair v.
    cells is intp, numpy's index type, so that EM and decoding index with
    it directly: numpy converts any other index type on every take and
    bincount. Every id must name a cell, as those takes clip.
    """

    src_words: list[str | None]
    tgt_words: list[str]
    cell_src: np.ndarray
    cell_tgt: np.ndarray
    cells: np.ndarray
    blocks: list[tuple[int, int, int, int]]  # (offset, n, src_len, tgt_len)

    def __post_init__(self):
        if self.cells.size and not 0 <= self.cells.min() <= self.cells.max() < len(self.cell_src):
            raise ValueError(f"cell ids outside [0, {len(self.cell_src)})")

    def views(self, values: np.ndarray):
        """(src_len, tgt_len, block) for each block of a per-entry array."""
        for offset, n, s, t in self.blocks:
            size = n * t * (s + 1)
            yield s, t, values[offset : offset + size].reshape(n, t, s + 1)


@dataclass(frozen=True, eq=False)
class LexTable:
    """Trained lexical table over the cells of one pair encoding.

    probs[c] is the probability of target word enc.cell_tgt[c] given
    source word enc.cell_src[c]; the cells of each source word sum to 1.
    log_likelihoods holds the corpus log-likelihood at the start of each
    EM iteration (non-decreasing).
    """

    enc: PairEncoding
    probs: np.ndarray
    log_likelihoods: list[float]

    def __post_init__(self):
        if len(self.probs) != len(self.enc.cell_src):
            raise ValueError(f"{len(self.probs)} probabilities for {len(self.enc.cell_src)} cells")


def _first_occurrence(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ids, which lie in [0, size), in first-occurrence
    order, and the index of each entry's value among them."""
    first = np.full(size, len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    is_first = np.zeros(len(ids), dtype=bool)
    is_first[first[first < len(ids)]] = True
    distinct = ids[is_first]
    rank = np.empty(size, dtype=np.int64)
    rank[distinct] = np.arange(len(distinct))
    return distinct, rank[ids]


def encode_pairs(src: TranslationEncoding, tgt: TranslationEncoding) -> PairEncoding:
    """Encode the verse pairs of two encodings over the same rows.

    Rows where either side has no token are skipped, and DataError is
    raised if none remains. Each side's ids are renumbered in first
    occurrence over the kept rows, source ids from 1.
    """
    src_len = np.diff(src.offsets)
    tgt_len = np.diff(tgt.offsets)
    keep = (src_len > 0) & (tgt_len > 0)
    if not keep.any():
        raise DataError("no non-empty verse pairs to train on")
    src_vocab, src_ids = _first_occurrence(src.ids[np.repeat(keep, src_len)], len(src.vocab))
    tgt_vocab, tgt_ids = _first_occurrence(tgt.ids[np.repeat(keep, tgt_len)], len(tgt.vocab))
    src_ids += 1
    n_tgt = len(tgt_vocab)
    shape = np.column_stack((src_len[keep], tgt_len[keep])).astype(np.int64)
    src_start = np.cumsum(shape[:, 0]) - shape[:, 0]
    tgt_start = np.cumsum(shape[:, 1]) - shape[:, 1]

    order = np.lexsort((shape[:, 1], shape[:, 0]))
    cuts = np.flatnonzero(np.any(np.diff(shape[order], axis=0), axis=1)) + 1
    keys = np.empty(int((shape[:, 1] * (shape[:, 0] + 1)).sum()), dtype=np.int64)
    blocks = []
    offset = 0
    for rows in np.split(order, cuts):
        s_len, t_len = shape[rows[0]].tolist()
        size = len(rows) * t_len * (s_len + 1)
        block_src = np.zeros((len(rows), s_len + 1), dtype=np.int64)
        block_src[:, 1:] = src_ids[src_start[rows, None] + np.arange(s_len)]
        block_tgt = tgt_ids[tgt_start[rows, None] + np.arange(t_len)]
        np.add(
            block_src[:, None, :] * n_tgt,
            block_tgt[:, :, None],
            out=keys[offset : offset + size].reshape(len(rows), t_len, s_len + 1),
        )
        blocks.append((offset, len(rows), s_len, t_len))
        offset += size
    # Cells are numbered in key order.
    uniq, cells = dense_index(keys, (len(src_vocab) + 1) * n_tgt)
    return PairEncoding(
        src_words=[None, *(src.vocab[i] for i in src_vocab.tolist())],
        tgt_words=[tgt.vocab[i] for i in tgt_vocab.tolist()],
        cell_src=(uniq // n_tgt).astype(np.int32),
        cell_tgt=(uniq % n_tgt).astype(np.int32),
        cells=cells.astype(np.intp),
        blocks=blocks,
    )


def _em(enc: PairEncoding, cfg: RunConfig) -> tuple[np.ndarray, list[float]]:
    """Per-cell probabilities after EM, and the log-likelihood at the
    start of each iteration."""
    # Uniform init over the target words co-occurring with each source word.
    table = 1.0 / np.bincount(enc.cell_src)[enc.cell_src]
    priors = [_prior_matrix(s, t, cfg) for _, _, s, t in enc.blocks]
    w = np.empty(len(enc.cells))
    lls: list[float] = []
    for _ in range(cfg.em_iterations):
        np.take(table, enc.cells, out=w, mode="clip")  # unbuffered
        ll = 0.0
        for prior, (_, _, block) in zip(priors, enc.views(w)):
            block *= prior
            denom = block.sum(axis=2)
            ll += float(np.log(denom).sum())
            block *= (1.0 / denom)[..., None]
        lls.append(ll)
        counts = np.bincount(enc.cells, w, minlength=len(enc.cell_src))
        totals = np.bincount(enc.cell_src, counts)[enc.cell_src]
        # A row without posterior mass keeps its previous probabilities.
        filled = totals > 0
        table[filled] = counts[filled] * (1.0 / totals[filled])
    return table, lls


def train_alignment(enc: PairEncoding, cfg: RunConfig) -> LexTable:
    """EM-train a lexical table over the verse pairs of enc."""
    return LexTable(enc, *_em(enc, cfg))


def _viterbi(lex: LexTable, cfg: RunConfig) -> np.ndarray:
    """The cell of every link, block by block in verse and target order.

    Each target token takes its best source position under prior times
    cell probability, the leftmost on a tie, and links only when that
    weight strictly exceeds the null word's.
    """
    enc = lex.enc
    w = np.take(lex.probs, enc.cells, mode="clip")
    linked = []
    for (offset, n, s, t), (_, _, block) in zip(enc.blocks, enc.views(w)):
        block *= _prior_matrix(s, t, cfg)
        null = block[..., 0].copy()
        block[..., 0] = -1.0  # below every weight: the argmax runs over whole rows
        best = block.argmax(axis=2) + np.arange(offset, offset + block.size, s + 1).reshape(n, t)
        linked.append(best[np.take(w, best, mode="clip") > null])
    return np.take(enc.cells, np.concatenate(linked), mode="clip")


@dataclass
class PairLinkStats:
    """Aggregate link counts between one source translation and one target.

    source_word_to_target counts links from the tracked source word to each
    target word; target_word_links counts all links onto each target word
    regardless of source. target_frequencies is the token count, over the
    target's selected verses, of each word in source_word_to_target; it is
    not a link count and takes no part in comparisons.
    """

    source_word: str
    source_word_to_target: Counter = field(default_factory=Counter)
    source_word_links: int = 0
    target_word_links: Counter = field(default_factory=Counter)
    total_links: int = 0
    target_frequencies: dict[str, int] = field(default_factory=dict, compare=False)


def _link_stats(lex: LexTable, cfg: RunConfig, source_word: str) -> PairLinkStats:
    """Tally the Viterbi links of every verse pair of lex's encoding."""
    enc = lex.enc
    link_cells = _viterbi(lex, cfg)
    tgt = enc.cell_tgt[link_cells]
    n_tgt = len(enc.tgt_words)
    all_links = np.bincount(tgt, minlength=n_tgt)
    try:
        word_id = enc.src_words.index(source_word, 1)
    except ValueError:
        word_id = -1
    from_word = np.bincount(tgt[enc.cell_src[link_cells] == word_id], minlength=n_tgt)

    def counter(counts: np.ndarray) -> Counter:
        return Counter({enc.tgt_words[f]: c for f, c in enumerate(counts.tolist()) if c})

    return PairLinkStats(
        source_word, counter(from_word), int(from_word.sum()), counter(all_links), len(link_cells)
    )


def texts_digest(corpus: MultiCorpus, translation_id: str) -> bytes:
    """sha256 of a translation's selected verses: the length of each in
    characters as a little-endian int64, -1 for a verse the translation
    lacks (so a missing verse differs from an empty one), and then their
    texts end to end in UTF-8."""
    lengths = np.where(corpus.presence(translation_id), corpus.lengths(translation_id), -1)
    h = hashlib.sha256(lengths.astype("<i8").tobytes())
    h.update(corpus.joined_text(translation_id).encode("utf-8", "surrogatepass"))
    return h.digest()


def _pair_cache_key(
    src_id: str,
    tgt_id: str,
    cfg: RunConfig,
    merge: tuple,
    src_digest: bytes,
    tgt_digest: bytes,
) -> str:
    """The pair's cache key: a hash of the format, the pair, cfg, merge
    (the sorted forms and the word of a source query merge, or nothing)
    and the texts_digest of each side."""
    h = hashlib.sha256()
    h.update(CACHE_FORMAT.encode())
    h.update(
        json.dumps(
            [src_id, tgt_id, cfg.em_iterations, cfg.diagonal_tension, cfg.null_prob, *merge]
        ).encode()
    )
    h.update(src_digest)
    h.update(tgt_digest)
    return h.hexdigest()


def _cells_digest(enc: PairEncoding) -> str:
    """sha256 of the cell identity of enc: its source words (the null word
    as NULL_SURFACE) and then its target words, joined by newlines, followed
    by the little-endian int32 bytes of cell_src and of cell_tgt."""
    words = "\n".join([NULL_SURFACE, *enc.src_words[1:], *enc.tgt_words]).encode()
    cells = [a.astype("<i4", copy=False).tobytes() for a in (enc.cell_src, enc.cell_tgt)]
    return hashlib.sha256(b"".join([words, *cells])).hexdigest()


def save_lex_table(lex: LexTable, path: Path, key: str) -> None:
    """Write the table: a text header line with the key, the EM
    log-likelihoods, the cell count and the cells digest, then every cell's
    probability, in cell order, as little-endian float64."""
    lls = ",".join(repr(x) for x in lex.log_likelihoods)
    digest = _cells_digest(lex.enc)
    header = f"# {CACHE_FORMAT} key={key} lls={lls} cells={len(lex.probs)} digest={digest}\n"
    write_bytes(path, header.encode() + lex.probs.astype("<f8", copy=False).tobytes())


def load_lex_table(path: Path, key: str, enc: PairEncoding) -> LexTable | None:
    """Load the cached table of enc's pair, or None when missing, stale or
    corrupt. A file is corrupt, and a warning logged, when its header does
    not parse, its body is not 8 bytes per cell of the header's count, that
    count or the cells digest is not enc's, or a row does not sum to 1."""
    try:
        data = read_bytes(path)
    except DataError:
        return None
    prefix = f"# {CACHE_FORMAT} key={key} lls=".encode()
    if not data.startswith(prefix):
        return None
    try:
        # an unterminated header leaves an empty body, which fits no pair
        header, _, body = data.partition(b"\n")
        lls_text, cells, digest = header[len(prefix) :].decode().split(" ")
        lls = [float(x) for x in lls_text.split(",")] if lls_text else []
        n = int(cells.removeprefix("cells="))
        if len(body) != 8 * n:
            raise ValueError(f"{len(body)} bytes of probabilities for {n} cells")
        if n != len(enc.cell_src) or digest != f"digest={_cells_digest(enc)}":
            raise ValueError("cells differ from the pair's encoding")
        probs = np.frombuffer(body, "<f8").astype(np.float64)
        sums = np.bincount(enc.cell_src, probs)
        if not np.all(np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE):
            raise ValueError("a row does not sum to 1")
    except ValueError as exc:
        logger.warning("corrupt alignment cache %s (%s), recomputing", path, exc)
        return None
    return LexTable(enc, probs, lls)


def train_pair(
    src_id: str,
    tgt_id: str,
    enc: PairEncoding,
    cfg: RunConfig,
    cache_dir: str | Path | None,
    key: str,
) -> LexTable:
    """Train (or load from cache) the lexical table of one pair, whose
    verse pairs enc encodes; key is its _pair_cache_key."""
    if cache_dir is None:
        return train_alignment(enc, cfg)
    cache_dir = Path(cache_dir)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cache_dir {cache_dir} is not a usable directory: {exc}") from exc
    # the key prefix in the name lets tables of one pair under different
    # keys (say, the query pairs of each feature's merge) coexist
    path = cache_dir / f"{src_id}__{tgt_id}.{key[:16]}.lex"
    cached = load_lex_table(path, key, enc)
    if cached is not None:
        return cached
    lex = train_alignment(enc, cfg)
    save_lex_table(lex, path, key)
    return lex


def link_counts(
    corpus: MultiCorpus,
    source_translation_id: str,
    source_word: str,
    cfg: RunConfig,
    cache_dir: str | Path | None,
    targets: list[str] | None = None,
    forms: frozenset[str] = frozenset(),
) -> dict[str, PairLinkStats]:
    """Align the source translation against each target and count links.

    source_word must be a tokenizer-normalized surface; if it never occurs
    in the selected verses of the source translation the result is empty
    (with a warning). Targets default to every other translation, and are
    processed in sorted order. The tokens of the lowercased surfaces in
    forms are first merged into source_word, which must then not be a
    surface of the source (see TranslationEncoding.merged). Each side is
    encoded by corpus.encode, so a corpus with an encoding store
    (MultiCorpus.keeping_encodings) tokenizes each translation once. With
    a cache_dir, each side's selected texts are hashed once per call
    (texts_digest) for the pair keys.
    """
    if source_translation_id not in corpus.translations:
        raise DataError(f"unknown translation {source_translation_id!r}")
    src = corpus.encode(source_translation_id)
    merge = ()
    if forms:
        src = src.merged(forms, source_word)
        merge = (sorted(forms), source_word)
    if source_word not in src.vocab:
        logger.warning(
            "source word %r absent from selected verses of %s", source_word, source_translation_id
        )
        return {}
    if targets is None:
        targets = [t for t in corpus.translations if t != source_translation_id]
    src_digest = texts_digest(corpus, source_translation_id) if cache_dir is not None else b""
    out: dict[str, PairLinkStats] = {}
    for tgt_id in sorted(targets):
        if tgt_id == source_translation_id:
            continue
        tgt = corpus.encode(tgt_id)
        try:
            enc = encode_pairs(src, tgt)
        except DataError:
            logger.warning(
                "no shared selected verses between %s and %s", source_translation_id, tgt_id
            )
            continue
        key = ""
        if cache_dir is not None:
            key = _pair_cache_key(
                source_translation_id, tgt_id, cfg, merge, src_digest, texts_digest(corpus, tgt_id)
            )
        lex = train_pair(source_translation_id, tgt_id, enc, cfg, cache_dir, key)
        stats = _link_stats(lex, cfg, source_word)
        freq = tgt.frequencies()
        stats.target_frequencies = {w: freq[w] for w in stats.source_word_to_target}
        out[tgt_id] = stats
        # Drop this pair's arrays before the next target is encoded.
        del tgt, enc, lex
    return out
