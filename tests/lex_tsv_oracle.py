"""The `lex-tsv-2` alignment-cache table, as a reference for the binary one.

The writer and reader that aligner.save_lex_table and load_lex_table had
before the cache became binary: one ``source<TAB>target<TAB>repr(p)`` line
per cell in cell order, under a header with the key and the EM
log-likelihoods and above a ``# cells=N`` footer. The binary round trip is
tested to give the same probabilities and log-likelihoods as this one.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

import numpy as np

from helpers import read_lines
from pivotmine.aligner import NULL_SURFACE, ROW_SUM_TOLERANCE, LexTable, PairEncoding
from pivotmine.errors import DataError
from pivotmine.textio import write_lines

TSV_FORMAT = "lex-tsv-2"


def cell_names(enc: PairEncoding) -> Iterator[str]:
    """``source<TAB>target`` of every cell of enc, in cell order."""
    src = [NULL_SURFACE, *enc.src_words[1:]]
    tgt = enc.tgt_words
    return (f"{src[e]}\t{tgt[f]}" for e, f in zip(enc.cell_src.tolist(), enc.cell_tgt.tolist()))


def save_lex_table(lex: LexTable, path: Path, key: str) -> None:
    lls = ",".join(repr(x) for x in lex.log_likelihoods)
    lines = [f"# {TSV_FORMAT} key={key} lls={lls}"]
    lines += [f"{name}\t{p!r}" for name, p in zip(cell_names(lex.enc), lex.probs.tolist())]
    lines.append(f"# cells={len(lines) - 1}")
    write_lines(path, lines)


def load_lex_table(path: Path, key: str, enc: PairEncoding) -> LexTable | None:
    """The table, or None when missing, stale or corrupt (a line does not
    parse, the footer is wrong, the cells are not enc's, or a row does not
    sum to 1)."""
    try:
        lines = read_lines(path)
    except DataError:
        return None
    prefix = f"# {TSV_FORMAT} key={key} lls="
    if not lines or not lines[0].startswith(prefix):
        return None
    try:
        lls_text = lines[0][len(prefix) :]
        lls = [float(x) for x in lls_text.split(",")] if lls_text else []
        body = [line for line in lines[1:] if line]
        if not body or body[-1] != f"# cells={len(body) - 1}":
            return None
        names, values = [], []
        for line in body[:-1]:
            name, _, value = line.rpartition("\t")
            names.append(name)
            values.append(float(value))
        if names != list(cell_names(enc)):
            return None
        probs = np.array(values)
        sums = np.bincount(enc.cell_src, probs)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOLERANCE):
            return None
    except ValueError:
        return None
    return LexTable(enc, probs, lls)
