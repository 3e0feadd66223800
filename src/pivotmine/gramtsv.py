"""The n-gram TSV: the ranked grams of one target, as mine-ngrams writes
them and eval-mrr reads them.

Its rows are ``n rank gram pos neg chi2`` under a header row. A gram cell
makes spaces and tabs visible, so a gram reads back as it was mined. The
module imports no numpy, so a command that only reads these files (say,
eval-mrr) starts without it.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DataError
from .textio import Reader, Writer, read_bytes, read_table, write_bytes, write_lines

if TYPE_CHECKING:
    from .ngrams import MiningResult

GRAM_SPACE_ESCAPE = "␣"  # open box, stands in for a literal space

_GRAM_ESCAPES = str.maketrans({
    " ": GRAM_SPACE_ESCAPE,
    "\t": "\\t",
    "\\": "\\\\",
    GRAM_SPACE_ESCAPE: "\\" + GRAM_SPACE_ESCAPE,
})
_UNESCAPES = {"t": "\t", "\\": "\\", GRAM_SPACE_ESCAPE: GRAM_SPACE_ESCAPE, None: " "}
_ESCAPED_RE = re.compile(rf"\\([\\t{GRAM_SPACE_ESCAPE}])|{GRAM_SPACE_ESCAPE}")


def escape_gram(gram: str) -> str:
    """Make a gram safe for a TSV cell (spaces and tabs made visible).

    A space becomes ``␣`` and a tab ``\\t``; a literal backslash or ``␣``
    is escaped with a backslash, so every cell reads back to its gram.
    """
    return gram.translate(_GRAM_ESCAPES)


def unescape_gram(cell: str) -> str:
    """Invert escape_gram; a backslash before any other character stays."""
    return _ESCAPED_RE.sub(lambda m: _UNESCAPES[m.group(1)], cell)


def write_ngrams_tsv(
    result: MiningResult, path: str | Path, write: Writer = write_bytes
) -> Path:
    """Write ``n rank gram pos neg chi2`` rows for every ranked gram,
    through write."""
    lines = ["n\trank\tgram\tpos\tneg\tchi2"]
    for n in sorted(result.by_n):
        for cand in result.by_n[n]:
            lines.append(
                f"{n}\t{cand.rank}\t{escape_gram(cand.gram)}\t"
                f"{cand.pos_count}\t{cand.neg_count}\t{format(cand.score, '.10g')}"
            )
    return write_lines(path, lines, write)


def read_ngrams_tsv(path: str | Path, read: Reader = read_bytes) -> dict[int, list[str]]:
    """Ranked gram lists per n, as written by write_ngrams_tsv.

    Raises DataError, naming the path and the line, for a table read_table
    refuses, a row without integer n, rank, pos and neg and a float chi2,
    an n below the row before's, or ranks that do not count up 1, 2, 3, ...
    within each n (a doubled or dropped row).
    """
    out: dict[int, list[str]] = {}
    for number, (n, rank, gram, pos, neg, chi2) in read_table(path, 6, "n", read)[1]:
        where = f"{path} line {number}"
        try:
            n, rank = int(n), int(rank)
            int(pos), int(neg), float(chi2)  # checked, not kept
        except ValueError as exc:
            raise DataError(f"{where}: malformed n-gram line: {exc}") from None
        last = next(reversed(out), n)  # the largest n so far
        if n < last:
            raise DataError(f"{where}: n {n} after n {last}")
        grams = out.setdefault(n, [])
        if rank != len(grams) + 1:
            raise DataError(f"{where}: rank {rank} where {len(grams) + 1} was due")
        grams.append(unescape_gram(gram))
    return out
