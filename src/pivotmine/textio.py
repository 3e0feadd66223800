"""Text and binary file I/O shared by every reader and writer of the package.

Reads turn a missing or undecodable file into DataError, so a bad input
path is a data problem (exit code 3) rather than a traceback. Writes go to
a temporary file in the destination directory that is then renamed over
the destination, so a reader never sees a partly written file. Every
tab-separated table is parsed by read_table, so each reader keeps only the
conversion of its cells, and every JSON input (a config, a synth spec,
head.json) by read_json. Every reader takes a Reader and every writer a
Writer: read_bytes and write_bytes by default, a run's RunRecorder.read
and write_output in the CLI, which record each input and output with the
sha256 of its bytes.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

from .errors import DataError

# What a reader reads a file through: read_bytes, or a run's RunRecorder.read
Reader = Callable[[str | Path], bytes]
# What a writer writes a file through: write_bytes, or a run's
# RunRecorder.write_output
Writer = Callable[[str | Path, bytes], Path]


def read_bytes(path: str | Path) -> bytes:
    """Whole file; DataError when it cannot be opened."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_text(path: str | Path, read: Reader = read_bytes) -> str:
    """Whole UTF-8 file, read through read, with CRLF and CR turned into
    LF; DataError when it cannot be read or decoded."""
    try:
        text = read(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"number {literal} overflows a float")
    return value


def _float_sized_int(literal: str) -> int:
    value = int(literal)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"an integer of {len(literal)} digits overflows a float") from None
    return value


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} given twice")
        obj[key] = value
    return obj


def read_json(path: str | Path, read: Reader = read_bytes):
    """The JSON value in a UTF-8 file, read through read_text, held to
    standard JSON (RFC 8259): ValueError for text that is not JSON, for
    NaN, Infinity and -Infinity, for a number a float cannot hold, and for
    an object that gives a key twice."""
    return json.loads(
        read_text(path, read), parse_float=_finite_float, parse_int=_float_sized_int,
        parse_constant=_refuse_constant, object_pairs_hook=_unique_keys,
    )


def read_table(
    path: str | Path, columns: int | None, header: str | None = None, read: Reader = read_bytes
) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The header's cells and the rows of a tab-separated UTF-8 file, read
    through read; each row is its line number and its cells.

    With a header, the file is one the package wrote: line 1's first cell
    must be header, the file must end with the newline its writer always
    writes, and every later line is a row whose cells are kept as written.
    Without one, the file is one that people write: no final newline is
    needed, each line and each cell is stripped of surrounding whitespace,
    and a line that is then empty or starts with # is skipped.

    The header and every row must have columns cells, or as many as the
    header when columns is None. Each DataError names the path and the
    line. The header is checked at once, and each row as it is iterated, so
    a reader converts the rows in the same single pass and holds no split
    lines.
    """
    lines = read_text(path, read).split("\n")
    if header is None:
        return [], _table_rows(path, enumerate(lines, 1), columns, True)
    if lines.pop():
        raise DataError(f"{path} line {len(lines) + 1}: no final newline, the file is cut short")
    head = lines[0].split("\t") if lines else []
    if head[:1] != [header]:
        raise DataError(f"{path} line 1: not a table with the header {header!r}")
    width = len(head) if columns is None else columns
    if len(head) != width:
        raise DataError(f"{path} line 1: expected {width} cells, found {len(head)}")
    return head, _table_rows(path, enumerate(lines[1:], 2), width, False)


def _table_rows(
    path: str | Path, numbered: Iterable[tuple[int, str]], width: int, strip: bool
) -> Iterator[tuple[int, list[str]]]:
    """read_table's rows of numbered lines, split and checked one by one."""
    for number, line in numbered:
        if strip:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = [cell.strip() for cell in line.split("\t")]
        else:
            cells = line.split("\t")
        if len(cells) != width:
            raise DataError(f"{path} line {number}: expected {width} cells, found {len(cells)}")
        yield number, cells


def write_bytes(path: str | Path, data: bytes) -> Path:
    """Atomically replace path with data.

    The temporary name carries the process id, so two processes writing
    the same path (say, runs sharing an alignment cache) never write into
    one temporary file. It is opened with plain open() so the result gets
    the usual umask-derived permissions.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_text(path: str | Path, text: str, write: Writer = write_bytes) -> Path:
    """Replace path with text (UTF-8), written through write."""
    return write(path, text.encode("utf-8"))


def write_lines(path: str | Path, lines, write: Writer = write_bytes) -> Path:
    """Write lines joined by newlines, with a final newline, through write."""
    return write_text(path, "\n".join(lines) + "\n", write)


def write_json(path: str | Path, obj, write: Writer = write_bytes) -> Path:
    """Write obj as indented, key-sorted JSON with a final newline, through
    write."""
    return write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n", write)


def remove_stale(directory: Path, pattern: str, keep: set[Path]) -> None:
    """Create directory and delete its files that match pattern and are
    not in keep: an earlier run's outputs that this run does not write."""
    directory.mkdir(parents=True, exist_ok=True)
    for stale in set(directory.glob(pattern)) - keep:
        stale.unlink()
