"""Text and binary file I/O shared by every reader and writer of the package.

Reads turn a missing or undecodable file into DataError, so a bad input
path is a data problem (exit code 3) rather than a traceback. Writes go to
a temporary file in the destination directory that is then renamed over
the destination, so a reader never sees a partly written file. Each file
format keeps its own parse loop; only the file access lives here.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from pathlib import Path

from .errors import DataError

# What a reader reads a file through: read_bytes, or a run's RunRecorder.read
Reader = Callable[[str | Path], bytes]


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


def read_lines(path: str | Path, read: Reader = read_bytes) -> list[str]:
    """Lines of a UTF-8 file, read through read, without their line endings.

    A line ends at LF, CRLF or CR. Other characters that str.splitlines
    breaks at, such as U+2028 or a form feed, stay inside the line.
    """
    lines = read_text(path, read).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


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


def write_text(path: str | Path, text: str) -> Path:
    """Atomically replace path with text (UTF-8)."""
    return write_bytes(path, text.encode("utf-8"))


def write_lines(path: str | Path, lines) -> Path:
    """Write lines joined by newlines, with a final newline."""
    return write_text(path, "\n".join(lines) + "\n")


def write_json(path: str | Path, obj) -> Path:
    """Write obj as indented, key-sorted JSON with a final newline."""
    return write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def remove_stale(directory: Path, pattern: str, keep: set[Path]) -> None:
    """Create directory and delete its files that match pattern and are
    not in keep: an earlier run's outputs that this run does not write."""
    directory.mkdir(parents=True, exist_ok=True)
    for stale in set(directory.glob(pattern)) - keep:
        stale.unlink()
