"""Shared text I/O: data errors on read, atomic replacement on write."""

import ast
import os
from pathlib import Path

import pytest

from pivotmine import textio
from pivotmine.errors import DataError
from pivotmine.textio import (
    read_bytes, read_table, read_text, write_bytes, write_json, write_lines, write_text,
)


class TestRead:
    def test_missing_and_undecodable_files_are_data_errors(self, tmp_path):
        with pytest.raises(DataError):
            read_text(tmp_path / "absent.txt")
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("caf\xe9\n".encode("latin-1"))
        with pytest.raises(DataError):
            read_text(latin1)

    def test_missing_binary_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError):
            read_bytes(tmp_path / "absent.lex")
        path = write_bytes(tmp_path / "table.lex", b"\xff\x00\n\r\n")
        assert read_bytes(path) == b"\xff\x00\n\r\n"

    def test_lines_end_only_at_newlines(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes("a\u2028b\x85c\vd\fe\x1cf\x1dg\x1eh\u2029i\nj\r\nk\rl".encode())
        assert read_text(path) == "a\u2028b\x85c\vd\fe\x1cf\x1dg\x1eh\u2029i\nj\nk\nl"

    def test_lines_are_read_through_the_given_read(self):
        calls = []

        def read(path):
            calls.append(path)
            return b"a\r\nb\rc\n"

        assert read_text("any.txt", read) == "a\nb\nc\n"
        assert calls == ["any.txt"]
        with pytest.raises(DataError, match="^cannot read bad.txt: 'utf-8' codec"):
            read_text("bad.txt", lambda path: b"\xff")

    @pytest.mark.parametrize(
        "text, lines",
        [("", []), ("\n", [""]), ("a\n", ["a"]), ("a\r\n\n", ["a", ""])],
    )
    def test_written_lines_end_with_a_newline(self, text, lines):
        head, rows = read_table("t.tsv", 1, "h", lambda path: ("h\n" + text).encode())
        assert head == ["h"]
        assert list(rows) == [(number, [line]) for number, line in enumerate(lines, 2)]

    @pytest.mark.parametrize("text, line", [("a", 1), ("a\nb", 2), ("a\n\nb\tc", 3)])
    def test_written_lines_cut_short_are_a_data_error(self, text, line):
        with pytest.raises(DataError, match=f"^t.tsv line {line}: no final newline"):
            read_table("t.tsv", None, "a", lambda path: text.encode())


# (text, columns, header, the header's cells, rows): a header marks a table
# the package wrote, whose cells are kept as written; without one, lines and
# cells are stripped, and blank and # lines are skipped but keep their numbers
TABLES = [
    ("h\tx\n1\t2\n", None, "h", ["h", "x"], [(2, ["1", "2"])]),
    ("h\tx\r\n1\t2\r\n3\t4\r", None, "h", ["h", "x"], [(2, ["1", "2"]), (3, ["3", "4"])]),
    ("h\tx\n \t1\u2028\n", 2, "h", ["h", "x"], [(2, [" ", "1\u2028"])]),
    ("h\tx\n#\t\xa0a\x85\n", None, "h", ["h", "x"], [(2, ["#", "\xa0a\x85"])]),
    ("# c\n\n  a\t b \n\t\n  # x\ty\nc\td", 2, None, [], [(3, ["a", "b"]), (6, ["c", "d"])]),
    ("a\tb\r\n#\r\n\rc\td\r", 2, None, [], [(1, ["a", "b"]), (4, ["c", "d"])]),
    ("\xa0a\u2028\t\x85b\u2028\n", 2, None, [], [(1, ["a", "b"])]),
    ("", 1, None, [], []),
]

# (text, columns, header, error)
REFUSED = [
    ("", None, "h", "line 1: not a table with the header 'h'"),
    ("x\th\n", None, "h", "line 1: not a table with the header 'h'"),
    (" h\n", None, "h", "line 1: not a table with the header 'h'"),
    ("h\n1\t2\n", 2, "h", "line 1: expected 2 cells, found 1"),
    ("h\tx\n1\n", None, "h", "line 2: expected 2 cells, found 1"),
    ("h\tx\n1\t2\n\n", None, "h", "line 3: expected 2 cells, found 1"),
    ("h\tx\n# c\n", None, "h", "line 2: expected 2 cells, found 1"),
    ("h\n1\t2\n", 1, "h", "line 2: expected 1 cells, found 2"),
    ("# c\n\na\tb\tc\n", 2, None, "line 3: expected 2 cells, found 3"),
    ("a\n\tb\tc\n", 1, None, "line 2: expected 1 cells, found 2"),
]


class TestReadTable:
    @pytest.mark.parametrize("text, columns, header, head, rows", TABLES)
    def test_rows(self, text, columns, header, head, rows):
        read_head, read_rows = read_table("t.tsv", columns, header, lambda path: text.encode())
        assert (read_head, list(read_rows)) == (head, rows)

    @pytest.mark.parametrize("text, columns, header, error", REFUSED)
    def test_refused(self, text, columns, header, error):
        with pytest.raises(DataError, match=f"^t.tsv {error}$"):
            list(read_table("t.tsv", columns, header, lambda path: text.encode())[1])

    def test_rows_are_checked_as_they_are_read(self):
        head, rows = read_table("t.tsv", None, "h", lambda path: b"h\tx\n1\t2\n3\n")
        assert next(rows) == (2, ["1", "2"])
        with pytest.raises(DataError, match="^t.tsv line 3: expected 2 cells, found 1$"):
            next(rows)

    def test_reads_through_the_given_read(self, tmp_path):
        path = write_lines(tmp_path / "t.tsv", ["h\tx", "1\t2"])
        head, rows = read_table(path, 2, "h")
        assert (head, list(rows)) == (["h", "x"], [(2, ["1", "2"])])
        with pytest.raises(DataError, match="^cannot read bad.tsv: 'utf-8' codec"):
            read_table("bad.tsv", 1, read=lambda path: b"\xff")


def file_access_calls(tree: ast.AST) -> list[int]:
    """Lines of the calls to open() and of the calls of a method named
    open, read_text or read_bytes."""
    return sorted(
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Call) and (
            isinstance(n.func, ast.Name) and n.func.id == "open"
            or isinstance(n.func, ast.Attribute)
            and n.func.attr in ("open", "read_text", "read_bytes")
        )
    )


class TestOneReadPath:
    """Only textio opens files, so every reader reads through read_bytes,
    or through the run's recorder that calls it, and a run lists each
    input it reads once."""

    def test_only_textio_opens_files(self):
        package = Path(textio.__file__).parent
        found = {}
        for path in sorted(package.glob("*.py")):
            if path.name == "textio.py":
                continue
            lines = file_access_calls(ast.parse(path.read_text(encoding="utf-8")))
            if lines:
                found[path.name] = lines
        assert found == {}

    def test_guard_finds_file_access(self):
        code = """
Path(p).read_text(encoding="utf-8")
with open(p, "rb") as fh:
    data = p.read_bytes()
p.open()
read_bytes(p)
"""
        assert file_access_calls(ast.parse(code)) == [2, 3, 4, 5]


class TestAtomicWrite:
    def test_failed_replace_keeps_old_file_and_leaves_no_temp(
        self, tmp_path, monkeypatch
    ):
        path = write_lines(tmp_path / "artifact.tsv", ["old"])

        def fail(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            write_text(path, "new\n")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.tsv"]

    def test_permissions_follow_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            path = write_text(tmp_path / "artifact.txt", "x")
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o640

    def test_text_writers_write_utf8_bytes_through_write_bytes(self, tmp_path):
        # a writer writes through the write it is given, and that write's
        # path is what it returns
        written = []

        def spy(path, data):
            written.append(data)
            return write_bytes(path, data)

        text = "caf\xe9\r\n\u2028\t"
        path = write_text(tmp_path / "a.txt", text, spy)
        assert path.read_bytes() == text.encode("utf-8") == written[-1]
        path = write_lines(tmp_path / "a.tsv", ["x\ty", "\u03c3"], spy)
        assert path.read_bytes() == "x\ty\n\u03c3\n".encode("utf-8") == written[-1]
        path = write_json(tmp_path / "a.json", {"b": 1, "a": "\xe9"}, spy)
        assert path.read_bytes() == b'{\n  "a": "\\u00e9",\n  "b": 1\n}\n' == written[-1]
