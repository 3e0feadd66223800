"""Shared text I/O: data errors on read, atomic replacement on write."""

import ast
import os
from pathlib import Path

import pytest

from pivotmine import textio
from pivotmine.errors import DataError
from pivotmine.textio import read_bytes, read_lines, write_bytes, write_json, write_lines, write_text


class TestRead:
    def test_missing_and_undecodable_files_are_data_errors(self, tmp_path):
        with pytest.raises(DataError):
            read_lines(tmp_path / "absent.txt")
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("caf\xe9\n".encode("latin-1"))
        with pytest.raises(DataError):
            read_lines(latin1)

    def test_missing_binary_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError):
            read_bytes(tmp_path / "absent.lex")
        path = write_bytes(tmp_path / "table.lex", b"\xff\x00\n\r\n")
        assert read_bytes(path) == b"\xff\x00\n\r\n"

    def test_lines_end_only_at_newlines(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes("a\u2028b\x85c\vd\fe\x1cf\x1dg\x1eh\u2029i\nj\r\nk\rl".encode())
        assert read_lines(path) == ["a\u2028b\x85c\vd\fe\x1cf\x1dg\x1eh\u2029i", "j", "k", "l"]

    def test_lines_are_read_through_the_given_read(self):
        calls = []

        def read(path):
            calls.append(path)
            return b"a\r\nb\rc\n"

        assert read_lines("any.txt", read) == ["a", "b", "c"]
        assert calls == ["any.txt"]
        with pytest.raises(DataError, match="^cannot read bad.txt: 'utf-8' codec"):
            read_lines("bad.txt", lambda path: b"\xff")

    @pytest.mark.parametrize(
        "text, lines",
        [("", []), ("\n", [""]), ("a", ["a"]), ("a\n", ["a"]), ("a\n\n", ["a", ""])],
    )
    def test_final_newline_ends_the_last_line(self, tmp_path, text, lines):
        path = tmp_path / "lines.txt"
        path.write_bytes(text.encode())
        assert read_lines(path) == lines


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
    input it reads once. manifest.file_sha256 also opens files: it hashes
    the outputs."""

    def test_only_textio_opens_files(self):
        package = Path(textio.__file__).parent
        found = {}
        for path in sorted(package.glob("*.py")):
            if path.name == "textio.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exempt = {
                line for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef)
                and (path.name, fn.name) == ("manifest.py", "file_sha256")
                for line in range(fn.lineno, fn.end_lineno + 1)
            }
            lines = [n for n in file_access_calls(tree) if n not in exempt]
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

    def test_text_writers_write_utf8_bytes_through_write_bytes(self, tmp_path, monkeypatch):
        written = []

        def spy(path, data):
            written.append(data)
            return write_bytes(path, data)

        monkeypatch.setattr(textio, "write_bytes", spy)
        text = "caf\xe9\r\n\u2028\t"
        path = write_text(tmp_path / "a.txt", text)
        assert path.read_bytes() == text.encode("utf-8") == written[-1]
        path = write_lines(tmp_path / "a.tsv", ["x\ty", "\u03c3"])
        assert path.read_bytes() == "x\ty\n\u03c3\n".encode("utf-8") == written[-1]
        path = write_json(tmp_path / "a.json", {"b": 1, "a": "\xe9"})
        assert path.read_bytes() == b'{\n  "a": "\\u00e9",\n  "b": 1\n}\n' == written[-1]
