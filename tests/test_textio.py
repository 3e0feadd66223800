"""Shared text I/O: data errors on read, atomic replacement on write."""

import os

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

    @pytest.mark.parametrize(
        "text, lines",
        [("", []), ("\n", [""]), ("a", ["a"]), ("a\n", ["a"]), ("a\n\n", ["a", ""])],
    )
    def test_final_newline_ends_the_last_line(self, tmp_path, text, lines):
        path = tmp_path / "lines.txt"
        path.write_bytes(text.encode())
        assert read_lines(path) == lines


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
