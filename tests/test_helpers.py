"""The shared test helpers that stand in for package code."""

import pytest

from helpers import read_lines


class TestReadLines:
    @pytest.mark.parametrize(
        "text, lines",
        [("", []), ("\n", [""]), ("a", ["a"]), ("a\n", ["a"]), ("a\n\n", ["a", ""])],
    )
    def test_final_newline_ends_the_last_line(self, tmp_path, text, lines):
        path = tmp_path / "lines.txt"
        path.write_bytes(text.encode())
        assert read_lines(path) == lines
