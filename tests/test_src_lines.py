"""The counts of ``tools/src_lines.py`` on a small synthetic module."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import src_lines  # noqa: E402

MODULE = '''"""Module docstring,
over two lines."""
import math

# a comment line


class Box:
    """Class docstring."""

    size = 2  # a trailing comment keeps the line

    def area(self):
        """Method docstring,

        with a blank line inside."""
        text = """a string that
        is not a docstring"""
        return (self.size
                * math.pi), text
'''


def test_counts_lines_and_code_lines():
    # code: import, class, size, def, the two lines of text and of return
    assert src_lines.count(MODULE) == (20, 8)
    assert src_lines.count("") == (0, 0)


def test_totals_are_the_row_sums(tmp_path):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    rows = src_lines.table(tmp_path)
    assert rows == [("a.py", 20, 8), ("b.py", 3, 1), ("total", 23, 9)]


def test_prints_the_table(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\n")
    assert src_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["b.py", "1", "1"]
    assert lines[-1].split() == ["total", "1", "1"]
