"""The code-line counter: comments, blank lines and docstrings do not count."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# A comment line.
import os  # a trailing comment keeps its line


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return (self.size
                * 2)
'''


def test_only_lines_with_code_count():
    # import, class, size, def, the two-line string, the two-line return.
    assert code_lines.code_lines(SOURCE) == 8


def test_the_command_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        f"8 {tmp_path / 'a.py'}\n1 {tmp_path / 'b.py'}\n9 total\n"
    )
