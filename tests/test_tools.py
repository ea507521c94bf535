import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    source = '''"""A module docstring
over two lines."""

# a comment


class Record:
    """A class docstring."""

    def method(self):
        """A function docstring
        over two lines.
        """
        return 1  # a trailing comment
'''
    # class, def and return
    assert code_lines.code_lines(source) == 3


def test_code_lines_counts_every_line_of_a_string_and_of_a_continued_statement():
    source = '''def f():
    """Skipped."""
    text = """one
two
three"""
    total = (1 +
             2
             + 3)
    return text, \\
        total
'''
    # def, three string lines, three lines of total and two of return
    assert code_lines.code_lines(source) == 9


def test_main_lists_every_module_once_with_their_sum_as_the_total(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(path.name for path in code_lines.PACKAGE.glob("*.py"))
    assert [name for _, name in rows[:-1]] == modules
    assert "__init__.py" in modules and "dynamics.py" in modules
    for count, name in rows[:-1]:
        assert int(count) == code_lines.code_lines((code_lines.PACKAGE / name).read_text())
    assert rows[-1] == [str(sum(int(count) for count, _ in rows[:-1])), "total"]
