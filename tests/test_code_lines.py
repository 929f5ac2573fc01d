"""``scripts/code_lines.py`` counts the lines that hold code: not blank lines,
not comments, not docstrings; a multi-line string that is not a docstring
counts on every line."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "code_lines.py")

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment


# A comment line.
class A(object):
    """A class docstring."""

    def f(self):
        """A function docstring,
        over two lines.
        """
        text = """a string
that is not a docstring"""
        """Not a docstring either: it does not open the body."""
        return os.path.join(text, "x")
'''

# import, class, def, the two lines of the assigned string, the bare string
# after it, return.
SOURCE_CODE_LINES = 7


@pytest.fixture(scope="module")
def counter():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_but_not_comments_or_docstrings(counter):
    assert counter.code_lines(SOURCE) == SOURCE_CODE_LINES


def test_a_comment_sign_inside_a_string_is_code(counter):
    assert counter.code_lines('marker = "# not a comment"\n# a comment\n') == 1


def test_an_async_function_docstring_is_not_code(counter):
    source = 'async def f():\n    """A docstring."""\n    return 1\n'
    assert counter.code_lines(source) == 2


def test_the_command_refuses_a_missing_directory(counter, tmp_path, capsys):
    with pytest.raises(SystemExit):
        counter.main([str(tmp_path / "missing")])
    assert "not a directory" in capsys.readouterr().err


def test_the_command_prints_one_row_per_tree(counter, tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    (first / "package").mkdir(parents=True)
    second.mkdir()
    (first / "a.py").write_text(SOURCE)
    (first / "package" / "b.py").write_text("x = 1\n")
    (first / "notes.txt").write_text("x = 1\n")
    (second / "c.py").write_text('"""Only a docstring."""\n')
    assert counter.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "%d %s" % (SOURCE_CODE_LINES + 1, first),
        "0 %s" % second,
    ]
