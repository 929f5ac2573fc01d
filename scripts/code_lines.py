#!/usr/bin/env python
"""Count the lines of Python code in source trees, without comments and docstrings.

A line counts when it holds a token of code: blank lines, comment lines and
the lines of a docstring (the leading string of a module, class or function
body) do not.  A string that is not a docstring is code, and every line of
a multi-line one counts.  The simplicity bars of ``ROADMAP.md`` use this
count.

Usage::

    python scripts/code_lines.py src/repro [DIR ...]

prints one ``<lines> <DIR>`` row per tree.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

NOT_CODE = frozenset(
    (
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    )
)


def docstring_lines(tree):
    """The line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of ``source`` that hold code."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in NOT_CODE:
            continue
        if token.type == tokenize.STRING and token.start[0] in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def tree_code_lines(root):
    """The code lines of every ``.py`` file under ``root``."""
    total = 0
    for directory, _subdirectories, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name)) as handle:
                    total += code_lines(handle.read())
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directories", nargs="+", metavar="DIR")
    arguments = parser.parse_args(argv)
    for directory in arguments.directories:
        if not os.path.isdir(directory):
            parser.error("not a directory: %s" % directory)
        print("%d %s" % (tree_code_lines(directory), directory))
    return 0


if __name__ == "__main__":
    sys.exit(main())
