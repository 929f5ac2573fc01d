"""No module of the library reads another module's private fields.

The test parses every module under ``src/repro`` and reports each place
where code reaches a ``_private`` name through something other than ``self``,
``cls`` or a class defined in the same file:

* attribute access ``X._name`` (read, write or call), and
* ``getattr`` / ``hasattr`` / ``setattr`` / ``delattr`` with a ``"_name"``
  string literal.

Dunder names (``__class__``, ``__name__`` ...) are public protocol, not
private fields.  There is no allowlist: a module that needs another's state
must go through a public name.
"""

import ast
import os

import pytest

SOURCE_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")

REFLECTION_FUNCTIONS = ("getattr", "hasattr", "setattr", "delattr")


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module_paths():
    for directory, _subdirectories, files in os.walk(SOURCE_ROOT):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def reach_ins(source, filename="<source>"):
    """``(line, text)`` of every private reach-in in one module's source."""
    tree = ast.parse(source, filename)
    owners = {"self", "cls"} | {
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }

    def owned(node):
        return isinstance(node, ast.Name) and node.id in owners

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if _is_private(node.attr) and not owned(node.value):
                found.append((node.lineno, ast.unparse(node)))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in REFLECTION_FUNCTIONS
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and _is_private(node.args[1].value)
            and not owned(node.args[0])
        ):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_the_scan_covers_the_library():
    paths = list(_module_paths())
    assert len(paths) > 40
    assert any(path.endswith(os.path.join("core", "protocol.py")) for path in paths)


REACH_INS = {
    "attribute-read": "def f(other):\n    return other._hidden\n",
    "attribute-write": "def f(other):\n    other._hidden = 1\n",
    "through-own-field": "class A(object):\n    def f(self):\n        return self._queue._heap\n",
    "getattr": "def f(other):\n    return getattr(other, '_hidden', None)\n",
    "hasattr": "def f(other):\n    return hasattr(other.log, '_recorded')\n",
    "setattr": "def f(other):\n    setattr(other, '_hidden', 1)\n",
}

OWN_OR_PUBLIC = {
    "self": "class A(object):\n    def f(self):\n        return self._own\n",
    "cls": "class A(object):\n    @classmethod\n    def f(cls):\n        return cls._own\n",
    "same-file-class": "class A(object):\n    _table = {}\n\ndef f():\n    return A._table\n",
    "dunder-and-public": "def f(other):\n    return other.__class__, other.public\n",
    "public-getattr": "def f(other):\n    return getattr(other, 'public', None)\n",
}


@pytest.mark.parametrize("case", sorted(REACH_INS))
def test_the_scan_catches_reach_ins(case):
    assert reach_ins(REACH_INS[case])


@pytest.mark.parametrize("case", sorted(OWN_OR_PUBLIC))
def test_the_scan_allows_own_and_public_names(case):
    assert reach_ins(OWN_OR_PUBLIC[case]) == []


def test_no_module_reads_another_modules_private_fields():
    violations = []
    for path in _module_paths():
        with open(path) as handle:
            source = handle.read()
        relative = os.path.relpath(path, SOURCE_ROOT)
        for line, text in reach_ins(source, path):
            violations.append("%s:%d: %s" % (relative, line, text))
    assert violations == []
