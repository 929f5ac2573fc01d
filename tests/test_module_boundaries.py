"""No module of the library reads another module's private fields, and no
module or class body anywhere in the repo defines one name twice.

The first test parses every module under ``src/repro`` and reports each place
where code reaches a ``_private`` name through something other than ``self``,
``cls`` or a class defined in the same file:

* attribute access ``X._name`` (read, write or call), and
* ``getattr`` / ``hasattr`` / ``setattr`` / ``delattr`` with a ``"_name"``
  string literal.

Dunder names (``__class__``, ``__name__`` ...) are public protocol, not
private fields.  There is no allowlist: a module that needs another's state
must go through a public name.

The second parses every Python file under ``src/``, ``tests/``,
``benchmarks/``, ``examples/`` and ``scripts/`` and reports each function or
class that a later definition in the same module or class body shadows: the
first copy is dead code, and a shadowed test never runs.  Property setters
and deleters reuse their getter's name on purpose and are exempt.

The third parses the same files and reports each imported name that its
module never uses, as the lint job's ``ruff check`` (rule F401) would, so a
deletion that leaves a stale import fails here too.  A package's
``__init__.py`` imports to re-export, and a name listed in ``__all__`` is
exported, so both are exempt.

The fourth reports each function, method or class under ``src/repro`` whose
name nothing outside the tests reads: not the library itself, the examples,
the benchmarks, ``perfbench/`` or the scripts.  Such a definition is dead
code that only its own tests keep alive.  Names are matched without types.
A name a package lists in ``__all__`` is not read by being listed: what a
package exports and only the tests import is still dead.  A method (a
function defined in a class body) is read only through an attribute load
(``x.name``) or a ``getattr``-style string: a bare name, such as a local
variable that happens to share it, does not keep it alive.  The
definitions that the tests of other modules use as fixtures are listed,
with the reason, in ``TEST_FIXTURES``.

The fifth reports each attribute that code under ``src/repro`` stores on
``self`` and that nothing reads: no ``.name`` load anywhere under ``src/``,
``tests/``, ``benchmarks/``, ``examples/``, ``perfbench/`` or ``scripts/``.
A stored value nobody reads costs its store on every construction and one
more fact to keep in step.  An augmented assignment (``self.n += 1``) stores
and is not a read.  Names are matched without types, as in the fourth test,
and the tests count as readers: some values exist only to be asserted on.

The seventh reports each class under ``src/repro`` that is a hand-written
record: its only methods are an ``__init__`` that stores each of its
parameters on ``self`` unchanged and does nothing else, plus any of
``__repr__``, ``as_dict`` and ``__bool__``.  A ``collections.namedtuple``
subclass with ``__slots__ = ()`` gives the constructor, the repr and
``_asdict`` for free, and keeps a ``__bool__`` of its own.

The sixth reports each defaulted parameter of a function, method or class
under ``src/repro`` that no call in ``src/``, ``tests/``, ``benchmarks/``,
``examples/``, ``perfbench/`` or ``scripts/`` passes, by keyword or by
position.  Such an option has one value in use and should be a constant.
Callees are matched by name, as in the fourth test: ``x.f(...)`` calls every
``f``; ``table[key](...)`` calls every name a ``table = {...}`` dictionary
maps to; ``super().__init__(...)`` calls the enclosing class's bases; and
the call of a class that inherits its ``__init__`` counts for the base that
defines it.  A ``*`` or ``**`` argument passes only what it spells out (a
list, tuple or dict display), so an option that only forwarded ``**kwargs``
reach is reported.  The exceptions are listed, with the reason, in
``UNSET_PARAMETERS``.
"""

import ast
import os

import pytest

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SOURCE_ROOT = os.path.join(REPO_ROOT, "src", "repro")
CHECKED_DIRECTORIES = ("src", "tests", "benchmarks", "examples", "scripts")

REFLECTION_FUNCTIONS = ("getattr", "hasattr", "setattr", "delattr")


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module_paths(root=SOURCE_ROOT):
    for directory, _subdirectories, files in os.walk(root):
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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_accessor(node):
    """A property setter or deleter, which reuses its getter's name."""
    return any(
        isinstance(decorator, ast.Attribute) and decorator.attr in ("setter", "deleter")
        for decorator in node.decorator_list
    )


def shadowed_definitions(source, filename="<source>"):
    """``(line, name, first line)`` of every function or class that a later
    definition in the same module or class body shadows."""
    tree = ast.parse(source, filename)
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found = []
    for scope in scopes:
        first_lines = {}
        for node in scope.body:
            if not isinstance(node, DEFINITIONS) or _is_accessor(node):
                continue
            if node.name in first_lines:
                found.append((node.lineno, node.name, first_lines[node.name]))
            else:
                first_lines[node.name] = node.lineno
    return sorted(found)


SHADOWED = {
    "module-function": "def f():\n    pass\n\ndef f():\n    pass\n",
    "module-class": "class A(object):\n    pass\n\nclass A(object):\n    pass\n",
    "method": "class A(object):\n    def f(self):\n        pass\n    def f(self):\n        pass\n",
    "nested-class-method": (
        "class A(object):\n    class B(object):\n        def f(self):\n            pass\n"
        "        def f(self):\n            pass\n"
    ),
}

DISTINCT = {
    "property-accessors": (
        "class A(object):\n    @property\n    def x(self):\n        return 1\n"
        "    @x.setter\n    def x(self, value):\n        pass\n"
        "    @x.deleter\n    def x(self):\n        pass\n"
    ),
    "same-name-in-two-classes": (
        "class A(object):\n    def f(self):\n        pass\n\n"
        "class B(object):\n    def f(self):\n        pass\n"
    ),
    "conditional-variants": (
        "import sys\nif sys.maxsize:\n    def f():\n        pass\n"
        "else:\n    def f():\n        pass\n"
    ),
}


@pytest.mark.parametrize("case", sorted(SHADOWED))
def test_the_scan_catches_shadowed_definitions(case):
    assert shadowed_definitions(SHADOWED[case])


@pytest.mark.parametrize("case", sorted(DISTINCT))
def test_the_scan_allows_distinct_definitions(case):
    assert shadowed_definitions(DISTINCT[case]) == []


def test_no_module_or_class_defines_a_name_twice():
    violations = []
    for directory in CHECKED_DIRECTORIES:
        for path in _module_paths(os.path.join(REPO_ROOT, directory)):
            with open(path) as handle:
                source = handle.read()
            relative = os.path.relpath(path, REPO_ROOT)
            for line, name, first_line in shadowed_definitions(source, path):
                violations.append(
                    "%s:%d: %s shadows the definition at line %d"
                    % (relative, line, name, first_line)
                )
    assert violations == []


def _exported_names(tree):
    """The string entries of every ``__all__ = [...]`` / ``+=`` in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names.update(
                    element.value for element in node.value.elts
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)
                )
    return names


def unused_imports(source, filename="<source>"):
    """``(line, name)`` of every imported name the module never reads.

    A name is read when it is loaded anywhere in the module, on its own or
    as the root of an attribute chain, or listed in ``__all__``.  Scopes
    are not told apart: a local that shadows the import and is read counts
    as a read.  ``import
    a.b`` binds ``a``; star imports and ``__future__`` imports bind nothing
    checked here."""
    tree = ast.parse(source, filename)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Load, ast.Del))
    }
    read |= _exported_names(tree)
    return sorted((line, name) for line, name in imported if name not in read)


UNUSED = {
    "module": "import os\n",
    "dotted-module": "import os.path\n",
    "from-import": "from os import path\n",
    "alias": "import os as system\n\nos = None\n",
    "one-of-two": "from os import path, sep\n\nprint(sep)\n",
}

USED = {
    "call": "import os\n\nos.getcwd()\n",
    "dotted-module": "import os.path\n\nos.path.join('a', 'b')\n",
    "in-a-function": "from os import sep\n\ndef f():\n    return sep\n",
    "alias": "import os as system\n\nsystem.getcwd()\n",
    "exported": "from os import sep\n\n__all__ = ['sep']\n",
    "future": "from __future__ import annotations\n",
    "decorator": "import functools\n\n@functools.lru_cache\ndef f():\n    pass\n",
}


@pytest.mark.parametrize("case", sorted(UNUSED))
def test_the_scan_catches_unused_imports(case):
    assert unused_imports(UNUSED[case])


@pytest.mark.parametrize("case", sorted(USED))
def test_the_scan_allows_used_and_exported_imports(case):
    assert unused_imports(USED[case]) == []


def test_no_module_imports_a_name_it_never_uses():
    violations = []
    checked = 0
    for directory in CHECKED_DIRECTORIES:
        for path in _module_paths(os.path.join(REPO_ROOT, directory)):
            if os.path.basename(path) == "__init__.py":
                continue
            checked += 1
            with open(path) as handle:
                source = handle.read()
            relative = os.path.relpath(path, REPO_ROOT)
            for line, name in unused_imports(source, path):
                violations.append("%s:%d: %r imported but unused" % (relative, line, name))
    assert checked > 100
    assert violations == []


REFERENCING_DIRECTORIES = ("src", "examples", "benchmarks", "perfbench", "scripts")

# Definitions that nothing outside the tests references, kept because the
# tests of *other* modules build on them.  Each entry must still be a
# definition the scan would report; a stale entry fails the test below.
TEST_FIXTURES = {
    # Graph and session inspection the topology, workload and protocol tests
    # assert on.
    "Network.hosts",
    # The detach tests compare every node, in insertion order, before and
    # after a host comes and goes.
    "Network.nodes",
    "Network.number_of_nodes",
    "Network.number_of_links",
    "Network.is_connected",
    "Session.path_length",
    "transit_routers",
    # Topology builders the protocol, baseline, routing and centralized tests
    # run on: one shared link, a star, and the Small transit-stub network.
    "single_link_topology",
    "star_topology",
    "small_network",
    # Protocol inspection of the protocol, property and stochastic tests.
    "BNeckProtocol.router_link",
    # The last API.Rate of every active session, which the golden and
    # property tests compare with the final allocation.
    "BNeckProtocol.notified_allocation",
    "SessionApplication.notification_count",
    "RateAllocation.is_feasible",
    # The plain per-link recount that the certificate tests check the link
    # table's loads against.
    "link_load",
    "LinkState.knows",
    "LinkState.snapshot",
    # From-scratch recounts that the link-state tests compare the maintained
    # values against after every mutation.
    "LinkState._recomputed_bottleneck_rate",
    "LinkState._recomputed_unrestricted_load",
    "LinkState._recomputed_idle_by_rate",
    # Per-session packet counts that the packet-counting, golden, baseline
    # and protocol-dynamics tests assert on.
    "PacketTracer.by_session",
}


def definitions(source, filename="<source>"):
    """``(line, qualified name, name, is method)`` of every function and
    class defined in the module body or a class body, dunder methods
    excepted; a method is a function defined in a class body."""
    found = []
    scopes = [(ast.parse(source, filename), "")]
    while scopes:
        scope, prefix = scopes.pop()
        for node in scope.body:
            if not isinstance(node, DEFINITIONS):
                continue
            if not (node.name.startswith("__") and node.name.endswith("__")):
                method = isinstance(scope, ast.ClassDef) and not isinstance(node, ast.ClassDef)
                found.append((node.lineno, prefix + node.name, node.name, method))
            if isinstance(node, ast.ClassDef):
                scopes.append((node, prefix + node.name + "."))
    return sorted(found)


def references(source, filename="<source>"):
    """``(bare names, attribute reads)``: the bare names a module reads, and
    the names it reads as attributes -- attribute loads and the string names
    of ``getattr``-style calls.  An ``__all__`` entry is not a read."""
    tree = ast.parse(source, filename)
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            else:
                names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in REFLECTION_FUNCTIONS
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            attributes.add(node.args[1].value)
    return names, attributes


def unreferenced(defining, referencing):
    """``(path, line, qualified name)`` of every definition in the
    ``{path: source}`` map ``defining`` whose name no source in
    ``referencing`` reads: a method must be read as an attribute, a function
    or class in any way.  Names are matched without types: any read of the
    name anywhere keeps every definition of it."""
    names, attributes = set(), set()
    for path, source in referencing.items():
        bare, read = references(source, path)
        names |= bare
        attributes |= read
    return sorted(
        (path, line, qualified)
        for path, source in defining.items()
        for line, qualified, name, method in definitions(source, path)
        if name not in attributes and (method or name not in names)
    )


def _sources(directories):
    sources = {}
    for directory in directories:
        for path in _module_paths(os.path.join(REPO_ROOT, directory)):
            with open(path) as handle:
                sources[os.path.relpath(path, REPO_ROOT)] = handle.read()
    return sources


DEAD = {
    "method": (
        "class A(object):\n    def used(self):\n        pass\n"
        "    def dead(self):\n        pass\n\nA().used()\n",
        ["A.dead"],
    ),
    "function-and-class": (
        "def dead():\n    pass\n\nclass Dead(object):\n    pass\n",
        ["dead", "Dead"],
    ),
    "private-method": (
        "class A(object):\n    def _dead(self):\n        pass\n\nA()\n",
        ["A._dead"],
    ),
    "nested-class": (
        "class A(object):\n    class B(object):\n        def dead(self):\n"
        "            pass\n\nA.B\n",
        ["A.B.dead"],
    ),
    "method-named-like-a-local": (
        "class A(object):\n    def scenario(self):\n        pass\n\n"
        "def f():\n    scenario = A()\n    return scenario\n\nf()\n",
        ["A.scenario"],
    ),
    # An exported function read only by tests is reported.
    "exported": ("def f():\n    pass\n\n__all__ = ['f']\n", ["f"]),
}

LIVE = {
    "attribute-call": "class A(object):\n    def f(self):\n        pass\n\nA().f()\n",
    "property-read": (
        "class A(object):\n    @property\n    def size(self):\n        return 1\n\n"
        "print(A().size)\n"
    ),
    "getattr-string": "def f():\n    pass\n\nprint(getattr(object, 'f', None))\n",
    "dunder": "class A(object):\n    def __repr__(self):\n        return 'A'\n\nA()\n",
}


@pytest.mark.parametrize("case", sorted(DEAD))
def test_the_scan_catches_unreferenced_definitions(case):
    source, dead = DEAD[case]
    assert [name for _, _, name in unreferenced({"m.py": source}, {"m.py": source})] == dead


@pytest.mark.parametrize("case", sorted(LIVE))
def test_the_scan_allows_referenced_definitions(case):
    assert unreferenced({"m.py": LIVE[case]}, {"m.py": LIVE[case]}) == []


def test_a_reference_from_another_module_counts():
    defining = {"m.py": "class A(object):\n    def f(self):\n        pass\n"}
    assert unreferenced(defining, dict(defining, **{"user.py": "a.f()\nA\n"})) == []
    assert unreferenced(defining, dict(defining, **{"user.py": "A\n"})) == [("m.py", 2, "A.f")]


def test_every_library_definition_has_a_caller_outside_the_tests():
    """A definition that only its own tests reference is dead code: delete it
    with its tests, or give it a real caller.  Fixtures the tests of other
    modules rely on are listed in ``TEST_FIXTURES``."""
    library = _sources([os.path.join("src", "repro")])
    assert len(library) > 40
    found = unreferenced(library, _sources(REFERENCING_DIRECTORIES))
    dead = ["%s:%d: %s" % entry for entry in found if entry[2] not in TEST_FIXTURES]
    assert dead == []
    assert sorted(TEST_FIXTURES) == sorted(entry[2] for entry in found)


def stored_attributes(source, filename="<source>"):
    """``(line, name)`` of every attribute stored on ``self``."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def loaded_attributes(source, filename="<source>"):
    """Every attribute name a module reads (an ``ast.Attribute`` load)."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_attributes(defining, referencing):
    """``(path, line, name)`` of every ``self`` attribute stored in the
    ``{path: source}`` map ``defining`` that no source in ``referencing``
    reads."""
    read = set()
    for path, source in referencing.items():
        read |= loaded_attributes(source, path)
    return sorted(
        (path, line, name)
        for path, source in defining.items()
        for line, name in stored_attributes(source, path)
        if name not in read
    )


UNREAD = {
    "stored-only": "class A(object):\n    def __init__(self):\n        self.x = 1\n",
    "augmented": (
        "class A(object):\n    def __init__(self):\n        self.n = 0\n"
        "    def f(self):\n        self.n += 1\n"
    ),
    "unpacked": "class A(object):\n    def f(self):\n        a, self.b = 1, 2\n",
}

READ = {
    "own-read": (
        "class A(object):\n    def __init__(self):\n        self.x = 1\n"
        "    def f(self):\n        return self.x\n"
    ),
    "outside-read": "class A(object):\n    def __init__(self):\n        self.x = 1\n\nprint(A().x)\n",
    "not-self": "def f(other):\n    other.x = 1\n",
}


@pytest.mark.parametrize("case", sorted(UNREAD))
def test_the_scan_catches_stored_attributes_nothing_reads(case):
    assert unread_attributes({"m.py": UNREAD[case]}, {"m.py": UNREAD[case]})


@pytest.mark.parametrize("case", sorted(READ))
def test_the_scan_allows_read_attributes(case):
    assert unread_attributes({"m.py": READ[case]}, {"m.py": READ[case]}) == []


def test_every_stored_attribute_is_read_somewhere():
    """A value the library stores on ``self`` and nobody reads is waste:
    stop storing it, or read it where it matters."""
    library = _sources([os.path.join("src", "repro")])
    assert len(library) > 40
    readers = _sources(REFERENCING_DIRECTORIES + ("tests",))
    found = ["%s:%d: self.%s" % entry for entry in unread_attributes(library, readers)]
    assert found == []


# Defaulted parameters that no call passes, kept on purpose.  Each entry is
# ``"Qualified.name(parameter)"`` with its reason, and must still be one the
# scan reports; a stale entry fails the test below.
UNSET_PARAMETERS = {}

CALLING_DIRECTORIES = REFERENCING_DIRECTORIES + ("tests",)


def _defaulted(arguments, skip):
    """``(name, position)`` of every parameter with a default; ``position``
    counts from the first parameter after the ``skip`` bound ones
    (``self``, ``cls``), and is ``None`` for a keyword-only parameter."""
    positional = arguments.posonlyargs + arguments.args
    first_default = len(positional) - len(arguments.defaults)
    found = [
        (argument.arg, index - skip)
        for index, argument in enumerate(positional)
        if index >= max(first_default, skip)
    ]
    found += [
        (argument.arg, None)
        for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]
    return found


def settable_parameters(source, filename="<source>"):
    """``(line, qualified name, callee, parameter, position)`` of every
    defaulted parameter of a function or class defined in the module body
    or a class body.  A class's parameters are its ``__init__``'s, and its
    callee is the class name."""
    found = []
    scopes = [(ast.parse(source, filename), "", None)]
    while scopes:
        scope, prefix, owner = scopes.pop()
        for node in scope.body:
            if isinstance(node, ast.ClassDef):
                scopes.append((node, prefix + node.name + ".", node.name))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if owner is not None and node.name == "__init__":
                    callee, qualified = owner, prefix[:-1]
                else:
                    callee, qualified = node.name, prefix + node.name
                static = any(
                    isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
                    for decorator in node.decorator_list
                )
                skip = 1 if owner is not None and not static else 0
                for parameter, position in _defaulted(node.args, skip):
                    found.append((node.lineno, qualified, callee, parameter, position))
    return sorted(found)


def dispatch_tables(source, filename="<source>"):
    """``{table: class or function names}`` of every dictionary a module
    assigns to a name whose values are names -- a literal, or a
    comprehension over a tuple or list of names -- so that a call
    ``table[key](...)`` counts as a call of each of them."""
    tables = {}
    for node in ast.walk(ast.parse(source, filename)):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        value = node.value
        if isinstance(value, ast.Dict):
            values = value.values
        elif (isinstance(value, ast.DictComp) and len(value.generators) == 1
              and isinstance(value.generators[0].iter, (ast.Tuple, ast.List))):
            values = value.generators[0].iter.elts
        else:
            continue
        names = {element.id for element in values if isinstance(element, ast.Name)}
        if names:
            tables.setdefault(node.targets[0].id, set()).update(names)
    return tables


def _positions(argument):
    """How many positions a call argument fills that the scan can see."""
    if not isinstance(argument, ast.Starred):
        return 1
    if isinstance(argument.value, (ast.List, ast.Tuple)):
        return len(argument.value.elts)
    return 0


def passed_arguments(source, tables, filename="<source>"):
    """``(callee, keywords, positional count)`` of every call in a module.

    A callee is matched by name: ``f(...)`` and ``x.f(...)`` call ``f``,
    ``table[key](...)`` each entry of a dispatch table, and
    ``super(...).__init__(...)`` inside a class body the class's bases.  A
    ``*sequence`` or ``**mapping`` passes only what it spells out: the
    items of a list or tuple display, the constant keys of a dict display.
    Forwarded ``*args`` and ``**kwargs`` pass nothing the scan can see."""
    tree = ast.parse(source, filename)
    bases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = [base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
                     for base in node.bases]
            for child in ast.walk(node):
                bases[id(child)] = names
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        function = node.func
        count = sum(_positions(argument) for argument in node.args)
        if isinstance(function, ast.Name):
            callees = [function.id]
        elif isinstance(function, ast.Subscript) and isinstance(function.value, ast.Name):
            callees = sorted(tables.get(function.value.id, ()))
        elif not isinstance(function, ast.Attribute):
            continue
        elif function.attr != "__init__":
            callees = [function.attr]
        elif (isinstance(function.value, ast.Call) and isinstance(function.value.func, ast.Name)
              and function.value.func.id == "super"):
            callees = bases.get(id(node), [])
        else:
            # ``Base.__init__(self, ...)``: the first argument is bound.
            callees = [ast.unparse(function.value).split(".")[-1]]
            count -= 1
        keywords = set()
        for keyword in node.keywords:
            if keyword.arg is not None:
                keywords.add(keyword.arg)
            elif isinstance(keyword.value, ast.Dict):
                keywords.update(key.value for key in keyword.value.keys
                                if isinstance(key, ast.Constant))
        found.extend((callee, keywords, count) for callee in callees)
    return found


def unset_parameters(defining, calling):
    """``(path, line, "name(parameter)")`` of every defaulted parameter in
    the ``{path: source}`` map ``defining`` that no call in ``calling``
    passes, by keyword or by position.  A call of a class that inherits its
    ``__init__`` counts for the base class that defines it."""
    own_init, subclasses = {}, {}
    for path, source in defining.items():
        for node in ast.walk(ast.parse(source, path)):
            if isinstance(node, ast.ClassDef):
                own_init[node.name] = any(
                    isinstance(child, ast.FunctionDef) and child.name == "__init__"
                    for child in node.body
                )
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        subclasses.setdefault(base.id, []).append(node.name)
    tables = {}
    for path, source in calling.items():
        for table, names in dispatch_tables(source, path).items():
            tables.setdefault(table, set()).update(names)
    calls = {}
    for path, source in calling.items():
        for callee, keywords, count in passed_arguments(source, tables, path):
            calls.setdefault(callee, []).append((keywords, count))

    def callers(name):
        """``name`` and every subclass that inherits its ``__init__``."""
        names, pending = [], [name]
        while pending:
            current = pending.pop()
            names.append(current)
            pending += [child for child in subclasses.get(current, ()) if not own_init[child]]
        return names

    found = []
    for path, source in defining.items():
        for line, qualified, callee, parameter, position in settable_parameters(source, path):
            names = callers(callee) if callee in own_init else [callee]
            if not any(
                parameter in keywords or (position is not None and position < count)
                for name in names
                for keywords, count in calls.get(name, ())
            ):
                found.append((path, line, "%s(%s)" % (qualified, parameter)))
    return sorted(found)


UNSET = {
    # The planted option: a start offset nothing passes.
    "planted-start-offset": (
        "class Workload(object):\n"
        "    def __init__(self, rate=1.0, start_offset=1e-4):\n"
        "        pass\n\nWorkload(rate=2.0)\n",
        ["Workload(start_offset)"],
    ),
    "function": ("def f(a, b=1, c=2):\n    pass\n\nf(0, 1)\n", ["f(c)"]),
    "method": (
        "class A(object):\n    def f(self, b=1):\n        pass\n\nA().f()\n",
        ["A.f(b)"],
    ),
    "keyword-only": ("def f(*, b=1):\n    pass\n\nf()\n", ["f(b)"]),
    "forwarded-arguments": (
        "def f(a=1, b=2):\n    pass\n\ndef g(*args, **kwargs):\n    f(*args, **kwargs)\n",
        ["f(a)", "f(b)"],
    ),
    "subclass-with-its-own-init": (
        "class A(object):\n    def __init__(self, b=1):\n        pass\n\n"
        "class B(A):\n    def __init__(self):\n        super().__init__()\n\nB()\n",
        ["A(b)"],
    ),
}

PASSED = {
    "keyword": "def f(b=1):\n    pass\n\nf(b=2)\n",
    "position": "def f(a, b=1):\n    pass\n\nf(0, 2)\n",
    "method-position": "class A(object):\n    def f(self, b=1):\n        pass\n\nA().f(2)\n",
    "star-arguments": "def f(a, b=1):\n    pass\n\nf(*[0, 2])\n",
    "double-star-arguments": "def f(b=1):\n    pass\n\nf(**{'b': 2})\n",
    "inherited-init": (
        "class A(object):\n    def __init__(self, b=1):\n        pass\n\n"
        "class B(A):\n    pass\n\nB(b=2)\n"
    ),
    "super-init": (
        "class A(object):\n    def __init__(self, b=1):\n        pass\n\n"
        "class B(A):\n    def __init__(self, b):\n        super(B, self).__init__(b)\n\nB(2)\n"
    ),
    "explicit-base-init": (
        "class A(object):\n    def __init__(self, b=1):\n        pass\n\n"
        "class B(A):\n    def __init__(self):\n        A.__init__(self, 2)\n\nB()\n"
    ),
    "dispatch-table": (
        "class A(object):\n    def __init__(self, b=1):\n        pass\n\n"
        "TABLE = {cls.__name__: cls for cls in (A,)}\nTABLE['A'](b=2)\n"
    ),
}


@pytest.mark.parametrize("case", sorted(UNSET))
def test_the_scan_catches_parameters_nothing_passes(case):
    source, unset = UNSET[case]
    assert [name for _, _, name in unset_parameters({"m.py": source}, {"m.py": source})] == unset


@pytest.mark.parametrize("case", sorted(PASSED))
def test_the_scan_allows_passed_parameters(case):
    assert unset_parameters({"m.py": PASSED[case]}, {"m.py": PASSED[case]}) == []


def test_a_call_from_another_module_counts():
    defining = {"m.py": "def f(b=1):\n    pass\n"}
    assert unset_parameters(defining, dict(defining, **{"user.py": "f(b=2)\n"})) == []
    assert unset_parameters(defining, dict(defining, **{"user.py": "g(b=2)\n"})) == [
        ("m.py", 1, "f(b)")
    ]


def test_every_library_option_is_set_by_some_call():
    """A defaulted parameter that no call anywhere passes is an option with
    one value in use: make it a constant.  The exceptions are listed, with
    the reason, in ``UNSET_PARAMETERS``."""
    library = _sources([os.path.join("src", "repro")])
    assert len(library) > 40
    assert sum(len(settable_parameters(source)) for source in library.values()) > 50
    found = unset_parameters(library, _sources(CALLING_DIRECTORIES))
    unset = ["%s:%d: %s" % entry for entry in found if entry[2] not in UNSET_PARAMETERS]
    assert unset == []
    assert sorted(UNSET_PARAMETERS) == sorted(entry[2] for entry in found)


# What a hand-written record may add to its constructor: a namedtuple gives
# the first two for free (``_asdict`` for ``as_dict``) and keeps the third.
RECORD_METHODS = {"__repr__", "as_dict", "__bool__"}


def _stores_each_parameter(init):
    """True when ``init`` takes at least one named parameter and its body,
    past a docstring, only stores each of them on ``self`` as it came."""
    arguments = init.args
    if arguments.vararg or arguments.kwarg:
        return False
    parameters = [
        argument.arg
        for argument in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
    ][1:]
    body = init.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    stored = []
    for statement in body:
        if not (
            isinstance(statement, ast.Assign)
            and len(statement.targets) == 1
            and isinstance(statement.targets[0], ast.Attribute)
            and isinstance(statement.targets[0].value, ast.Name)
            and statement.targets[0].value.id == "self"
            and isinstance(statement.value, ast.Name)
        ):
            return False
        stored.append(statement.value.id)
    return bool(parameters) and sorted(stored) == sorted(parameters)


def hand_written_records(source, filename="<source>"):
    """``(line, name)`` of every class whose only methods are an ``__init__``
    that stores each parameter unchanged, plus ``RECORD_METHODS``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            item.name: item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        init = methods.pop("__init__", None)
        if init is not None and set(methods) <= RECORD_METHODS and _stores_each_parameter(init):
            found.append((node.lineno, node.name))
    return sorted(found)


RECORDS = {
    # The planted record: a constructor and a repr, nothing a namedtuple lacks.
    "planted-point": (
        "class Point(object):\n"
        "    def __init__(self, x, y):\n"
        "        self.x = x\n"
        "        self.y = y\n\n"
        "    def __repr__(self):\n"
        "        return 'Point(%r, %r)' % (self.x, self.y)\n"
    ),
    "renamed-fields-and-as-dict": (
        "class Row(object):\n"
        "    \"\"\"A row.\"\"\"\n\n"
        "    __slots__ = ('label', 'mean')\n\n"
        "    def __init__(self, label, mean_value):\n"
        "        \"\"\"Store.\"\"\"\n"
        "        self.mean = mean_value\n"
        "        self.label = label\n\n"
        "    def as_dict(self):\n"
        "        return {'label': self.label, 'mean': self.mean}\n"
    ),
    "truth-value": (
        "class Report(object):\n"
        "    def __init__(self, stable, links):\n"
        "        self.stable = stable\n"
        "        self.links = links\n\n"
        "    def __bool__(self):\n"
        "        return self.stable\n"
    ),
    "keyword-only": (
        "class Row(object):\n"
        "    def __init__(self, *, label):\n"
        "        self.label = label\n"
    ),
}

NOT_RECORDS = {
    "namedtuple": (
        "from collections import namedtuple\n\n"
        "class Point(namedtuple('Point', 'x y')):\n"
        "    __slots__ = ()\n\n"
        "    def __bool__(self):\n"
        "        return bool(self.x)\n"
    ),
    "converts-a-parameter": (
        "class Config(object):\n"
        "    def __init__(self, counts):\n"
        "        self.counts = tuple(counts)\n"
    ),
    "checks-a-parameter": (
        "class Phase(object):\n"
        "    def __init__(self, window):\n"
        "        if window <= 0:\n"
        "            raise ValueError(window)\n"
        "        self.window = window\n"
    ),
    "extra-state": (
        "class Application(object):\n"
        "    def __init__(self, session_id):\n"
        "        self.session_id = session_id\n"
        "        self.notifications = []\n"
    ),
    "a-parameter-not-stored": (
        "class A(object):\n"
        "    def __init__(self, x, y):\n"
        "        self.x = x\n"
    ),
    "another-method": (
        "class Spec(object):\n"
        "    def __init__(self, size):\n"
        "        self.size = size\n\n"
        "    def build(self):\n"
        "        return self.size\n"
    ),
    "no-parameters": (
        "class Marker(object):\n"
        "    def __init__(self):\n"
        "        \"\"\"Nothing to store.\"\"\"\n\n"
        "    def __repr__(self):\n"
        "        return 'Marker()'\n"
    ),
}


@pytest.mark.parametrize("case", sorted(RECORDS))
def test_the_scan_catches_hand_written_records(case):
    assert len(hand_written_records(RECORDS[case])) == 1


@pytest.mark.parametrize("case", sorted(NOT_RECORDS))
def test_the_scan_allows_classes_that_do_more_than_store(case):
    assert hand_written_records(NOT_RECORDS[case]) == []


def test_no_library_class_is_a_hand_written_record():
    """A class that only stores its parameters, with a repr, an ``as_dict``
    or a truth value, is a ``collections.namedtuple``: subclass one, with
    ``__slots__ = ()``, and keep the docstring and class attributes."""
    library = _sources([os.path.join("src", "repro")])
    assert len(library) > 40
    found = [
        "%s:%d: %s" % (path, line, name)
        for path, source in sorted(library.items())
        for line, name in hand_written_records(source, path)
    ]
    assert found == []
