"""Every definition in ``src/entrobound`` has a reader.

A function or class that a refactor leaves without a caller would
otherwise stay unnoticed, as long as its own tests kept calling it. This
parses every module and reports each module-level function or class, and
each ``_private`` method, that no module in ``src/`` reads by name or as
an attribute, that its module does not export through ``__all__``, and
that ``bench/tracing.py`` neither reads nor names in a string.

The public surface gets the same check, with ``bench/*.py`` also counted
as readers: each name a module exports through its own ``__all__``, and
each public method of an exported class (or of a package class it derives
from), is read there, or is one of the ``TEST_ONLY`` names that only the
tests call. That set may only shrink: a listed name that gains a reader
fails the check too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entrobound"
BENCH = ROOT / "bench"
TRACING = BENCH / "tracing.py"

# the public names and methods that only the tests call
TEST_ONLY = {
    "heterogeneous_deviation_bound",
    "chernoff_lambda_star",
    "estimate_mgf",
    "MomentCertificate.save",
    "_TailCertificate.spot_check",
    "PmfModel.sample",
}


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """The module-level functions and classes and the ``_private`` methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, kinds):
            found.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{item.name}", item.lineno)
                for item in node.body
                if isinstance(item, kinds) and item.name.startswith("_") and not item.name.endswith("__")
            ]
    return found


def _read(tree: ast.Module) -> set[str]:
    """The names a module loads, bare or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return read


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _named(tracing: str) -> set[str]:
    """What the bench's tracing reads, or names in a string: it wraps
    functions by their names as strings."""
    bench = ast.parse(tracing)
    return _read(bench) | {
        node.value for node in ast.walk(bench) if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _dead(sources: dict[str, str], tracing: str) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(_read, trees.values()))
    named = _named(tracing)
    dead = []
    for module, tree in trees.items():
        exported = _exported(tree)
        for qualified, line in _definitions(tree):
            name = qualified.rpartition(".")[2]
            if name not in read and qualified not in exported and name not in named:
                dead.append(f"{module}:{line}: {qualified}")
    return dead


def _surface(trees: dict[str, ast.Module]) -> list[str]:
    """Each name a module but ``__init__`` exports through ``__all__``, and
    each public method of an exported class or of a package class it
    derives from, as ``Class.method``."""
    classes = {node.name: node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    surface, pending = [], []
    for module, tree in trees.items():
        if module != "__init__.py":
            exported = sorted(_exported(tree))
            surface += exported
            pending += [name for name in exported if name in classes]
    seen = set()
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        node = classes[name]
        pending += [base.id for base in node.bases if isinstance(base, ast.Name) and base.id in classes]
        surface += [
            f"{name}.{item.name}"
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
        ]
    return surface


def _unread_surface(sources: dict[str, str], bench: dict[str, str], tracing: str) -> set[str]:
    """The public surface that neither ``src/`` nor the bench reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(_read, trees.values()), *(_read(ast.parse(source)) for source in bench.values()))
    read |= _named(tracing)
    return {qualified for qualified in _surface(trees) if qualified.rpartition(".")[2] not in read}


def test_every_definition_has_a_reader():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead(sources, TRACING.read_text()) == []


def test_the_guard_sees_a_dead_definition():
    a = "__all__ = ['public']\ndef public(): return _used()\ndef _used(): pass\ndef _dead(): pass\n"
    b = (
        "__all__ = ['Model']\n"
        "class Model:\n"
        "    def __init__(self): self._stored = self._kept()\n"
        "    def _kept(self): pass\n"
        "    def _stored(self): pass\n"
        "    def _traced(self): pass\n"
        "    def _read_by_bench(self): pass\n"
        "def helper(): pass\n"
    )
    tracing = "METHODS = {'_traced': None}\nprint(model._read_by_bench)\n"
    assert _dead({"a.py": a, "b.py": b}, tracing) == [
        "a.py:4: _dead",
        "b.py:5: Model._stored",
        "b.py:8: helper",
    ]


def test_the_public_surface_has_a_reader_or_is_test_only():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    bench = {path.name: path.read_text() for path in sorted(BENCH.glob("*.py"))}
    unread = _unread_surface(sources, bench, TRACING.read_text())
    assert sorted(unread - TEST_ONLY) == [], "unread public names: list them in TEST_ONLY or delete them"
    assert sorted(TEST_ONLY - unread) == [], "these have readers now: take them off TEST_ONLY"


def test_the_surface_guard_sees_an_unread_public_name():
    a = (
        "__all__ = ['used', 'unused', 'traced', 'Model']\n"
        "class _Base:\n"
        "    def inherited(self): pass\n"
        "class Model(_Base):\n"
        "    def called(self): pass\n"
        "    def uncalled(self): pass\n"
        "    def _private(self): pass\n"
        "def used(): return Model().called()\n"
        "def unused(): pass\n"
        "def traced(): pass\n"
    )
    init = "__all__ = ['reexported']\nfrom .a import *\n"
    bench = {"run.py": "from entrobound import used\nused()\n"}
    tracing = "FUNCTIONS = ['traced']\n"
    unread = _unread_surface({"a.py": a, "__init__.py": init}, bench, tracing)
    assert unread == {"unused", "Model.uncalled", "_Base.inherited"}
