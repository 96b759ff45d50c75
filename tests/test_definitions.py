"""Every definition in ``src/entrobound`` has a reader.

A function or class that a refactor leaves without a caller would
otherwise stay unnoticed, as long as its own tests kept calling it. This
parses every module and reports each module-level function or class, and
each ``_private`` method, that no module in ``src/`` reads by name or as
an attribute, that its module does not export through ``__all__``, and
that ``bench/tracing.py`` neither reads nor names in a string.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entrobound"
TRACING = ROOT / "bench" / "tracing.py"


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


def _dead(sources: dict[str, str], tracing: str) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(_read, trees.values()))
    # the bench wraps functions by their names as strings, and reads others
    bench = ast.parse(tracing)
    named = _read(bench) | {
        node.value for node in ast.walk(bench) if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    dead = []
    for module, tree in trees.items():
        exported = _exported(tree)
        for qualified, line in _definitions(tree):
            name = qualified.rpartition(".")[2]
            if name not in read and qualified not in exported and name not in named:
                dead.append(f"{module}:{line}: {qualified}")
    return dead


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
