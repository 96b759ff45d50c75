"""Every top-level import in ``src/entrobound`` is used by its module.

No linter runs on this package, so an import left behind by a refactor
would otherwise stay unnoticed. This parses each module and reports any
name bound by a top-level import that the module never reads, except
``__future__`` imports, star imports and names the module re-exports
through ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "entrobound"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read | exported]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == [], f"{path.name} imports names it never uses"


def test_the_guard_sees_an_unused_import():
    source = "from __future__ import annotations\nimport bisect\nimport math\nfrom .x import y\n"
    source += "__all__ = ['y']\nprint(math.pi)\n"
    assert _unused_imports(source) == ["line 2: bisect"]
