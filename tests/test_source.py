"""Source hygiene: every name a module imports at its top level is used in it, and no
module imports scipy, which is a test dependency only."""

import ast
from pathlib import Path

import pytest

import epicast

MODULES = sorted(path for path in Path(epicast.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    """The names bound by the module's top-level imports, ``__future__`` aside."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []


@pytest.mark.parametrize("path", MODULES + [Path(epicast.__file__)],
                         ids=[path.stem for path in MODULES] + ["__init__"])
def test_no_module_imports_scipy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    assert [name for name in modules if name.split(".")[0] == "scipy"] == []
