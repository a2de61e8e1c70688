"""Source hygiene: every module compiles without a warning and uses every
name it imports."""

import ast
import pathlib
import warnings

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "probterm"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    # an invalid escape such as "\ " warns at compile time, and the warning
    # grows stricter with each Python release
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    # __init__.py imports names to re-export them
    assert _unused_imports(ast.parse(path.read_text())) == []
