"""Every module of the package uses each name it imports, none imports
another module's private (underscore) names, and only the CLI and the
instance file format touch JSON."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "geomhull"


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def private_imports(path):
    """Underscore names, dunders aside, taken from another geomhull module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted(f"line {node.lineno}: {alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or (node.module or "").startswith("geomhull"))
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path) == []


def imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module}
    return {name.split(".")[0] for name in names}


def test_only_cli_and_bodies_import_json():
    # cli writes every report; bodies reads and writes the instance format
    assert sorted(path.name for path in SRC.glob("*.py")
                  if "json" in imported_modules(path)) == ["bodies.py", "cli.py"]
