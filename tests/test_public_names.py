"""Every public function and class of the package is named by some caller.

A public name that no module of the package and no benchmark file refers to
is reached only from its own tests: it belongs in the test file that uses
it.  A reference is a name or an attribute access in `src/geomhull/` or
`perfbench/`, or a string there naming it (perfbench/spans.py lists the
functions it times as strings); the definition itself does not count.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLERS = ("src/geomhull", "perfbench")

# "module.py:name" -> why it stays public although nothing in the package or
# the benchmark refers to it; none does today
ALLOWED = {}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions(paths):
    """(module file name, name) for each public module-level def or class."""
    return sorted((path.name, node.name) for path in paths
                  for node in _parse(path).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_"))


def referenced_names(paths):
    seen = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    seen.update(parts)
    return seen


def unreferenced(root):
    seen = referenced_names([path for folder in CALLERS
                             for path in sorted((root / folder).glob("*.py"))])
    return sorted(f"{module}:{name}" for module, name in public_definitions(
        sorted((root / "src" / "geomhull").glob("*.py"))) if name not in seen)


def test_every_public_name_has_a_caller():
    assert unreferenced(ROOT) == sorted(ALLOWED)
