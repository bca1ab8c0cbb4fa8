"""Every defaulted parameter of the public API, and of the package's
module-level private functions, is set by some caller.

A default that no call in the package or the benchmark overrides is a
setting in name only: its value belongs in the code as a literal, or should
follow from the inputs.  Calls are matched by the called name; a keyword
counts, and so does a positional argument that reaches the parameter.  A
`*args` or `**kwargs` pass-through sets nothing.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLERS = ("src/geomhull", "perfbench")

# parameters no caller sets, each kept for the reason given
ALLOWED = {
    "mvee.tolerance":
        "the tests tighten the duality gap to 1e-9/1e-10 to check ellipsoids "
        "with a known closed form, and containment at a tight gap",
    "ellipsoid_gamma_represent.tolerance":
        "the tests and acceptance criterion 09 set the residual floor",
    "main.argv":
        "the tests drive the CLI in process; the console script passes none",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def defaulted_parameters(paths):
    """(called name, reported name, positional index or None, parameter).

    Covers module-level functions, private ones included, and the public
    methods and constructors of public classes.  A method is called by its
    own name without its first parameter (self or cls); a constructor is
    called by its class's name.
    """
    out = []
    for path in paths:
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef):
                out += _defaults(node, node.name, node.name, skip=0)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and (item.name == "__init__"
                                 or not item.name.startswith("_"))):
                        called = node.name if item.name == "__init__" else item.name
                        out += _defaults(item, called,
                                         f"{node.name}.{item.name}", skip=1)
    return out


def _defaults(func, called, reported, skip):
    args = func.args
    positional = (args.posonlyargs + args.args)[skip:]
    first = len(positional) - len(args.defaults)
    out = [(called, reported, i, a.arg)
           for i, a in enumerate(positional) if i >= first]
    out += [(called, reported, None, a.arg)
            for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def calls(paths):
    """Called name -> (keywords passed, largest positional count) over all calls."""
    seen = {}
    for path in paths:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            count = 0
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                count += 1
            keywords, most = seen.get(name, (set(), 0))
            keywords |= {k.arg for k in node.keywords if k.arg is not None}
            seen[name] = (keywords, max(most, count))
    return seen


def unset_parameters(root):
    callers = [path for folder in CALLERS
               for path in sorted((root / folder).glob("*.py"))]
    passed = calls(callers)
    unset = set()
    for called, reported, index, param in defaulted_parameters(
            sorted((root / "src" / "geomhull").glob("*.py"))):
        keywords, most = passed.get(called, (set(), 0))
        if param in keywords or (index is not None and most > index):
            continue
        unset.add(f"{reported}.{param}")
    return sorted(unset)


def test_every_default_is_set_by_a_caller():
    assert unset_parameters(ROOT) == sorted(ALLOWED)
