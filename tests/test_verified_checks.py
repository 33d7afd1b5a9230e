"""Every verified property in the package raises whatever the interpreter
flags: read with `ast`, `src/cberlab` has no `assert` statement, which
`python -O` strips, and raises a bare `AssertionError` only at the sites
allowed below.  Every other failed check raises `CheckFailed`, a subclass,
so the CLI's exit code is the same.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cberlab"

# Each allowed `raise AssertionError`, by module and enclosing definition.
BARE = {
    ("quasitile.py", "QuasiTiling.log"): "its exception name is in the report of every failing "
    "`tiling` item of perfbench, so it changes only together with a re-record of the digests",
}


def _sites(kind):
    """(module, enclosing definition) of each node of the kind, in the
    package; the definition is dotted through classes and functions."""
    out = []

    def visit(node, module, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, f"{qual}.{child.name}" if qual else child.name)
                continue
            if kind(child):
                out.append((module, qual))
            visit(child, module, qual)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, "")
    return out


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_the_package_has_no_assert_statement():
    assert _sites(lambda node: isinstance(node, ast.Assert)) == []


def test_bare_assertion_errors_are_only_the_allowed_sites():
    assert sorted(_sites(_raises_assertion_error)) == sorted(BARE)


def _switches_the_collector(node):
    """gc.disable or gc.enable, read as an attribute, or imported from gc."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "gc"
    return (isinstance(node, ast.Attribute) and node.attr in ("disable", "enable")
            and isinstance(node.value, ast.Name) and node.value.id == "gc")


def test_the_collector_is_switched_only_by_the_tower_pause():
    """The one helper that pauses the cyclic garbage collector, and restores
    its state in a `finally`, is the only code that disables or enables it."""
    assert _sites(_switches_the_collector) == [("tower.py", "_collector_paused")] * 2
