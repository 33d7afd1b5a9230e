"""Every definition in the package is reached by the CLI, the acceptance suite
or the benchmark, not only by the tests.

Reachability is by name, read with `ast`.  The roots are the module-level
statements of each `src/cberlab` module (among them the CLI's `main()` call)
and every name used in `perfbench/*.py`.  A module-level function or class,
or a method, is reached when a reached body uses its name, as a bare name
or as an attribute.  A reached class brings its dunder methods and its
class-level statements with it; dunders themselves are exempt.  Methods are
matched by name alone, so two methods that share a name are reached
together: this guard catches dead code, it does not prove liveness.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cberlab"

# The general interval algebra that the tests recheck the slot tower
# against.  The library builds the tower without it, so nothing outside
# tests/ calls these; each entry names the test that compares against it.
ORACLE = {
    "IntervalSet.union": "test_tower.py::test_slot_tower_matches_interval_algebra "
    "(stage n+1's cuts make up stage n's base)",
    "IntervalSet.intersect": "test_tower.py::test_translate_family_disjoint "
    "(the T-sets of a stage are disjoint)",
    "IntervalMap.apply_set": "test_tower.py::test_slot_tower_matches_interval_algebra "
    "(phi_h carries each cut onto its T-set)",
    "partial_bijection_between": "test_tower.py::test_slot_tower_matches_interval_algebra "
    "(materialize_map equals the piecewise bijections T_h -> T_gh)",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(nodes) -> set[str]:
    """Every name used in the nodes, bare or as an attribute; imports are
    not uses."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _definitions():
    """(qualified name, bare name, body names) for each module-level
    function and class and each method, plus the names used by the module
    roots."""
    defs, roots = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((node.name, node.name, _names([node])))
            elif isinstance(node, ast.ClassDef):
                methods = [
                    n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
                own = [n for n in node.body if n not in methods] + node.bases + node.decorator_list
                own += [m for m in methods if _is_dunder(m.name)]
                defs.append((node.name, node.name, _names(own)))
                for m in methods:
                    if not _is_dunder(m.name):
                        defs.append((f"{node.name}.{m.name}", m.name, _names([m])))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names([node])
    return defs, roots


def _unreached() -> list[str]:
    defs, used = _definitions()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _names([ast.parse(path.read_text())])
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for qual, name, body in defs:
            if qual not in reached and name in used:
                reached.add(qual)
                used |= body
                grew = True
    return sorted(qual for qual, _, _ in defs if qual not in reached)


def test_every_definition_is_reached():
    unreached = [q for q in _unreached() if q not in ORACLE]
    assert not unreached, f"reached only from tests, or from nowhere: {unreached}"


def test_oracle_allow_list_names_live_definitions():
    """An allowed name that is deleted leaves the list with it.  (Whether it
    is still unreached is not asserted: `set().union` reaches
    `IntervalSet.union` by name.)"""
    defs, _ = _definitions()
    assert set(ORACLE) <= {qual for qual, _, _ in defs}
