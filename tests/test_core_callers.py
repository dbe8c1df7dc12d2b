"""The package holds only what the program runs: every top-level
function and class of each module of ``src/hott`` but ``__init__.py``,
and every method but the dunders, is referenced somewhere in
``src/hott`` outside its own definition and ``__init__.py``."""

from __future__ import annotations

import ast
from collections import Counter

from conftest import ROOT

PACKAGE = ROOT / "src" / "hott"

# Names that the package keeps although nothing in ``src/hott`` calls
# them, each with its reason.
ALLOWED = {
    "well_scoped": "the scoping invariant that the tests and the enumeration properties assert of every term",
    "resolve_expr": "perfbench/drive.py and perfbench/boundary.py call it, until ROADMAP item 2",
    "error": "argparse calls ArgumentParser.error to report a usage error",
}


def _references(node: ast.AST) -> Counter[str]:
    """How often each name is used in ``node``, as a name or as an attribute."""
    names: Counter[str] = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _definitions(tree: ast.Module):
    """Each top-level function and class, and each method but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub


def _uncalled() -> dict[str, str]:
    """The qualified name of each definition that nothing in
    ``src/hott`` but its own body references, to its name."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    return {f"{module[:-3]}.{qualname}": node.name
            for module, tree in trees.items() for qualname, node in _definitions(tree)
            if used[node.name] - _references(node)[node.name] <= 0}


def test_every_core_definition_has_a_caller():
    uncalled = _uncalled()
    unlisted = [qualname for qualname, name in uncalled.items() if name not in ALLOWED]
    assert not unlisted, "referenced only by their own definition: " + ", ".join(unlisted)
    # a name that gains a caller or leaves the core leaves the list too
    stale = set(ALLOWED) - set(uncalled.values())
    assert not stale, "allowed but called or gone: " + ", ".join(stale)


# The trusted core's size, in lines as ``wc -l`` counts them.  Raising the
# ceiling needs a reason recorded in CHANGES.md.
CORE = ("terms.py", "reduce.py", "check.py")
CORE_LINES = 1_144


def test_trusted_core_stays_within_its_line_ceiling():
    lines = sum((PACKAGE / name).read_bytes().count(b"\n") for name in CORE)
    assert lines <= CORE_LINES, f"the trusted core has {lines} lines, over its ceiling of {CORE_LINES}"
