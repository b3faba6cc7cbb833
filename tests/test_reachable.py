"""Every public function, class and method in orchkit is reached by the
program itself: another orchkit module or a benchmark script names it.

Tests and the package's own re-exports do not count, so code kept alive only
by a test or by `__init__.py` fails here. The benchmark's tracer wraps
functions by name, so string constants that are identifiers count as uses,
and an import kept only for it says so with TRACER_ONLY: each name it binds
must be one the tracer wraps on that module, so the marker cannot outlive
its reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orchkit"
TRACER_ONLY = "# noqa: F401 - bench/tracer.py wraps it by name"


def _uses(tree: ast.AST) -> Counter[str]:
    used: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used[node.value] += 1
    return used


def _public_defs(module: ast.Module):
    """Module-level public functions and classes, and public methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in module.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def test_every_public_name_is_reached_by_the_program():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "bench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in sources}
    used: Counter[str] = Counter()
    for tree in trees.values():
        used += _uses(tree)

    unreached = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualname, node in _public_defs(tree):
            if used[node.name] - _uses(node)[node.name] <= 0:
                unreached.append(f"{path.stem}.{qualname}")
    assert unreached == [], f"public names no program path reaches: {unreached}"


def _tracer_wraps() -> set[tuple[str, str]]:
    """(module, attribute) for each `t.wrap(module, "attribute", ...)` in the tracer."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    return {(node.args[0].id, node.args[1].value) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap" and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name) and isinstance(node.args[1], ast.Constant)}


def test_every_tracer_only_import_binds_a_name_the_tracer_wraps():
    wraps, marked, unmarked = _tracer_wraps(), [], []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        imports = {node.end_lineno: node for node in ast.walk(ast.parse(text))
                   if isinstance(node, (ast.Import, ast.ImportFrom))}
        for lineno, line in enumerate(lines, start=1):
            if "bench/tracer.py wraps" not in line:
                continue
            if not line.endswith(TRACER_ONLY) or lineno not in imports:
                unmarked.append(f"{path.name}:{lineno}")
                continue
            marked += [(path.stem, alias.asname or alias.name) for alias in imports[lineno].names]
    assert unmarked == [], f"the tracer marker belongs at the end of an import: {unmarked}"
    assert [name for name in marked if name not in wraps] == []


def test_the_package_root_is_its_docstring_only():
    """Each name has one import path, its module: the package root binds nothing."""
    module = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(module)
    assert len(module.body) == 1, "src/orchkit/__init__.py must bind nothing"
