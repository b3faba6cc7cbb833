"""Every error class in orchkit earns its place: some `except` clause or
`isinstance` call names it, or it sets its own `exit_code`.

A class that neither is branched on nor changes the exit code says nothing
its parent does not, so it fails here; that keeps the taxonomy from
growing back.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orchkit"


def _names(node: ast.AST | None) -> set[str]:
    """Class names in an except clause's type or isinstance's second argument."""
    if node is None:
        return set()
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(elt) for elt in node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _sets_exit_code(cls: ast.ClassDef) -> bool:
    return any(isinstance(stmt, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "exit_code" for t in stmt.targets)
               for stmt in cls.body)


def test_every_error_class_is_branched_on_or_sets_its_exit_code():
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))]
    classes: dict[str, ast.ClassDef] = {}
    branched: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
            elif isinstance(node, ast.ExceptHandler):
                branched |= _names(node.type)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2):
                branched |= _names(node.args[1])

    def is_error(name: str) -> bool:
        cls = classes.get(name)
        return name == "OrchError" or (cls is not None and any(
            is_error(base) for base in _names(ast.Tuple(elts=cls.bases))))

    errors = sorted(name for name in classes if is_error(name))
    assert "ModelCallError" in errors and "TransportError" in errors
    idle = [name for name in errors
            if name not in branched and not _sets_exit_code(classes[name])]
    assert idle == [], f"error classes nothing branches on and whose exit code is inherited: {idle}"


SHAPE_ERRORS = {"KeyError", "IndexError", "TypeError", "AttributeError"}


def _handlers(path: Path, function: str | None = None) -> list[ast.ExceptHandler]:
    """Every except clause in a module, or in one of its top-level functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    if function is not None:
        [tree] = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == function]
    return [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]


def test_only_jsonio_decode_catches_the_errors_of_a_wrong_json_shape():
    """One place turns a wrong JSON shape into a boundary's error; an except
    naming KeyError, IndexError, TypeError or AttributeError anywhere else
    would hide a shape error, or a bug, behind a per-site message."""
    decode = _handlers(PACKAGE / "jsonio.py", "decode")
    assert set().union(*(_names(h.type) for h in decode)) == SHAPE_ERRORS
    catching = [f"{path.name}:{handler.lineno}"
                for path in sorted(PACKAGE.glob("*.py")) for handler in _handlers(path)
                if _names(handler.type) & SHAPE_ERRORS]
    assert catching == [f"jsonio.py:{handler.lineno}" for handler in decode]


def test_cli_main_catches_only_orch_value_and_os_errors():
    caught = set().union(*(_names(h.type) for h in _handlers(PACKAGE / "cli.py", "main")))
    assert caught == {"OrchError", "ValueError", "OSError"}
