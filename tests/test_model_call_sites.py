"""Every local model call goes through one subtask runner, executor.extract.

`infer` and validation both run a prompt over a text through it, so a
validated prompt is run exactly as `infer` runs it: the same request, seed
and repair round-trip. The cloud channel's calls are the planner's. A
`.chat(` call anywhere else would be a second runner, so it fails here;
that keeps a duplicate path from growing back.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orchkit"


def test_only_extract_and_the_planner_call_chat():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "chat"):
                    callers.add((path.stem, getattr(top, "name", None)))
    assert any(module == "planner" for module, _name in callers)
    assert {c for c in callers if c[0] != "planner"} == {("executor", "extract")}
