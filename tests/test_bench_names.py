"""The benchmark's traced passes wrap program functions by name; a rename
must fail here rather than only in a benchmark run."""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tracer_installs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = ("import sys; sys.path.insert(0, 'bench'); "
              "from tracer import Tracer, install; install(Tracer())")
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# The tracer reads these arguments by position when not passed by keyword.
@pytest.mark.parametrize("module, attr, index, name", [
    ("executor", "run_documents", 2, "docs"),
    ("executor", "run_document", 2, "doc"),
    ("executor", "run_subtask", 3, "doc"),
    ("executor", "write_predictions", 1, "path"),
    ("validator", "_run_case", 3, "index"),
])
def test_bench_tracer_argument_positions(module, attr, index, name):
    fn = getattr(importlib.import_module(f"orchkit.{module}"), attr)
    assert list(inspect.signature(fn).parameters)[index] == name
