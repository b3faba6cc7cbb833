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

from orchkit import planner
from orchkit.gateway import PHASE_CLOUD, BackendProfile, Gateway, ScriptedBackend

from conftest import e2e_cloud_handler, golden_task

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tracer_installs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = ("import sys; sys.path.insert(0, 'bench'); "
              "from tracer import Tracer, install; install(Tracer())")
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_bench_gen_builds_bundle_and_records_session(tmp_path):
    """The benchmark builds its bundle and replay session through the
    scripted and recording backends, the scripted profile and Gateway."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = ("import random, sys; from pathlib import Path; sys.path.insert(0, 'bench'); "
              "import gen; tmp = Path(sys.argv[1]); "
              "plan = gen.write_bundle(tmp / 'a.orchb'); "
              "gen.record_session(plan, gen.make_documents(random.Random(0), 2), tmp / 's.jsonl')")
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "a.orchb").stat().st_size > 0
    assert (tmp_path / "s.jsonl").read_text(encoding="utf-8").strip()


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


def test_build_plan_calls_generate_synthetic_through_the_module_global(monkeypatch):
    """The tracer's planner.synthetic_ms times the module global
    generate_synthetic, so build_plan must call it there, once per subtask."""
    calls = []

    def stub(subtask, guideline, gateway, **kwargs):
        calls.append(subtask.id)
        return []

    monkeypatch.setattr(planner, "generate_synthetic", stub)
    gateway = Gateway(BackendProfile.scripted(ScriptedBackend(e2e_cloud_handler)),
                      PHASE_CLOUD, sleep=lambda _s: None)
    plan = planner.build_plan(golden_task(), gateway)
    assert sorted(calls) == sorted(s.id for s in plan.subtasks)
    assert len(calls) == len(plan.subtasks) == 2
