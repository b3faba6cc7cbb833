"""Streaming `infer`: predictions reach `--out` in input order as each
document is voted, so a failed or killed run leaves a well-formed prefix of
the uninterrupted run's file, and a run that fails before its first
document leaves no file at all.

The CLI's local channel is a scripted handler (the fixture's perfect
extractor) or a recorded session; nothing here depends on a clock except
timeouts that only a broken build reaches.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from orchkit import bundle, executor
from orchkit.executor import iter_lanes
from orchkit.gateway import (
    PHASE_LOCAL,
    BackendProfile,
    Gateway,
    RecordingBackend,
    ScriptedBackend,
)

from conftest import fake_local_extractor, fixture_documents
from test_lanes import infer, pack, scripted_channels, write_inputs

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 60.0


def read_lines(path: Path) -> list[bytes]:
    data = path.read_bytes()
    assert data.endswith(b"\n"), "torn last line"
    return data.splitlines(keepends=True)


def wait_for_lines(path: Path, count: int) -> bool:
    """Poll until `path` holds `count` complete lines; False on timeout."""
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline:
        if path.exists() and path.read_bytes().count(b"\n") >= count:
            return True
        time.sleep(0.005)
    return False


class Box:
    """A lane result that a weak reference can watch."""

    def __init__(self, value: int):
        self.value = value


def test_iter_lanes_yields_each_lane_once_it_and_earlier_lanes_are_done():
    release = threading.Event()

    def lane(i: int) -> Box:
        if i == 2 and not release.wait(TIMEOUT_S):
            raise TimeoutError("lane 2 was never released")
        return Box(i)

    lanes = iter_lanes(lane, list(range(5)), width=5)
    first = next(lanes)
    assert first.value == 0
    assert next(lanes).value == 1
    # Lane 2 is still blocked, and nothing but the caller held lane 0's result.
    watch = weakref.ref(first)
    del first
    assert watch() is None
    release.set()
    assert [box.value for box in lanes] == [2, 3, 4]


@pytest.fixture
def bundled(tmp_path):
    """Inputs and a bundle of the refined fixture plan, at `workers` = 1."""
    ws = write_inputs(tmp_path / "ws")
    assert pack(ws, "refined.json") == 0
    return ws


def test_infer_writes_first_line_before_last_document_is_voted(bundled, monkeypatch):
    last = fixture_documents()[-1].body
    release = threading.Event()

    def local(request) -> str:
        if request.user_content == last and not release.wait(TIMEOUT_S):
            raise TimeoutError("the last document was never released")
        return fake_local_extractor(request)

    scripted_channels(monkeypatch, local)
    codes = []
    run = threading.Thread(target=lambda: codes.append(infer(bundled)))
    run.start()
    try:
        streamed = wait_for_lines(bundled / "preds.jsonl", 1)
    finally:
        release.set()
        run.join(TIMEOUT_S)
    assert not run.is_alive()
    assert streamed, "no complete line while the last document was held"
    assert codes == [0]
    assert len(read_lines(bundled / "preds.jsonl")) == len(fixture_documents())


def record_session(ws: Path, docs, path: Path) -> None:
    """Record what `infer` sends over `docs` with the bundle's prompts and
    local settings, answered by the fixture's extractor."""
    plan = bundle.read_bundle(ws / "artifact.orchb").to_plan()
    path.unlink(missing_ok=True)
    gateway = Gateway(BackendProfile.scripted(
        RecordingBackend(ScriptedBackend(fake_local_extractor), path), temperature=0.2),
        PHASE_LOCAL, sleep=lambda _s: None)
    executor.run_documents(gateway, plan, docs, rounds=3)


def replay_inputs(root: Path, docs, workers: int) -> Path:
    session = root / "session.jsonl"
    ws = write_inputs(root, workers=workers, **{"local.session": session})
    assert pack(ws, "refined.json") == 0
    record_session(ws, docs, session)
    return ws


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_infer_failing_on_document_k_leaves_documents_before_it(tmp_path, workers):
    docs = fixture_documents()
    full = replay_inputs(tmp_path / "full", docs, workers)
    assert infer(full) == 0
    expected = read_lines(full / "preds.jsonl")
    assert len(expected) == len(docs)

    for k in (2, 4):  # the session lacks document k and every later one
        ws = replay_inputs(tmp_path / f"fail-{k}", docs[:k - 1], workers)
        assert infer(ws) == 4  # UnseenRequestError
        assert read_lines(ws / "preds.jsonl") == expected[:k - 1]


def drop_second_prompt(monkeypatch):
    """The bundle's plan comes back with the first prompt in both places."""
    to_plan = bundle.ArtifactBundle.to_plan

    def first_prompt_twice(self):
        plan = to_plan(self)
        return plan.with_prompts((plan.prompts[0], plan.prompts[0]))

    monkeypatch.setattr(bundle.ArtifactBundle, "to_plan", first_prompt_twice)


@pytest.mark.parametrize("case", ["rounds 0", "subtask without a prompt", "document 1 fails"])
def test_infer_failing_before_any_document_is_voted_leaves_no_file(tmp_path, monkeypatch,
                                                                  case):
    docs = fixture_documents()
    ws = replay_inputs(tmp_path / "ws", docs[1:] if case == "document 1 fails" else docs, 2)
    extra = ["--rounds", "0"] if case == "rounds 0" else []
    if case == "subtask without a prompt":
        drop_second_prompt(monkeypatch)
    assert infer(ws, *extra) == (4 if case == "document 1 fails" else 2)
    assert not (ws / "preds.jsonl").exists()


# A child `infer` whose local model kills the process, from a lane thread,
# once the documents before `crash_id` are on disk; "" never crashes.
KILLED_INFER = """
import os, sys, time
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from conftest import fake_local_extractor, fixture_documents
from orchkit import cli
from orchkit.gateway import BackendProfile, Gateway, ScriptedBackend

out, crash_id = Path(sys.argv[2]), sys.argv[3]
bodies = {d.body: i for i, d in enumerate(fixture_documents())}
crash_at = next((i for i, d in enumerate(fixture_documents()) if d.id == crash_id), None)


def local(request):
    if bodies[request.user_content] == crash_at:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if out.exists() and out.read_bytes().count(b"\\n") >= crash_at:
                os._exit(17)
            time.sleep(0.005)
        os._exit(18)
    return fake_local_extractor(request)


def make(profile, phase):
    return Gateway(BackendProfile.scripted(ScriptedBackend(local), model=profile.model,
                                           temperature=profile.default_temperature,
                                           context=profile.default_context),
                   phase, sleep=lambda _s: None)


cli.Gateway = make
sys.exit(cli.main(sys.argv[4:]))
"""


def killed_infer(ws: Path, crash_id: str) -> int:
    out = ws / "preds.jsonl"
    argv = ["infer", "--bundle", str(ws / "artifact.orchb"), "--docs", str(ws / "docs.jsonl"),
            "--out", str(out), "--config", str(ws / "orch.cfg"), "--deterministic"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", KILLED_INFER, str(ROOT / "tests"), str(out),
                           crash_id, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    return done.returncode


@pytest.mark.parametrize("workers", [1, 4])
def test_killed_infer_leaves_a_prefix_of_the_full_output(tmp_path, workers):
    full = write_inputs(tmp_path / "full", workers=workers)
    assert pack(full, "refined.json") == 0
    assert killed_infer(full, "") == 0
    expected = (full / "preds.jsonl").read_bytes()

    ws = write_inputs(tmp_path / "killed", workers=workers)
    assert pack(ws, "refined.json") == 0
    assert killed_infer(ws, "d4") == 17
    partial = (ws / "preds.jsonl").read_bytes()
    assert partial.endswith(b"\n")
    assert expected.startswith(partial)
    assert partial.count(b"\n") == 3


# The benchmark's frozen tracer wraps run_documents, write_predictions and
# summarize by name and consumes what they return; a shape it cannot handle
# must fail here, not only in a benchmark run.
BENCH_INPUTS = """
import random, sys
from pathlib import Path

sys.path.insert(0, "bench")
import gen

tmp = Path(sys.argv[1])
plan = gen.write_bundle(tmp / "a.orchb")
docs = gen.make_documents(random.Random(0), 3)
gen.record_session(plan, docs, tmp / "s.jsonl")
gen.write_documents(docs, tmp / "docs.jsonl")
gen.write_config(tmp / "orch.cfg", **{"local.kind": "scripted", "local.session": tmp / "s.jsonl",
                                      "rounds": gen.ROUNDS, "workers": 1})
"""


def test_traced_infer_writes_the_same_predictions(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("-c", BENCH_INPUTS, str(tmp_path))
    assert done.returncode == 0, done.stderr

    def infer_argv(out: str) -> list[str]:
        return ["infer", "--bundle", str(tmp_path / "a.orchb"),
                "--docs", str(tmp_path / "docs.jsonl"), "--out", str(tmp_path / out),
                "--summary", str(tmp_path / f"{out}.summary.json"),
                "--config", str(tmp_path / "orch.cfg"), "--deterministic"]

    traced = run("bench/tracer.py", "--spans", str(tmp_path / "spans.json"), "--",
                 *infer_argv("traced.jsonl"))
    assert traced.returncode == 0, traced.stderr
    plain = run("-m", "orchkit.cli", *infer_argv("plain.jsonl"))
    assert plain.returncode == 0, plain.stderr
    assert (tmp_path / "traced.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()
    assert len(read_lines(tmp_path / "plain.jsonl")) == 3
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert any(span[2] == "executor.write_predictions" for span in spans["spans"])
