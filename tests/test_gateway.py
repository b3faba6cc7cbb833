"""Gateway behavior: scripted backends, retry policy and its reply clock,
truncation, phase separation, and record/replay sessions."""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
from collections import defaultdict

import pytest

from conftest import build_e2e_workspace
from orchkit import cli
from orchkit.config import ProfileConfig
from orchkit.errors import (
    ModelCallError,
    PhaseViolationError,
    TransportError,
    UnseenRequestError,
)
from orchkit.gateway import (
    KIND_CLOUD_HTTP,
    KIND_LOCAL_HTTP,
    PHASE_CLOUD,
    PHASE_LOCAL,
    RETRY_ATTEMPTS,
    RETRY_BASE_DELAY,
    BackendProfile,
    ChatRequest,
    Gateway,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    request_digest,
)

NO_SLEEP = lambda _s: None  # noqa: E731


def scripted_gateway(script, *, phase=PHASE_CLOUD, context=32768, sleep=NO_SLEEP):
    profile = BackendProfile.scripted(ScriptedBackend(script), context=context)
    return Gateway(profile, phase, sleep=sleep)


def failing(times: int, reply: str = "eventually"):
    """A handler that raises TransportError on its first `times` calls."""
    calls = {"n": 0}

    def handler(request):
        calls["n"] += 1
        if calls["n"] <= times:
            raise TransportError(f"scripted transport fault {calls['n']}")
        return reply

    return handler, calls


def test_chat_request_invariants():
    with pytest.raises(ValueError, match="temperature"):
        ChatRequest("s", "u", temperature=3.0, max_context_tokens=10)
    with pytest.raises(ValueError, match="user_content"):
        ChatRequest("s", "  ", temperature=0.5, max_context_tokens=10)
    with pytest.raises(ValueError, match="max_context_tokens"):
        ChatRequest("s", "u", temperature=0.5, max_context_tokens=0)


def test_profile_factory_defaults():
    cloud = ProfileConfig(KIND_CLOUD_HTTP, "https://api.example", "bigmodel").to_profile("cloud")
    local = ProfileConfig(KIND_LOCAL_HTTP, "http://127.0.0.1:11434", "smallmodel").to_profile(
        "local")
    assert cloud.default_temperature == 0.8
    assert local.default_temperature == 0.2
    assert local.default_context == 32768
    warm = ProfileConfig(KIND_LOCAL_HTTP, "http://x", "m", temperature=0.5).to_profile("local")
    assert warm.default_temperature == 0.5


def test_profile_requires_endpoint_or_script():
    with pytest.raises(ValueError, match="endpoint"):
        BackendProfile(kind="cloud_http")
    with pytest.raises(ValueError, match="backend or a session"):
        BackendProfile(kind="scripted")


def test_scripted_echo_and_purity():
    gw = scripted_gateway(lambda req: f"echo:{req.user_content}")
    first = gw.chat("system", "hello")
    second = gw.chat("system", "hello")
    assert first.raw_text == "echo:hello"
    assert first.raw_text == second.raw_text
    assert first.finish_reason == "complete"


def test_retry_twice_then_succeed_matches_loop_oracle():
    # Oracle: simulate the documented policy with a plain loop.
    def simulate(fails: int, attempts: int):
        calls = 0
        for attempt in range(attempts):
            calls += 1
            if calls > fails:
                return calls, attempt
        return calls, None

    assert simulate(2, RETRY_ATTEMPTS) == (3, 2)
    for fail_times in range(RETRY_ATTEMPTS):  # a handler that raises k times: k retries
        expected_calls, expected_retries = simulate(fail_times, RETRY_ATTEMPTS)
        handler, calls = failing(fail_times)
        response = scripted_gateway(handler).chat("s", "u")
        assert response.raw_text == "eventually"
        assert response.retries == expected_retries == fail_times
        assert calls["n"] == expected_calls


def test_retries_exhausted_raises_transport():
    handler, calls = failing(99)
    with pytest.raises(TransportError, match="3 attempts"):
        scripted_gateway(handler).chat("s", "u")
    assert calls["n"] == RETRY_ATTEMPTS == 3


def test_backoff_delays_grow(monkeypatch):
    """0.25 s, then 0.5 s, each at most 10% higher; the sleep is the fake clock."""
    def delays_with(draw):
        if draw is not None:
            monkeypatch.setattr("orchkit.gateway.random.random", lambda: draw)
        delays = []
        with pytest.raises(TransportError):
            scripted_gateway(failing(99)[0], sleep=delays.append).chat("s", "u")
        return delays

    delays = delays_with(None)
    assert len(delays) == RETRY_ATTEMPTS - 1 == 2
    assert 0.25 <= delays[0] <= 0.25 * 1.1 and 0.5 <= delays[1] <= 0.5 * 1.1
    assert delays_with(0.0) == [0.25, 0.5]
    assert delays_with(0.999999) == pytest.approx([0.275, 0.55], abs=1e-5)


# --- retries clocked by replies ---------------------------------------------------
# These gateways get sleep=None: they wait their own way, which a reply can end.

class _FailsFirst:
    """Handler: a request whose text starts with `flaky` fails its first
    attempt with a TransportError, and while `hold` is clear its later
    attempts wait for it before replying. Every attempt's time is kept."""

    def __init__(self):
        self.attempts: dict[str, list[float]] = defaultdict(list)
        self.hold = threading.Event()
        self.hold.set()
        self._lock = threading.Lock()

    def __call__(self, request):
        with self._lock:
            times = self.attempts[request.user_content]
            times.append(time.monotonic())
            first = len(times) == 1
        if request.user_content.startswith("flaky"):
            if first:
                raise TransportError("scripted 503")
            assert self.hold.wait(10)
        return "ok"

    def retries(self) -> int:
        with self._lock:
            return sum(len(times) - 1 for times in self.attempts.values())


def _lanes(gateway, *texts) -> list[threading.Thread]:
    threads = [threading.Thread(target=gateway.chat, args=("s", text), daemon=True)
               for text in texts]
    for thread in threads:
        thread.start()
    return threads


def _until(condition, seconds: float = 10.0) -> None:
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def _joined(threads) -> bool:
    for thread in threads:
        thread.join(timeout=10)
    return not any(thread.is_alive() for thread in threads)


def test_a_reply_to_another_call_releases_a_waiting_retry():
    handler = _FailsFirst()
    gateway = scripted_gateway(handler, sleep=None)
    lane = _lanes(gateway, "flaky")
    _until(lambda: gateway._waiting)
    replied = time.monotonic()
    assert gateway.chat("s", "steady").raw_text == "ok"
    assert _joined(lane)
    _failed, retried = handler.attempts["flaky"]
    assert retried - replied < 0.2 < RETRY_BASE_DELAY


def test_with_no_other_reply_a_retry_waits_its_whole_backoff():
    handler = _FailsFirst()
    assert scripted_gateway(handler, sleep=None).chat("s", "flaky").retries == 1
    failed, retried = handler.attempts["flaky"]
    assert retried - failed >= RETRY_BASE_DELAY


def test_one_reply_releases_only_the_oldest_waiting_retry(monkeypatch):
    monkeypatch.setattr("orchkit.gateway.RETRY_BASE_DELAY", 30.0)  # only replies end waits
    handler = _FailsFirst()
    handler.hold.clear()
    gateway = scripted_gateway(handler, sleep=None)
    lanes = _lanes(gateway, "flaky 1", "flaky 2")
    _until(lambda: len(gateway._waiting) == 2)
    oldest, newest = gateway._waiting
    assert gateway.chat("s", "steady").raw_text == "ok"
    _until(lambda: handler.retries() == 1)
    time.sleep(0.05)  # room for a second release, were there one
    assert handler.retries() == 1
    assert oldest.is_set() and not newest.is_set()
    handler.hold.set()  # the released retry replies, which releases the other
    assert _joined(lanes)
    assert handler.retries() == 2 and not gateway._waiting


def test_infer_against_a_refusing_port_waits_out_every_backoff(tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    ws = build_e2e_workspace(tmp_path / "ws")
    config = ["--config", str(ws["config"])]
    plan, validated, bundle = tmp_path / "plan.json", tmp_path / "v.json", tmp_path / "a.orchb"
    assert cli.main(["plan", "--task", str(ws["task"]), "--guideline", str(ws["guideline"]),
                     "--prefs", str(ws["prefs"]), "--out", str(plan), *config]) == 0
    assert cli.main(["validate", "--plan", str(plan), "--out", str(validated), *config]) == 0
    assert cli.main(["pack", "--plan", str(validated), "--out", str(bundle), *config]) == 0
    connects = []
    create_connection = socket.create_connection

    def counting(address, *args, **kwargs):
        connects.append(address)
        return create_connection(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    dead = tmp_path / "dead.cfg"
    preds = tmp_path / "preds.jsonl"
    with socket.socket() as unheard:  # bound, never listening: connections are refused
        unheard.bind(("127.0.0.1", 0))
        dead.write_text("cloud.kind = scripted\ncloud.session = unused.jsonl\n"
                        "local.kind = local_http\nlocal.model = m\nlocal.endpoint = "
                        f"http://127.0.0.1:{unheard.getsockname()[1]}\n", encoding="utf-8")
        started = time.monotonic()
        assert cli.main(["infer", "--bundle", str(bundle), "--docs", str(ws["docs"]),
                         "--out", str(preds), "--config", str(dead), "--rounds", "1"]) == 0
        took = time.monotonic() - started
    runs = [run for line in preds.read_text(encoding="utf-8").splitlines()
            for run in json.loads(line)["rounds"][0]["runs"]]
    assert len(runs) == 10  # 5 documents, 1 round, 2 subtasks
    assert all(f"gave up after {RETRY_ATTEMPTS} attempts" in run["reasoning"] for run in runs)
    assert len(connects) == RETRY_ATTEMPTS * len(runs)
    assert took >= sum(RETRY_BASE_DELAY * 2 ** attempt for attempt in range(RETRY_ATTEMPTS - 1))


def test_context_overflow_is_truncated_error():
    gw = scripted_gateway(lambda r: "text", context=10)
    with pytest.raises(ModelCallError, match="exceeds") as err:
        gw.chat("s" * 100, "u" * 100)
    assert err.value.failure == "truncation"


def test_empty_completion_is_refusal():
    gw = scripted_gateway(lambda r: "   ")
    with pytest.raises(ModelCallError) as err:
        gw.chat("s", "u")
    assert err.value.failure == "empty reply"


# --- phase separation -----------------------------------------------------------

def test_cloud_phase_rejects_local_profile():
    local = BackendProfile(KIND_LOCAL_HTTP, "http://127.0.0.1:11434", "m")
    with pytest.raises(PhaseViolationError):
        Gateway(local, PHASE_CLOUD)


def test_local_phase_rejects_cloud_profile():
    cloud = BackendProfile(KIND_CLOUD_HTTP, "https://api.example", "m")
    with pytest.raises(PhaseViolationError):
        Gateway(cloud, PHASE_LOCAL)


def test_scripted_allowed_in_both_phases():
    backend = ScriptedBackend(lambda r: "ok")
    Gateway(BackendProfile.scripted(backend), PHASE_CLOUD, sleep=NO_SLEEP)
    Gateway(BackendProfile.scripted(backend), PHASE_LOCAL, sleep=NO_SLEEP)


# --- record / replay --------------------------------------------------------------

def _record_three(tmp_path):
    session = tmp_path / "session.jsonl"
    live = ScriptedBackend(lambda req: f"reply:{req.user_content}")
    recorder = RecordingBackend(live, session)
    profile = BackendProfile.scripted(recorder)
    gw = Gateway(profile, PHASE_CLOUD, sleep=NO_SLEEP)
    responses = [gw.chat("sys", f"call {i}") for i in range(3)]
    return session, responses


def test_record_then_replay_round_trip(tmp_path):
    session, recorded = _record_three(tmp_path)
    replay_gw = Gateway(BackendProfile.scripted(session=str(session)), PHASE_CLOUD, sleep=NO_SLEEP)
    for i, original in enumerate(recorded):
        again = replay_gw.chat("sys", f"call {i}")
        assert again.raw_text == original.raw_text
        assert again.finish_reason == original.finish_reason


def test_replay_unseen_request_errors(tmp_path):
    session, _ = _record_three(tmp_path)
    replay_gw = Gateway(BackendProfile.scripted(session=str(session)), PHASE_CLOUD, sleep=NO_SLEEP)
    with pytest.raises(UnseenRequestError):
        replay_gw.chat("sys", "call 3")


def test_replay_is_deterministic_across_runs(tmp_path):
    session, _ = _record_three(tmp_path)

    def transcript() -> str:
        gw = Gateway(BackendProfile.scripted(session=str(session)), PHASE_CLOUD, sleep=NO_SLEEP)
        out = [gw.chat("sys", f"call {i}").raw_text for i in range(3)]
        return hashlib.sha256(json.dumps(out).encode()).hexdigest()

    assert transcript() == transcript()
    # The session file itself is untouched by replay.
    digest_before = hashlib.sha256(session.read_bytes()).hexdigest()
    transcript()
    assert hashlib.sha256(session.read_bytes()).hexdigest() == digest_before


def test_replay_sequences_stick_on_last(tmp_path):
    session = tmp_path / "seq.jsonl"
    req = ChatRequest("s", "u", temperature=0.2, max_context_tokens=100)
    digest = request_digest(req)
    with session.open("w", encoding="utf-8") as fh:
        for text in ("first", "second"):
            fh.write(json.dumps({"digest": digest,
                                 "response": {"raw_text": text,
                                              "finish_reason": "complete"}}) + "\n")
    backend = ReplayBackend(session)
    assert [backend.complete(req).raw_text for _ in range(4)] == \
        ["first", "second", "second", "second"]


def test_seed_is_part_of_the_request_only_when_set(tmp_path):
    session = tmp_path / "seeded.jsonl"
    gw = Gateway(BackendProfile.scripted(RecordingBackend(
        ScriptedBackend(lambda req: f"round {req.seed}"), session)), PHASE_LOCAL,
        sleep=NO_SLEEP)
    assert [gw.chat("s", "u", seed=n).raw_text for n in (1, 2, None)] == [
        "round 1", "round 2", "round None"]
    records = [json.loads(line) for line in session.read_text(encoding="utf-8").splitlines()]
    assert [r["request"].get("seed", "absent") for r in records] == [1, 2, "absent"]
    assert len({r["digest"] for r in records}) == 3
    replay = Gateway(BackendProfile.scripted(session=str(session)), PHASE_LOCAL,
                     sleep=NO_SLEEP)
    assert [replay.chat("s", "u", seed=n).raw_text for n in (2, 1)] == ["round 2", "round 1"]
    with pytest.raises(UnseenRequestError) as unseen:
        replay.chat("s", "u", seed=3)
    assert "re-recorded" not in str(unseen.value)


def test_replay_names_a_session_recorded_before_seeds(tmp_path):
    session, _ = _record_three(tmp_path)
    replay_gw = Gateway(BackendProfile.scripted(session=str(session)), PHASE_CLOUD, sleep=NO_SLEEP)
    assert replay_gw.chat("sys", "call 1").raw_text == "reply:call 1"
    with pytest.raises(UnseenRequestError, match="before per-round seeds must be re-recorded"):
        replay_gw.chat("sys", "call 1", seed=1)
    with pytest.raises(UnseenRequestError) as unseen:
        replay_gw.chat("sys", "call 3")  # unseeded: the bare message
    assert "re-recorded" not in str(unseen.value)


def test_record_and_replay_requires_existing_session(tmp_path):
    with pytest.raises(FileNotFoundError):
        Gateway(BackendProfile.scripted(session=str(tmp_path / "missing.jsonl")), PHASE_CLOUD)
