"""Gateway behavior: scripted backends, retry policy, truncation, phase
separation, and record/replay sessions."""

from __future__ import annotations

import hashlib
import json

import pytest

from orchkit.errors import (
    BackendRefusalError,
    PhaseViolationError,
    TransportError,
    TruncatedError,
    UnseenRequestError,
)
from orchkit.gateway import (
    PHASE_CLOUD,
    PHASE_LOCAL,
    BackendProfile,
    ChatRequest,
    Gateway,
    RecordingBackend,
    ReplayBackend,
    RetryPolicy,
    ScriptedBackend,
    request_digest,
)

NO_SLEEP = lambda _s: None  # noqa: E731


def scripted_gateway(script, *, phase=PHASE_CLOUD, fail_first=0, retry=None, context=32768):
    backend = ScriptedBackend(script, fail_first=fail_first)
    profile = BackendProfile.scripted(backend, context=context)
    return Gateway(profile, phase, retry=retry or RetryPolicy(base_delay=0.0, jitter=0.0),
                   sleep=NO_SLEEP)


def test_chat_request_invariants():
    with pytest.raises(ValueError, match="temperature"):
        ChatRequest("s", "u", temperature=3.0, max_context_tokens=10)
    with pytest.raises(ValueError, match="user_content"):
        ChatRequest("s", "  ", temperature=0.5, max_context_tokens=10)
    with pytest.raises(ValueError, match="max_context_tokens"):
        ChatRequest("s", "u", temperature=0.5, max_context_tokens=0)


def test_profile_factory_defaults():
    cloud = BackendProfile.cloud("https://api.example", "bigmodel")
    local = BackendProfile.local("http://127.0.0.1:11434", "smallmodel")
    assert cloud.default_temperature == 0.8
    assert local.default_temperature == 0.2
    assert local.default_context == 32768
    assert BackendProfile.local("http://x", "m", temperature=0.5).default_temperature == 0.5


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
    fail_times = 2
    policy = RetryPolicy(attempts=3, base_delay=0.0, jitter=0.0)

    # Oracle: simulate the documented policy with a plain loop.
    def simulate(fails: int, attempts: int):
        calls = retries = 0
        for attempt in range(attempts):
            calls += 1
            if calls > fails:
                return calls, attempt
            retries += 1
        return calls, None

    expected_calls, expected_retry_counter = simulate(fail_times, policy.attempts)
    assert (expected_calls, expected_retry_counter) == (3, 2)

    calls = {"n": 0}

    def handler(req):
        calls["n"] += 1
        return "eventually"

    gw = scripted_gateway(handler, fail_first=fail_times, retry=policy)
    response = gw.chat("s", "u")
    assert response.raw_text == "eventually"
    assert response.retries == expected_retry_counter
    assert calls["n"] == expected_calls - fail_times  # handler runs after the failures


def test_retries_exhausted_raises_transport():
    gw = scripted_gateway(lambda r: "never", fail_first=99,
                          retry=RetryPolicy(attempts=3, base_delay=0.0, jitter=0.0))
    with pytest.raises(TransportError, match="3 attempts"):
        gw.chat("s", "u")


def test_backoff_delays_grow():
    policy = RetryPolicy(attempts=4, base_delay=0.1, max_delay=10.0, jitter=0.0)
    delays = [policy.delay(a) for a in range(3)]
    assert delays == sorted(delays) and delays[0] == pytest.approx(0.1)
    capped = RetryPolicy(attempts=4, base_delay=4.0, max_delay=5.0, jitter=0.0)
    assert capped.delay(5) == 5.0


def test_context_overflow_is_truncated_error():
    gw = scripted_gateway(lambda r: "text", context=10)
    with pytest.raises(TruncatedError, match="exceeds"):
        gw.chat("s" * 100, "u" * 100)


def test_empty_completion_is_refusal():
    gw = scripted_gateway(lambda r: "   ")
    with pytest.raises(BackendRefusalError):
        gw.chat("s", "u")


# --- phase separation -----------------------------------------------------------

def test_cloud_phase_rejects_local_profile():
    local = BackendProfile.local("http://127.0.0.1:11434", "m")
    with pytest.raises(PhaseViolationError):
        Gateway(local, PHASE_CLOUD)


def test_local_phase_rejects_cloud_profile():
    cloud = BackendProfile.cloud("https://api.example", "m")
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
    with pytest.raises(TransportError, match="not found"):
        Gateway(BackendProfile.scripted(session=str(tmp_path / "missing.jsonl")), PHASE_CLOUD)
