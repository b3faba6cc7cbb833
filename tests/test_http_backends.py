"""The two HTTP backends against a local stdlib server: the exact wire
payloads, the API-key header, and how replies and faults map to errors."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from conftest import vessel_schema

from orchkit.errors import TransportError, TruncatedError
from orchkit.gateway import PHASE_CLOUD, PHASE_LOCAL, BackendProfile, Gateway, RetryPolicy

PROXY_VARS = ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY",
              "http_proxy", "https_proxy", "all_proxy", "no_proxy")

VESSEL_JSON_SCHEMA = {
    "type": "object",
    "properties": {
        "reasoning": {"type": "string"},
        "values": {"type": "object",
                   "properties": {
                       "smv_contact": {"type": "string",
                                       "enum": ["none", "abutment", "encasement", "unknown"]},
                       "celiac_contact": {"type": "string",
                                          "enum": ["true", "false", "unknown"]}},
                   "required": ["smv_contact", "celiac_contact"]},
    },
    "required": ["reasoning", "values"],
}

MESSAGES = [{"role": "system", "content": "sys"}, {"role": "user", "content": "doc"}]


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - http.server's method name
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        self.server.seen.append((self.path, dict(self.headers), body))
        status, reply = self.server.reply
        data = json.dumps(reply).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def server(monkeypatch):
    for name in PROXY_VARS:
        monkeypatch.delenv(name, raising=False)
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    httpd.seen = []
    httpd.reply = (200, {})
    thread = threading.Thread(target=httpd.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _gateway(server, channel: str) -> Gateway:
    base = f"http://127.0.0.1:{server.server_port}"
    if channel == "cloud":
        profile, phase = BackendProfile.cloud(f"{base}/v1/", "big-planner"), PHASE_CLOUD
    else:
        profile, phase = BackendProfile.local(f"{base}/", "small-extractor"), PHASE_LOCAL
    return Gateway(profile, phase, retry=RetryPolicy(attempts=2, base_delay=0.0, jitter=0.0),
                   sleep=lambda _s: None)


def _reply(channel: str, text: str, *, length: bool = False) -> dict:
    if channel == "cloud":
        return {"choices": [{"message": {"content": text},
                             "finish_reason": "length" if length else "stop"}]}
    return {"message": {"role": "assistant", "content": text},
            "done": True, "done_reason": "length" if length else "stop"}


@pytest.mark.parametrize("with_schema", [False, True])
def test_local_payload(server, with_schema):
    server.reply = (200, _reply("local", "extracted"))
    schema = vessel_schema() if with_schema else None
    response = _gateway(server, "local").chat("sys", "doc", response_schema=schema)
    assert response.raw_text == "extracted"
    assert response.finish_reason == "complete"
    assert response.retries == 0
    assert response.latency_ms > 0
    [(path, headers, body)] = server.seen
    assert path == "/api/chat"
    expected = {"model": "small-extractor", "messages": MESSAGES, "stream": False,
                "options": {"temperature": 0.2, "num_ctx": 32768}}
    if with_schema:
        expected["format"] = VESSEL_JSON_SCHEMA
    assert body == expected
    assert "Authorization" not in headers


@pytest.mark.parametrize("with_schema", [False, True])
@pytest.mark.parametrize("api_key", [None, "sk-test"])
def test_cloud_payload_and_key(server, monkeypatch, with_schema, api_key):
    if api_key is None:
        monkeypatch.delenv("ORCH_CLOUD_API_KEY", raising=False)
    else:
        monkeypatch.setenv("ORCH_CLOUD_API_KEY", api_key)
    server.reply = (200, _reply("cloud", "planned"))
    schema = vessel_schema() if with_schema else None
    response = _gateway(server, "cloud").chat("sys", "doc", response_schema=schema)
    assert response.raw_text == "planned"
    assert response.finish_reason == "complete"
    assert response.latency_ms > 0
    [(path, headers, body)] = server.seen
    assert path == "/v1/chat/completions"
    expected = {"model": "big-planner", "messages": MESSAGES, "temperature": 0.8}
    if with_schema:
        expected["response_format"] = {"type": "json_object"}
    assert body == expected
    assert headers["Content-Type"] == "application/json"
    if api_key is None:
        assert "Authorization" not in headers
    else:
        assert headers["Authorization"] == f"Bearer {api_key}"


@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_length_stop_is_truncated(server, channel):
    server.reply = (200, _reply(channel, "cut off", length=True))
    with pytest.raises(TruncatedError):
        _gateway(server, channel).chat("sys", "doc")
    assert len(server.seen) == 1


@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_server_error_on_every_attempt_names_channel(server, channel):
    server.reply = (500, {"error": "down"})
    with pytest.raises(TransportError, match=f"{channel} chat call failed"):
        _gateway(server, channel).chat("sys", "doc")
    assert len(server.seen) == 2


@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_reply_without_reply_field_is_malformed(server, channel):
    server.reply = (200, {"unexpected": True})
    with pytest.raises(TransportError, match="malformed"):
        _gateway(server, channel).chat("sys", "doc")
