"""The two HTTP backends against a local stdlib server: the exact wire
bytes, the API-key header, certificate verification, and how replies and
faults map to errors."""

from __future__ import annotations

import json
import os
import shutil
import ssl
import subprocess
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from conftest import refined_plan, vessel_schema

from orchkit.errors import ModelCallError, TransportError
from orchkit.executor import run_subtask
from orchkit.gateway import (
    PHASE_CLOUD,
    PHASE_LOCAL,
    RETRY_ATTEMPTS,
    BackendProfile,
    Gateway,
)
from orchkit.model import Document

PROXY_VARS = ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY",
              "http_proxy", "https_proxy", "all_proxy", "no_proxy")
CA_VARS = ("SSL_CERT_FILE", "SSL_CERT_DIR", "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE")
SRC = Path(__file__).resolve().parents[1] / "src"

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
        self.server.seen.append((self.path, dict(self.headers), self.rfile.read(length)))
        status, reply = self.server.reply
        data = json.dumps(reply).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@contextmanager
def _serving(monkeypatch, tls: tuple[str, str] | None = None):
    for name in PROXY_VARS + CA_VARS:
        monkeypatch.delenv(name, raising=False)
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    httpd.base = f"http://127.0.0.1:{httpd.server_port}"
    if tls is not None:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(*tls)
        httpd.socket = context.wrap_socket(httpd.socket, server_side=True)
        httpd.base = f"https://127.0.0.1:{httpd.server_port}"
    httpd.seen = []
    httpd.reply = (200, {})
    thread = threading.Thread(target=httpd.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def server(monkeypatch):
    with _serving(monkeypatch) as httpd:
        yield httpd


@pytest.fixture(scope="module")
def self_signed(tmp_path_factory) -> tuple[str, str]:
    """A throwaway certificate for 127.0.0.1 that no trust store holds."""
    if shutil.which("openssl") is None:
        pytest.skip("openssl is not on PATH")
    folder = tmp_path_factory.mktemp("tls")
    cert, key = str(folder / "cert.pem"), str(folder / "key.pem")
    subprocess.run(["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes",
                    "-keyout", key, "-out", cert, "-days", "1", "-subj", "/CN=127.0.0.1",
                    "-addext", "subjectAltName=IP:127.0.0.1"],
                   check=True, capture_output=True, timeout=60)
    return cert, key


@pytest.fixture
def tls_server(monkeypatch, self_signed):
    with _serving(monkeypatch, self_signed) as httpd:
        yield httpd


def _wire(payload: dict) -> bytes:
    """The request body bytes for a JSON payload."""
    return json.dumps(payload, allow_nan=False).encode("utf-8")


def _gateway(server, channel: str) -> Gateway:
    base = server.base
    if channel == "cloud":
        profile, phase = BackendProfile.cloud(f"{base}/v1/", "big-planner"), PHASE_CLOUD
    else:
        profile, phase = BackendProfile.local(f"{base}/", "small-extractor"), PHASE_LOCAL
    return Gateway(profile, phase, sleep=lambda _s: None)


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
    assert body == _wire(expected)
    assert "Authorization" not in headers


def test_seeded_local_payload_sends_options_seed(server):
    server.reply = (200, _reply("local", "extracted"))
    assert _gateway(server, "local").chat("sys", "doc", seed=3).raw_text == "extracted"
    [(path, _headers, body)] = server.seen
    assert path == "/api/chat"
    assert body == (b'{"model": "small-extractor", "messages": [{"role": "system", '
                    b'"content": "sys"}, {"role": "user", "content": "doc"}], '
                    b'"stream": false, "options": {"temperature": 0.2, '
                    b'"num_ctx": 32768, "seed": 3}}')


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
    assert body == _wire(expected)
    assert headers["Content-Type"] == "application/json"
    if api_key is None:
        assert "Authorization" not in headers
    else:
        assert headers["Authorization"] == f"Bearer {api_key}"


@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_length_stop_is_truncated(server, channel):
    server.reply = (200, _reply(channel, "cut off", length=True))
    with pytest.raises(ModelCallError) as err:
        _gateway(server, channel).chat("sys", "doc")
    assert err.value.failure == "truncation"
    assert len(server.seen) == 1


@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_server_error_on_every_attempt_names_channel(server, channel):
    server.reply = (500, {"error": "down"})
    with pytest.raises(TransportError, match=f"{channel} chat call failed"):
        _gateway(server, channel).chat("sys", "doc")
    assert len(server.seen) == RETRY_ATTEMPTS


@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_reply_without_reply_field_is_malformed(server, channel):
    server.reply = (200, {"unexpected": True})
    with pytest.raises(ModelCallError, match="malformed") as err:
        _gateway(server, channel).chat("sys", "doc")
    assert err.value.failure == "malformed reply"
    assert len(server.seen) == 1


@pytest.mark.parametrize("content", [5, [], ["text"], {"text": "x"}, False],
                         ids=["number", "empty-list", "list", "object", "false"])
@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_reply_content_not_a_string_is_malformed(server, channel, content):
    server.reply = (200, _reply(channel, content))
    with pytest.raises(ModelCallError, match="malformed") as err:
        _gateway(server, channel).chat("sys", "doc")
    assert err.value.failure == "malformed reply"
    assert len(server.seen) == 1


def test_local_reply_content_not_a_string_is_an_unparseable_run(server):
    server.reply = (200, _reply("local", 5))
    plan = refined_plan()
    subtask = plan.subtasks[1]
    run = run_subtask(_gateway(server, "local"), subtask, plan.prompt_for(subtask.id),
                      Document("d1", "Report one."), seed=1)
    assert run.parse_status == "unparseable"
    assert run.reasoning.startswith("malformed reply: ")
    assert len(server.seen) == 1


def test_cloud_tls_verifies_the_certificate(tls_server):
    tls_server.reply = (200, _reply("cloud", "planned"))
    with pytest.raises(TransportError, match="cloud chat call failed"):
        _gateway(tls_server, "cloud").chat("sys", "doc")
    assert tls_server.seen == []


def test_cloud_tls_trusts_ssl_cert_file(tls_server, monkeypatch, self_signed):
    monkeypatch.setenv("SSL_CERT_FILE", self_signed[0])
    tls_server.reply = (200, _reply("cloud", "planned"))
    assert _gateway(tls_server, "cloud").chat("sys", "doc").raw_text == "planned"
    assert len(tls_server.seen) == 1


def test_http_backends_need_no_requests_package(server):
    server.reply = (200, {**_reply("cloud", "planned"), **_reply("local", "extracted")})
    script = ("import sys; sys.modules['requests'] = None\n"
              "from orchkit.gateway import PHASE_CLOUD, PHASE_LOCAL, BackendProfile, Gateway\n"
              "print(Gateway(BackendProfile.cloud(sys.argv[1], 'm'), PHASE_CLOUD)"
              ".chat('sys', 'doc').raw_text)\n"
              "print(Gateway(BackendProfile.local(sys.argv[1], 'm'), PHASE_LOCAL)"
              ".chat('sys', 'doc').raw_text)\n")
    done = subprocess.run([sys.executable, "-c", script, server.base],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["planned", "extracted"]
    assert [path for path, _headers, _body in server.seen] == ["/chat/completions", "/api/chat"]
