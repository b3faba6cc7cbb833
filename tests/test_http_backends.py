"""The two HTTP backends against local stdlib servers: the exact wire
bytes, the API-key header, certificate verification, proxies, persistent
connections, and how replies and faults map to errors."""

from __future__ import annotations

import base64
import json
import os
import re
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import (
    build_e2e_workspace,
    e2e_cloud_handler,
    fake_local_extractor,
    fixture_documents,
    refined_plan,
    vessel_schema,
)

from orchkit.bundle import save_plan
from orchkit.cli import main
from orchkit.config import ProfileConfig
from orchkit.errors import ModelCallError, TransportError
from orchkit.executor import run_subtask
from orchkit.gateway import (
    HTTP_TIMEOUT,
    KIND_CLOUD_HTTP,
    KIND_LOCAL_HTTP,
    PHASE_CLOUD,
    PHASE_LOCAL,
    RETRY_ATTEMPTS,
    Gateway,
)
from orchkit.model import Document, FeatureSchema, FieldSpec

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


class _TunnelRefused(_Handler):
    """A proxy that records each CONNECT and refuses it."""

    def do_CONNECT(self):  # noqa: N802 - http.server's method name
        self.server.seen.append((self.path, dict(self.headers), b""))
        self.send_response(407)
        self.send_header("Content-Length", "0")
        self.end_headers()


@contextmanager
def _running(httpd):
    """Serve `httpd` on a thread until the block ends; proxy and CA
    variables are cleared by the caller."""
    thread = threading.Thread(target=httpd.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _clear_environment(monkeypatch) -> None:
    for name in PROXY_VARS + CA_VARS:
        monkeypatch.delenv(name, raising=False)


@contextmanager
def _serving(monkeypatch, tls: tuple[str, str] | None = None, handler=_Handler):
    _clear_environment(monkeypatch)
    httpd = HTTPServer(("127.0.0.1", 0), handler)
    httpd.base = f"http://127.0.0.1:{httpd.server_port}"
    if tls is not None:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(*tls)
        httpd.socket = context.wrap_socket(httpd.socket, server_side=True)
        httpd.base = f"https://127.0.0.1:{httpd.server_port}"
    httpd.seen = []
    httpd.reply = (200, {})
    with _running(httpd):
        yield httpd


class _ModelHandler(BaseHTTPRequestHandler):
    """A keep-alive model endpoint: answers each chat POST, in its channel's
    reply form, with `server.answer` of the request the payload carries.
    An answer that raises drops the connection without a reply."""

    protocol_version = "HTTP/1.1"
    timeout = 10  # a connection left idle this long is closed

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):  # noqa: N802 - http.server's method name
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.requests += 1
        system, user = (message["content"] for message in payload["messages"])
        request = SimpleNamespace(system_prompt=system, user_content=user,
                                  seed=payload.get("options", {}).get("seed"))
        channel = "cloud" if self.path.endswith("/chat/completions") else "local"
        data = json.dumps(_reply(channel, self.server.answer(request))).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()  # no `Connection: close`: the connection stays open
        self.wfile.write(data)
        with self.server.lock:
            self.server.calls += 1
        self.close_connection = self.server.drop_idle

    def log_message(self, *args):
        pass


class _ModelServer(ThreadingHTTPServer):
    """Counts connections, requests and answered calls; `closed` is released
    each time the server closes a connection."""

    def __init__(self, answer, *, drop_idle: bool = False,
                 tls: tuple[str, str] | None = None):
        super().__init__(("127.0.0.1", 0), _ModelHandler)
        self.answer = answer
        self.drop_idle = drop_idle
        self.lock = threading.Lock()
        self.connections = self.requests = self.calls = 0
        self.closed = threading.Semaphore(0)
        self.base = f"http://127.0.0.1:{self.server_port}"
        if tls is not None:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(*tls)
            self.socket = context.wrap_socket(self.socket, server_side=True)
            self.base = f"https://127.0.0.1:{self.server_port}"

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()

    def handle_error(self, request, client_address):
        pass  # an answer that raises only drops its connection


@contextmanager
def _model_server(monkeypatch, answer, **options):
    _clear_environment(monkeypatch)
    with _running(_ModelServer(answer, **options)) as httpd:
        yield httpd


def _echo(request) -> str:
    return request.user_content


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


def _gateway(server, channel: str, sleep=lambda _s: None) -> Gateway:
    base = server.base
    if channel == "cloud":
        config, phase = ProfileConfig(KIND_CLOUD_HTTP, f"{base}/v1/", "big-planner"), PHASE_CLOUD
    else:
        config, phase = ProfileConfig(KIND_LOCAL_HTTP, f"{base}/", "small-extractor"), PHASE_LOCAL
    return Gateway(config.to_profile(channel), phase, sleep=sleep)


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


def test_local_payload_lets_a_text_field_hold_any_string(server):
    # A text field has no enum, and an optional one is not required.
    server.reply = (200, _reply("local", "extracted"))
    schema = FeatureSchema((*vessel_schema().fields, FieldSpec("finding", "text"),
                            FieldSpec("note", "text", required=False)))
    _gateway(server, "local").chat("sys", "doc", response_schema=schema)
    [(_path, _headers, body)] = server.seen
    assert body == (
        b'{"model": "small-extractor", "messages": [{"role": "system", "content": "sys"}, '
        b'{"role": "user", "content": "doc"}], "stream": false, "options": '
        b'{"temperature": 0.2, "num_ctx": 32768}, "format": {"type": "object", '
        b'"properties": {"reasoning": {"type": "string"}, "values": {"type": "object", '
        b'"properties": {"smv_contact": {"type": "string", "enum": ["none", "abutment", '
        b'"encasement", "unknown"]}, "celiac_contact": {"type": "string", "enum": '
        b'["true", "false", "unknown"]}, "finding": {"type": "string"}, "note": '
        b'{"type": "string"}}, "required": ["smv_contact", "celiac_contact", "finding"]}}, '
        b'"required": ["reasoning", "values"]}}')


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
              "from orchkit.config import ProfileConfig\n"
              "from orchkit.gateway import PHASE_CLOUD, PHASE_LOCAL, Gateway\n"
              "for kind, phase in (('cloud_http', PHASE_CLOUD), ('local_http', PHASE_LOCAL)):\n"
              "    profile = ProfileConfig(kind, sys.argv[1], 'm').to_profile(phase)\n"
              "    print(Gateway(profile, phase).chat('sys', 'doc').raw_text)\n")
    done = subprocess.run([sys.executable, "-c", script, server.base],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["planned", "extracted"]
    assert [path for path, _headers, _body in server.seen] == ["/chat/completions", "/api/chat"]


CHAT_ONCE = ("import sys\n"
             "from orchkit.config import ProfileConfig\n"
             "from orchkit.gateway import Gateway\n"
             "kind, phase, endpoint = sys.argv[1:]\n"
             "profile = ProfileConfig(kind, endpoint, 'm').to_profile(phase)\n"
             "print(Gateway(profile, phase, sleep=lambda _s: None).chat('sys', 'doc').raw_text)\n")

# Nothing listens here, so only a proxy can answer a call to this origin.
NOWHERE = "127.0.0.1:9"


def _chat_in_child(channel: str, endpoint: str, **env: str) -> subprocess.CompletedProcess:
    """One chat call in a fresh interpreter, whose HTTP client reads the
    proxy variables in `env` and no others."""
    kind = KIND_CLOUD_HTTP if channel == "cloud" else KIND_LOCAL_HTTP
    return subprocess.run([sys.executable, "-c", CHAT_ONCE, kind, channel, endpoint],
                          env={**os.environ, "PYTHONPATH": str(SRC), **env},
                          capture_output=True, text=True, timeout=60)


def test_http_proxy_receives_the_absolute_uri(server):
    server.reply = (200, _reply("local", "proxied"))
    done = _chat_in_child("local", f"http://{NOWHERE}/", HTTP_PROXY=server.base)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["proxied"]
    [(path, headers, body)] = server.seen
    assert path == f"http://{NOWHERE}/api/chat"
    assert "Proxy-Authorization" not in headers
    assert json.loads(body)["model"] == "m"


def test_no_proxy_naming_the_host_bypasses_the_proxy(server, monkeypatch):
    server.reply = (200, _reply("local", "direct"))
    with _serving(monkeypatch) as proxy:
        done = _chat_in_child("local", f"{server.base}/", HTTP_PROXY=proxy.base,
                              NO_PROXY="127.0.0.1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["direct"]
    assert proxy.seen == []
    assert [path for path, _headers, _body in server.seen] == ["/api/chat"]


def test_proxy_credentials_become_proxy_authorization(server):
    server.reply = (200, _reply("local", "proxied"))
    proxy = server.base.replace("http://", "http://us%65r:p%40ss@")
    done = _chat_in_child("local", f"http://{NOWHERE}/", HTTP_PROXY=proxy)
    assert done.returncode == 0, done.stderr
    [(path, headers, _body)] = server.seen
    assert path == f"http://{NOWHERE}/api/chat"
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(
        b"user:p@ss").decode("ascii")


def test_https_goes_through_a_connect_tunnel_carrying_the_credentials(monkeypatch):
    with _serving(monkeypatch, handler=_TunnelRefused) as proxy:
        done = _chat_in_child("cloud", f"https://{NOWHERE}/v1",
                              HTTPS_PROXY=proxy.base.replace("http://", "http://user:pw@"))
    assert done.returncode != 0
    assert "TransportError" in done.stderr and "407" in done.stderr
    credentials = "Basic " + base64.b64encode(b"user:pw").decode("ascii")
    assert [(path, headers["Proxy-Authorization"]) for path, headers, _body in proxy.seen] == [
        (NOWHERE, credentials)] * RETRY_ATTEMPTS


@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_sequential_calls_share_one_connection(monkeypatch, channel):
    with _model_server(monkeypatch, _echo) as server, _gateway(server, channel) as gateway:
        replies = [gateway.chat("sys", f"doc {i}").raw_text for i in range(5)]
    assert replies == [f"doc {i}" for i in range(5)]
    assert (server.calls, server.connections) == (5, 1)


def test_tls_calls_share_one_connection(monkeypatch, self_signed):
    with _model_server(monkeypatch, _echo, tls=self_signed) as server:
        monkeypatch.setenv("SSL_CERT_FILE", self_signed[0])
        with _gateway(server, "cloud") as gateway:
            replies = [gateway.chat("sys", f"doc {i}").raw_text for i in range(5)]
    assert replies == [f"doc {i}" for i in range(5)]
    assert (server.calls, server.connections) == (5, 1)


@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_an_idle_connection_the_server_dropped_is_resent_at_once(monkeypatch, channel):
    # The server advertises keep-alive, then closes each connection after
    # its reply: every later call finds its idle connection dead.
    sleeps = []
    with (_model_server(monkeypatch, _echo, drop_idle=True) as server,
          _gateway(server, channel, sleeps.append) as gateway):
        for i in range(5):
            response = gateway.chat("sys", f"doc {i}")
            assert (response.raw_text, response.retries) == (f"doc {i}", 0)
            assert server.closed.acquire(timeout=10), "the server kept the connection"
    assert sleeps == []
    assert (server.calls, server.connections) == (5, 5)


def test_a_fresh_connection_that_fails_is_retried_by_the_policy(monkeypatch):
    dropped = []

    def drop_first(request):
        if not dropped:
            dropped.append(request)
            raise ConnectionAbortedError("dropped without a reply")
        return request.user_content

    sleeps = []
    with (_model_server(monkeypatch, drop_first) as server,
          _gateway(server, "local", sleeps.append) as gateway):
        response = gateway.chat("sys", "doc")
    assert (response.raw_text, response.retries) == ("doc", 1)
    assert len(sleeps) == 1
    assert (server.requests, server.calls, server.connections) == (2, 1, 2)


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"),
                    reason="the platform has no TCP_QUICKACK")
def test_a_reply_written_in_two_sends_is_not_held_for_a_delayed_ack(monkeypatch):
    # _ModelHandler writes the headers, then the body, with Nagle on, as
    # http.server does at HTTP/1.1. On a reused connection the body then
    # waits until the client acknowledges the headers: about 40 ms a call
    # when the client delays its ACK.
    elapsed = []

    def calls(gateway: Gateway) -> None:
        gateway.chat("sys", "warm-up")
        started = time.perf_counter()
        for i in range(20):
            gateway.chat("sys", f"doc {i}")
        elapsed.append(time.perf_counter() - started)

    with _model_server(monkeypatch, _echo) as server, _gateway(server, "local") as gateway:
        thread = threading.Thread(target=calls, args=(gateway,), daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert (server.calls, server.connections) == (21, 1)
    assert elapsed[0] < 0.4


def test_threads_hold_at_most_one_connection_each_under_switch_stress(monkeypatch):
    threads, calls = 16, 25
    replies: dict[int, list[tuple[str, str]]] = {t: [] for t in range(threads)}

    def worker(t: int, gateway: Gateway) -> None:
        for c in range(calls):
            text = f"thread {t} call {c}"
            replies[t].append((text, gateway.chat("sys", text).raw_text))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave threads as often as possible
    try:
        with _model_server(monkeypatch, _echo) as server, _gateway(server, "local") as gateway:
            workers = [threading.Thread(target=worker, args=(t, gateway))
                       for t in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in workers)
    finally:
        sys.setswitchinterval(interval)
    for t in range(threads):
        assert [sent for sent, _got in replies[t]] == [f"thread {t} call {c}"
                                                       for c in range(calls)]
        assert all(sent == got for sent, got in replies[t])
    assert server.calls == threads * calls
    assert server.connections <= threads


def _write_config(path: Path, **settings) -> Path:
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()),
                    encoding="utf-8")
    return path


def test_infer_opens_at_most_one_connection_per_call_in_flight(tmp_path, monkeypatch):
    # workers x rounds x subtasks = 1 x 3 x 2 calls in flight, over 4 x 3 x 2 calls.
    save_plan(refined_plan(), tmp_path / "refined.json")
    with (tmp_path / "docs.jsonl").open("w", encoding="utf-8") as fh:
        for doc in fixture_documents()[:4]:
            fh.write(json.dumps({"id": doc.id, "body": doc.body}) + "\n")
    with _model_server(monkeypatch, fake_local_extractor) as server:
        config = _write_config(tmp_path / "orch.cfg", **{
            "cloud.kind": "scripted", "cloud.session": "unused.jsonl",
            "local.kind": "local_http", "local.endpoint": server.base,
            "local.model": "small-extractor", "rounds": 3, "workers": 1, "threshold": 0.8})
        assert main(["pack", "--plan", str(tmp_path / "refined.json"), "--out",
                     str(tmp_path / "artifact.orchb"), "--config", str(config),
                     "--deterministic"]) == 0
        assert main(["infer", "--bundle", str(tmp_path / "artifact.orchb"), "--docs",
                     str(tmp_path / "docs.jsonl"), "--out", str(tmp_path / "preds.jsonl"),
                     "--config", str(config), "--deterministic"]) == 0
    assert len((tmp_path / "preds.jsonl").read_text(encoding="utf-8").splitlines()) == 4
    assert server.calls == 4 * 3 * 2
    assert server.connections <= 1 * 3 * 2


def _refined_only(request) -> str:
    """The fixture's extractor, guessing `unknown` under the draft spread
    prompt, so `validate` asks the cloud for one rewrite."""
    if "Distant spread" in request.system_prompt and "improved" not in request.system_prompt:
        return json.dumps({"reasoning": "no idea",
                           "values": {"distant_metastasis": "unknown"}})
    return fake_local_extractor(request)


RUN_COMMANDS = ("import json, sys\n"
                "from orchkit import cli\n"
                "print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))\n")


def test_no_socket_outlives_its_command(tmp_path, monkeypatch):
    ws = build_e2e_workspace(tmp_path / "ws")
    out = tmp_path / "out"
    out.mkdir()
    with (_model_server(monkeypatch, e2e_cloud_handler) as cloud,
          _model_server(monkeypatch, _refined_only) as local):
        channels = {"local.kind": "local_http", "local.endpoint": local.base,
                    "local.model": "small-extractor", "rounds": 3, "threshold": 0.8}
        connected = _write_config(tmp_path / "connected.cfg", **{
            "cloud.kind": "cloud_http", "cloud.endpoint": f"{cloud.base}/v1",
            "cloud.model": "big-planner", **channels})
        isolated = _write_config(tmp_path / "isolated.cfg", **{
            "cloud.kind": "scripted", "cloud.session": "unused.jsonl", **channels})
        commands = [
            ["plan", "--task", str(ws["task"]), "--guideline", str(ws["guideline"]),
             "--prefs", str(ws["prefs"]), "--out", str(out / "plan.json"),
             "--config", str(connected), "--deterministic"],
            ["validate", "--plan", str(out / "plan.json"), "--out", str(out / "validated.json"),
             "--config", str(connected)],
            ["pack", "--plan", str(out / "validated.json"), "--out", str(out / "a.orchb"),
             "--config", str(isolated), "--deterministic"],
            ["infer", "--bundle", str(out / "a.orchb"), "--docs", str(ws["docs"]),
             "--out", str(out / "preds.jsonl"), "--config", str(isolated), "--deterministic"],
        ]
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                               "-c", RUN_COMMANDS, json.dumps(commands)],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, 0, 0, 0]
    assert "ResourceWarning" not in done.stderr
    assert "distant_spread: refined at revision 1" in done.stdout
    assert cloud.calls == 4  # decompose, two synthetic sets, one rewrite
    assert cloud.connections < cloud.calls and local.connections < local.calls


class _RawServer:
    """A scripted HTTP/1.1 server on a bare socket. It answers the n-th
    request with the n-th of `replies` (the last one repeats), each a reply's
    exact bytes and whether to close the connection after it. It counts
    connections and requests, and releases `client_closed` each time the
    client closes a connection."""

    def __init__(self, replies: list[tuple[bytes, bool]]):
        self.replies = replies
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.base = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.lock = threading.Lock()
        self.connections = self.requests = 0
        self.client_closed = threading.Semaphore(0)
        self.stopping = threading.Event()
        self.threads = [threading.Thread(target=self._accept, daemon=True)]
        self.threads[0].start()

    def _accept(self) -> None:
        while not self.stopping.is_set():
            try:
                sock, _address = self.listener.accept()
            except TimeoutError:
                continue
            with self.lock:
                self.connections += 1
            thread = threading.Thread(target=self._serve, args=(sock,), daemon=True)
            self.threads.append(thread)
            thread.start()

    def _serve(self, sock: socket.socket) -> None:
        sock.settimeout(10)
        with sock, sock.makefile("rb") as reader:
            while True:
                line = reader.readline()
                if not line:
                    self.client_closed.release()
                    return
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                reader.read(length)
                with self.lock:
                    n, self.requests = self.requests, self.requests + 1
                reply, close = self.replies[min(n, len(self.replies) - 1)]
                sock.sendall(reply)
                if close:
                    return

    def stop(self) -> None:
        self.stopping.set()
        self.threads[0].join(timeout=10)
        self.listener.close()
        for thread in self.threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in self.threads)


@contextmanager
def _raw_server(monkeypatch, *replies: tuple[bytes, bool]):
    _clear_environment(monkeypatch)
    server = _RawServer(list(replies))
    try:
        yield server
    finally:
        server.stop()


def _within(seconds: float, call):
    """`call()`'s result, or its exception raised, on a thread given
    `seconds` to finish."""
    outcome = []

    def run():
        try:
            outcome.append((True, call()))
        except Exception as exc:  # handed to the caller
            outcome.append((False, exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"the call took more than {seconds} s"
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


def _raw(status: str, headers: list[str], body: bytes = b"", version: str = "HTTP/1.1") -> bytes:
    return ("\r\n".join([f"{version} {status}", *headers, "", ""])).encode("latin-1") + body


def _ok(channel: str, text: str, *headers: str, version: str = "HTTP/1.1") -> bytes:
    """A 200 carrying `text` in the channel's reply form, with its Content-Length."""
    body = json.dumps(_reply(channel, text)).encode("utf-8")
    return _raw("200 OK", [*headers, f"Content-Length: {len(body)}"], body, version)


def _chunked(channel: str, text: str) -> bytes:
    """A 200 carrying `text` in two chunks, the first with a chunk
    extension, and a trailer after the last chunk."""
    body = json.dumps(_reply(channel, text)).encode("utf-8")
    first, second = body[:7], body[7:]
    return (_raw("200 OK", ["Content-Type: application/json", "Transfer-Encoding: chunked"])
            + b"%x;name=value\r\n%s\r\n%x\r\n%s\r\n" % (len(first), first, len(second), second)
            + b"0\r\nX-Checksum: none\r\n\r\n")


def _headers(count: int) -> list[str]:
    return [f"X-Header-{i}: {i}" for i in range(count)]


@pytest.mark.parametrize("channel", ["cloud", "local"])
@pytest.mark.parametrize("case", ["chunked", "continue", "100 headers"])
def test_a_framed_reply_keeps_its_connection(monkeypatch, channel, case):
    if case == "chunked":
        reply = _chunked(channel, "framed")
    elif case == "continue":
        reply = _raw("100 Continue", []) + _ok(channel, "framed")
    else:
        reply = _ok(channel, "framed", *_headers(99))  # and its Content-Length
    with _raw_server(monkeypatch, (reply, False)) as server, _gateway(server, channel) as gateway:
        for _ in range(3):
            response = _within(10, lambda: gateway.chat("sys", "doc"))
            assert (response.raw_text, response.retries) == ("framed", 0)
    assert (server.requests, server.connections) == (3, 1)


@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_a_reply_read_to_close_is_not_pooled(monkeypatch, channel):
    # HTTP/1.0 without Content-Length: the body ends when the server closes.
    body = json.dumps(_reply(channel, "to close")).encode("utf-8")
    reply = _raw("200 OK", ["Content-Type: application/json"], body, version="HTTP/1.0")
    with _raw_server(monkeypatch, (reply, True)) as server, _gateway(server, channel) as gateway:
        for _ in range(3):
            response = _within(10, lambda: gateway.chat("sys", "doc"))
            assert (response.raw_text, response.retries) == ("to close", 0)
    assert (server.requests, server.connections) == (3, 3)


@pytest.mark.parametrize("channel", ["cloud", "local"])
@pytest.mark.parametrize("version, header", [("HTTP/1.1", "Connection: close"),
                                             ("HTTP/1.0", "Content-Type: application/json")])
def test_a_reply_that_closes_its_connection_is_not_pooled(monkeypatch, channel, version,
                                                           header):
    # The server leaves the connection open; the client must close it.
    reply = _ok(channel, "once", header, version=version)
    with _raw_server(monkeypatch, (reply, False)) as server, _gateway(server, channel) as gateway:
        for _ in range(3):
            assert _within(10, lambda: gateway.chat("sys", "doc")).raw_text == "once"
            assert server.client_closed.acquire(timeout=10), "the client kept the connection"
    assert (server.requests, server.connections) == (3, 3)


@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_a_204_fails_without_waiting_for_the_server_to_close(monkeypatch, channel):
    with (_raw_server(monkeypatch, (_raw("204 No Content", []), False)) as server,
          _gateway(server, channel) as gateway):
        with pytest.raises(TransportError, match=f"{channel} chat call failed"):
            _within(10, lambda: gateway.chat("sys", "doc"))
    assert (server.requests, server.connections) == (RETRY_ATTEMPTS, 1)


@pytest.mark.parametrize("channel", ["cloud", "local"])
@pytest.mark.parametrize("bad", ["long header line", "101 headers", "cut-short body",
                                 "HTTP/2 status line", "101 status"])
def test_a_reply_http_cannot_frame_fails_and_closes_its_connection(monkeypatch, channel, bad):
    # The bad reply fails its attempt; the policy's retry, on a fresh
    # connection, gets the good one.
    good = _ok(channel, "fine")
    if bad == "long header line":
        reply = _ok(channel, "never", "X-Long: " + "a" * 65536)
    elif bad == "101 headers":
        reply = _ok(channel, "never", *_headers(100))  # and its Content-Length
    elif bad == "HTTP/2 status line":
        reply = _ok(channel, "never", version="HTTP/2")
    elif bad == "101 status":
        reply = _raw("101 Switching Protocols", ["Upgrade: h2c", "Connection: Upgrade"]
                     ) + _ok(channel, "never")
    else:
        body = json.dumps(_reply(channel, "cut")).encode("utf-8")
        reply = _raw("200 OK", [f"Content-Length: {len(body)}"], body[:-5])
    sleeps = []
    with (_raw_server(monkeypatch, (reply, bad == "cut-short body"), (good, False)) as server,
          _gateway(server, channel, sleeps.append) as gateway):
        response = _within(10, lambda: gateway.chat("sys", "doc"))
        assert (response.raw_text, response.retries) == ("fine", 1)
        if bad != "cut-short body":
            assert server.client_closed.acquire(timeout=10), "the client kept the connection"
    assert len(sleeps) == 1
    assert (server.requests, server.connections) == (2, 2)


@pytest.mark.parametrize("channel", ["cloud", "local"])
@pytest.mark.parametrize("header, body", [
    ("Content-Length: 99999999999999999999", b""),
    ("Transfer-Encoding: chunked", b"ffffffffffffffffffff\r\n"),
], ids=["20-digit length", "20-digit chunk size"])
def test_a_body_length_over_the_limit_is_a_transport_failure(monkeypatch, channel, header,
                                                              body):
    # Refused before any byte of the body is read or allocated; the next
    # call, to a healthy reply, succeeds.
    reply = _raw("200 OK", [header], body)
    sleeps = []
    with (_raw_server(monkeypatch, *[(reply, False)] * RETRY_ATTEMPTS,
                      (_ok(channel, "fine"), False)) as server,
          _gateway(server, channel, sleeps.append) as gateway):
        with pytest.raises(TransportError) as err:
            _within(10, lambda: gateway.chat("sys", "doc"))
        assert server.requests == RETRY_ATTEMPTS
        assert _within(10, lambda: gateway.chat("sys", "doc")).raw_text == "fine"
    assert type(err.value) is TransportError and err.value.failure == "transport failure"
    assert re.search(f"{channel} chat call failed: reply .* bytes is over the "
                     r"\d+-byte limit$", str(err.value))
    assert len(sleeps) == RETRY_ATTEMPTS - 1


@pytest.mark.parametrize("reply, read", [
    (b"Content-Length: 8\r\n\r\n12345678", b"12345678"),
    (b"Content-Length: 9\r\n\r\n123456789", None),
    (b"Transfer-Encoding: chunked\r\n\r\n4\r\n1234\r\n4\r\n5678\r\n0\r\n\r\n",
     b"12345678"),
    (b"Transfer-Encoding: chunked\r\n\r\n4\r\n1234\r\n5\r\n56789\r\n0\r\n\r\n", None),
], ids=["length at the limit", "length over", "chunks at the limit", "chunks over"])
def test_a_framed_body_may_hold_at_most_http_max_body_bytes(monkeypatch, reply, read):
    from io import BytesIO

    from orchkit import gateway as gatewaymod

    monkeypatch.setattr(gatewaymod, "HTTP_MAX_BODY", 8)
    reader = BytesIO(b"HTTP/1.1 200 OK\r\n" + reply)
    status, _reason, _keep, fields = gatewaymod._read_head(reader)
    if read is None:
        with pytest.raises(ValueError, match="is over the 8-byte limit"):
            gatewaymod._read_body(reader, status, fields)
    else:
        assert gatewaymod._read_body(reader, status, fields) == (read, True)


@pytest.mark.parametrize("framing, error", [
    (b"Content-Length: 16000000\r\n\r\n", "reply cut short: 100 of 16000000 body bytes"),
    (b"Transfer-Encoding: chunked\r\n\r\nf42400\r\n", "reply cut short in a 16000000-byte chunk"),
], ids=["length", "chunk size"])
def test_a_declared_length_reserves_nothing_ahead_of_its_bytes(framing, error):
    # 16 MB declared, under HTTP_MAX_BODY, then 100 bytes and the close: the
    # reader holds about what arrived, not what was declared.
    import tracemalloc

    from orchkit import gateway as gatewaymod

    server, client = socket.socketpair()
    with server, client, client.makefile("rb") as reader:
        server.sendall(b"HTTP/1.1 200 OK\r\n" + framing + b"x" * 100)
        server.shutdown(socket.SHUT_WR)
        status, _reason, _keep, fields = gatewaymod._read_head(reader)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                gatewaymod._read_body(reader, status, fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert str(err.value) == error
    assert peak < 1_000_000


@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_a_reply_nested_too_deeply_is_a_transport_failure(monkeypatch, channel):
    # About 200 KB, far under HTTP_MAX_BODY, but deeper than the decoder goes.
    data = ('{"message":' * 100_000 + "0" + "}" * 100_000).encode("utf-8")
    reply = _raw("200 OK", [f"Content-Length: {len(data)}"], data)
    sleeps = []
    with (_raw_server(monkeypatch, *[(reply, False)] * RETRY_ATTEMPTS,
                      (_ok(channel, "fine"), False)) as server,
          _gateway(server, channel, sleeps.append) as gateway):
        with pytest.raises(TransportError) as err:
            _within(10, lambda: gateway.chat("sys", "doc"))
        assert server.requests == RETRY_ATTEMPTS
        assert _within(10, lambda: gateway.chat("sys", "doc")).raw_text == "fine"
    assert type(err.value) is TransportError and err.value.failure == "transport failure"
    assert str(err.value).endswith(
        f"{channel} chat call failed: JSON nested too deeply to parse")
    assert len(sleeps) == RETRY_ATTEMPTS - 1


@pytest.mark.parametrize("channel", ["cloud", "local"])
@pytest.mark.parametrize("framing", [[], ["Transfer-Encoding: identity"]],
                         ids=["no length", "a coding other than chunked"])
@pytest.mark.parametrize("over", [1, 0], ids=["one byte over", "at the limit"])
def test_a_body_read_to_the_close_may_hold_at_most_http_max_body_bytes(monkeypatch, channel,
                                                                      framing, over):
    # The server closes the connection after a well-formed reply that
    # declares no length: the client reads up to the close, and no further
    # than HTTP_MAX_BODY bytes.
    from orchkit import gateway as gatewaymod

    body = json.dumps(_reply(channel, "to close")).encode("utf-8")
    monkeypatch.setattr(gatewaymod, "HTTP_MAX_BODY", len(body) - over)
    sleeps = []
    with (_raw_server(monkeypatch, (_raw("200 OK", framing, body), True)) as server,
          _gateway(server, channel, sleeps.append) as gateway):
        if over:
            with pytest.raises(TransportError) as err:
                _within(10, lambda: gateway.chat("sys", "doc"))
            assert type(err.value) is TransportError
            assert str(err.value).endswith(
                f"{channel} chat call failed: reply body read to the close is over the "
                f"{len(body) - 1}-byte limit")
        else:
            assert _within(10, lambda: gateway.chat("sys", "doc")).raw_text == "to close"
    assert server.requests == (RETRY_ATTEMPTS if over else 1)
    assert len(sleeps) == (RETRY_ATTEMPTS - 1 if over else 0)


@pytest.mark.parametrize("status, body, words", [
    ("404 Not Found", {"error": "model \"qwen\" not found, try pulling it first"},
     ': model "qwen" not found, try pulling it first'),
    ("401 Unauthorized", {"error": {"message": "bad key"}}, ": bad key"),
    ("500 Internal Server Error", {"error": "x" * 300}, ": " + "x" * 200),
    ("503 Service Unavailable", "<html>busy</html>", ""),
    ("502 Bad Gateway", {"error": {"code": 7}}, ""),
    ("400 Bad Request", {"error": "invalid format schema"}, ": invalid format schema"),
    ("408 Request Timeout", "", ""),
    ("429 Too Many Requests", {"error": {"message": "slow down"}}, ": slow down"),
    ("503 Service Unavailable", '{"error":' * 100_000 + "0" + "}" * 100_000, ""),
], ids=["ollama-404", "openai-401", "cut-to-200", "not-json", "no-text",
        "bad-request-400", "timeout-408", "busy-429", "nested-too-deeply"])
@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_a_non_2xx_reply_keeps_the_servers_words(monkeypatch, channel, status, body, words):
    # A 4xx other than 408 and 429 is refused at once, unretried and unslept;
    # any other status is retried. Either way the gateway's next call, to a
    # healthy reply, succeeds on the same connection.
    code, _, reason = status.partition(" ")
    refused = code.startswith("4") and code not in ("408", "429")
    posts = 1 if refused else RETRY_ATTEMPTS
    data = body.encode("utf-8") if isinstance(body, str) else json.dumps(body).encode("utf-8")
    reply = _raw(status, [f"Content-Length: {len(data)}"], data)
    sleeps = []
    with (_raw_server(monkeypatch, *[(reply, False)] * posts, (_ok(channel, "fine"), False))
          as server, _gateway(server, channel, sleeps.append) as gateway):
        with pytest.raises(ModelCallError) as err:
            _within(10, lambda: gateway.chat("sys", "doc"))
        assert server.requests == posts
        assert _within(10, lambda: gateway.chat("sys", "doc")).raw_text == "fine"
    assert type(err.value) is (ModelCallError if refused else TransportError)
    assert err.value.failure == ("refused request" if refused else "transport failure")
    assert str(err.value).endswith(
        f"{channel} chat call failed: HTTP Error {code}: {reason}{words}")
    assert len(sleeps) == posts - 1
    assert (server.requests, server.connections) == (posts + 1, 1)


@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_a_refused_connection_is_retried_then_gives_up(monkeypatch, channel):
    # A socket bound but not listening: a connection to its port is refused,
    # and no other process can take the port while the test runs.
    _clear_environment(monkeypatch)
    connects = []
    create_connection = socket.create_connection

    def counting(address, *args, **kwargs):
        connects.append(address)
        return create_connection(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    sleeps = []
    with socket.socket() as unheard:
        unheard.bind(("127.0.0.1", 0))
        nowhere = SimpleNamespace(base=f"http://127.0.0.1:{unheard.getsockname()[1]}")
        with _gateway(nowhere, channel, sleeps.append) as gateway:
            with pytest.raises(TransportError) as err:
                _within(10, lambda: gateway.chat("sys", "doc"))
    assert type(err.value) is TransportError and err.value.failure == "transport failure"
    assert f"{channel} chat call failed: " in str(err.value)
    assert "Connection refused" in str(err.value)
    assert len(connects) == RETRY_ATTEMPTS
    assert len(sleeps) == RETRY_ATTEMPTS - 1


@pytest.mark.parametrize("channel", ["cloud", "local"])
def test_a_reply_slower_than_the_timeout_is_retried_and_not_pooled(monkeypatch, channel):
    # The server reads each of the first RETRY_ATTEMPTS requests and writes
    # nothing back until the client closes; the next request gets a reply.
    for phase in (PHASE_CLOUD, PHASE_LOCAL):
        monkeypatch.setitem(HTTP_TIMEOUT, phase, 0.2)
    silent = [(b"", False)] * RETRY_ATTEMPTS
    sleeps = []
    with (_raw_server(monkeypatch, *silent, (_ok(channel, "fine"), False)) as server,
          _gateway(server, channel, sleeps.append) as gateway):
        with pytest.raises(TransportError) as err:
            _within(10, lambda: gateway.chat("sys", "doc"))
        for _ in range(RETRY_ATTEMPTS):
            assert server.client_closed.acquire(timeout=10), "the client kept the connection"
        assert (server.requests, server.connections) == (RETRY_ATTEMPTS, RETRY_ATTEMPTS)
        assert _within(10, lambda: gateway.chat("sys", "doc")).raw_text == "fine"
    assert type(err.value) is TransportError and err.value.failure == "transport failure"
    assert f"{channel} chat call failed: timed out" in str(err.value)
    assert len(sleeps) == RETRY_ATTEMPTS - 1
    assert (server.requests, server.connections) == (RETRY_ATTEMPTS + 1, RETRY_ATTEMPTS + 1)


def test_an_api_key_holding_a_line_break_sends_nothing(server, monkeypatch):
    monkeypatch.setenv("ORCH_CLOUD_API_KEY", "sk-test\r\nX-Injected: yes")
    with pytest.raises(ValueError, match="Authorization header") as err:
        _gateway(server, "cloud")
    assert "sk-test" not in str(err.value)
    assert server.seen == []
