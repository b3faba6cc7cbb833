"""Single abstraction over every model call.

Two channels exist: a "cloud" channel used only while planning (never sees
documents) and a "local" channel used only while executing over documents.
The separation is enforced here with a phase tag: a cloud-phase gateway
refuses local_http profiles and a local-phase gateway refuses cloud_http
profiles, so no code path can cross the privacy boundary by configuration
accident.

Backends:
  * cloud_http  -- OpenAI-compatible chat-completions JSON over HTTP(S);
                   API key read from ORCH_CLOUD_API_KEY.
  * local_http  -- Ollama-compatible /api/chat JSON over HTTP; temperature,
                   num_ctx and the request's seed, if any, passed as options.
  * scripted    -- a handler callable (ScriptedBackend) or a recorded
                   session (ReplayBackend), for tests and air-gap rehearsal.

The two HTTP backends POST over persistent http.client connections, at
most one per call in flight, that Gateway.close closes. A connection the
server closed while it sat idle is replaced and the request sent again at
once; that is not a retry. Proxies and certificate checks follow urllib.

Every call enters through Gateway.chat, which builds the request from the
profile's defaults. A TransportError is retried with a fixed policy: up
to RETRY_ATTEMPTS attempts, waiting RETRY_BASE_DELAY * 2**attempt seconds
plus up to RETRY_JITTER of that between them. RecordingBackend wraps any
backend and appends each request/response pair to a session file, JSON
lines keyed by a content digest of the request;
BackendProfile.scripted(session=...) builds the profile that replays it.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ModelCallError, PhaseViolationError, TransportError, UnseenRequestError
from .jsonio import decode, digest, jsonl_line, read_jsonl
from .model import FeatureSchema

PHASE_CLOUD = "cloud"
PHASE_LOCAL = "local"

KIND_CLOUD_HTTP = "cloud_http"
KIND_LOCAL_HTTP = "local_http"
KIND_SCRIPTED = "scripted"

CLOUD_API_KEY_ENV = "ORCH_CLOUD_API_KEY"

FINISH_REASONS = ("complete", "truncated")

# Operating defaults per channel: cloud runs hot to diversify planning
# output, local runs cold for consistent extraction.
DEFAULT_TEMPERATURE = {PHASE_CLOUD: 0.8, PHASE_LOCAL: 0.2}
DEFAULT_CONTEXT = 32768

# Seconds an HTTP chat call may take, per channel.
HTTP_TIMEOUT = {PHASE_CLOUD: 120.0, PHASE_LOCAL: 600.0}

# Transport retries: attempts per call, the first backoff in seconds (it
# doubles per attempt) and the largest random fraction added to a backoff.
RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY = 0.25
RETRY_JITTER = 0.1


@dataclass(frozen=True)
class ChatRequest:
    """One single-shot model call; the pipeline never holds conversations."""

    system_prompt: str
    user_content: str
    temperature: float
    max_context_tokens: int
    response_schema: FeatureSchema | None = None
    seed: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.temperature <= 2.0):
            raise ValueError(f"ChatRequest.temperature: must be in [0, 2], got {self.temperature}")
        if not isinstance(self.user_content, str) or not self.user_content.strip():
            raise ValueError("ChatRequest.user_content: must be non-empty")
        if self.max_context_tokens < 1:
            raise ValueError("ChatRequest.max_context_tokens: must be positive")


@dataclass(frozen=True)
class ChatResponse:
    raw_text: str
    finish_reason: str = "complete"
    latency_ms: float = 0.0
    retries: int = 0

    def __post_init__(self):
        if not isinstance(self.raw_text, str):
            raise TypeError(f"ChatResponse.raw_text: must be a string, not "
                            f"{type(self.raw_text).__name__}")
        if self.finish_reason not in FINISH_REASONS:
            raise ValueError(
                f"ChatResponse.finish_reason: must be one of {FINISH_REASONS}, "
                f"got {self.finish_reason!r}")


def _request_dict(request: ChatRequest) -> dict:
    """The canonical request. `seed` appears only when set, so an unseeded
    request keeps the digest it had before requests carried seeds."""
    schema = request.response_schema.to_dict() if request.response_schema else None
    record = {"system_prompt": request.system_prompt,
              "user_content": request.user_content,
              "temperature": request.temperature,
              "max_context_tokens": request.max_context_tokens,
              "response_schema": schema}
    if request.seed is not None:
        record["seed"] = request.seed
    return record


def request_digest(request: ChatRequest) -> str:
    """Stable content digest used to key scripted and recorded sessions."""
    return digest(_request_dict(request))


@dataclass(frozen=True)
class BackendProfile:
    """Where and how a channel talks to a model. config.ProfileConfig.to_profile
    builds the program's profiles; `scripted` builds a test or benchmark one."""

    kind: str
    endpoint: str | None = None
    model: str | None = None
    default_temperature: float = DEFAULT_TEMPERATURE[PHASE_LOCAL]
    default_context: int = DEFAULT_CONTEXT
    session: str | None = None
    backend: object | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        kinds = (KIND_CLOUD_HTTP, KIND_LOCAL_HTTP, KIND_SCRIPTED)
        if self.kind not in kinds:
            raise ValueError(f"BackendProfile.kind: must be one of {kinds}, got {self.kind!r}")
        if self.kind in (KIND_CLOUD_HTTP, KIND_LOCAL_HTTP) and not self.endpoint:
            raise ValueError(f"BackendProfile.endpoint: required for kind {self.kind!r}")
        if self.kind == KIND_SCRIPTED and self.backend is None and not self.session:
            raise ValueError("BackendProfile: scripted profile needs a backend or a session path")

    @classmethod
    def scripted(cls, backend: object | None = None, *, session: str | None = None,
                 model: str = "scripted",
                 temperature: float = DEFAULT_TEMPERATURE[PHASE_LOCAL],
                 context: int = DEFAULT_CONTEXT) -> "BackendProfile":
        return cls(kind=KIND_SCRIPTED, model=model, default_temperature=temperature,
                   default_context=context, session=session, backend=backend)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

class ScriptedBackend:
    """Deterministic backend for tests: a handler callable maps each request
    to its reply text. A handler that raises TransportError scripts a
    transport fault, which Gateway.complete retries like a real one.
    """

    def __init__(self, script: Callable[[ChatRequest], str]):
        if not callable(script):
            raise TypeError("ScriptedBackend: script must be a handler callable")
        self._script = script

    def complete(self, request: ChatRequest) -> ChatResponse:
        return ChatResponse(raw_text=self._script(request))


class ReplayBackend:
    """Serves recorded responses byte-identically; unseen requests error.

    A request recorded more than once (validation repeats, documents with
    identical text) is served its recordings in turn, then the last again.
    Every line is read into its ChatResponse when the backend is built, so
    a malformed line fails there, naming the file and line.
    """

    def __init__(self, session_path: str | Path):
        self._path = Path(session_path)
        self._entries: dict[str, list[ChatResponse]] = {}
        seeds: set[bool] = set()  # whether each recorded request carries a seed

        def add(record: dict) -> None:
            data = record["response"]
            self._entries.setdefault(record["digest"], []).append(ChatResponse(
                raw_text=data["raw_text"], latency_ms=data.get("latency_ms", 0.0),
                finish_reason=data.get("finish_reason", "complete")))
            if record.get("request") is not None:
                seeds.add("seed" in record["request"])

        read_jsonl(self._path, add)
        self._predates_seeds = seeds == {False}
        self._cursor: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> ChatResponse:
        digest = request_digest(request)
        responses = self._entries.get(digest)
        if not responses:
            if request.seed is not None and self._predates_seeds:
                raise UnseenRequestError(
                    f"no recorded response for request {digest[:12]}: replay session "
                    f"{self._path} records no seeded request; a session recorded "
                    f"before per-round seeds must be re-recorded")
            raise UnseenRequestError(f"no recorded response for request {digest[:12]}")
        with self._lock:
            i = self._cursor.get(digest, 0)
            self._cursor[digest] = min(i + 1, len(responses) - 1)
        return responses[i]


class RecordingBackend:
    """Wraps a live backend and appends request/response pairs to a session file."""

    def __init__(self, inner, session_path: str | Path):
        self._inner = inner
        self._path = Path(session_path)
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> ChatResponse:
        response = self._inner.complete(request)
        record = {
            "digest": request_digest(request),
            "request": _request_dict(request),
            "response": {"raw_text": response.raw_text,
                         "finish_reason": response.finish_reason,
                         "latency_ms": response.latency_ms},
        }
        with self._lock, self._path.open("a", encoding="utf-8") as fh:
            fh.write(jsonl_line(record))
        return response


def _schema_to_json_schema(schema: FeatureSchema) -> dict:
    """Structured-output constraint: {"reasoning": ..., "values": {...}}."""
    properties: dict[str, dict] = {}
    for f in schema.fields:
        if f.kind == "text":
            properties[f.name] = {"type": "string"}
        else:
            allowed = list(f.legal_values()) + ["unknown"]
            properties[f.name] = {"type": "string", "enum": allowed}
    return {
        "type": "object",
        "properties": {
            "reasoning": {"type": "string"},
            "values": {"type": "object", "properties": properties,
                       "required": [f.name for f in schema.fields if f.required]},
        },
        "required": ["reasoning", "values"],
    }


def _route(url: str, timeout: float) -> tuple[str, Callable[[], object], dict[str, str]]:
    """How urllib's default opener reaches `url`: the request target, a
    function that makes a connection (opened on its first request) and the
    headers a proxy needs. The proxy variables are read here, through
    urllib's own lookup: a proxied `http` request goes to the proxy with its
    absolute URI, an `https` one through a CONNECT tunnel, and credentials in
    the proxy URL become `Proxy-Authorization: Basic`."""
    import base64
    import http.client
    import ssl
    import urllib.parse
    import urllib.request

    origin = urllib.parse.urlsplit(url)
    target = urllib.parse.urlunsplit(("", "", origin.path or "/", origin.query, ""))
    scheme, host, tunnel, headers = origin.scheme, origin.netloc, None, {}
    proxy = urllib.request.getproxies().get(scheme)
    if proxy and not urllib.request.proxy_bypass(host):
        via = urllib.parse.urlsplit(proxy if "://" in proxy else f"//{proxy}")
        if via.username and via.password:
            credentials = urllib.parse.unquote(f"{via.username}:{via.password}")
            headers["Proxy-Authorization"] = "Basic " + base64.b64encode(
                credentials.encode()).decode("ascii")
        if scheme == "https":
            tunnel, headers = (host, None, headers), {}  # CONNECT carries the credentials
        else:
            scheme = via.scheme or scheme
            target = urllib.parse.urlunsplit((*origin[:4], ""))
        host = urllib.parse.unquote(via.netloc.rpartition("@")[2])
    # One verifying context per backend; it reads SSL_CERT_FILE and SSL_CERT_DIR.
    context = ssl.create_default_context() if scheme == "https" else None

    def connect():
        if scheme == "http":
            return http.client.HTTPConnection(host, timeout=timeout)
        if context is None:
            raise ValueError(f"unknown url type: {url!r}")
        conn = http.client.HTTPSConnection(host, timeout=timeout, context=context)
        if tunnel is not None:
            conn.set_tunnel(*tunnel)
        return conn

    return target, connect, headers


class _HttpBackend:
    """JSON POSTs to one URL over persistent HTTP/1.1 connections.

    A call takes an idle connection or opens one, and gives it back after a
    complete reply unless the reply asks to close it, so no more connections
    are open than calls in flight. `close` closes the idle ones; a connection
    given back after that is closed at once.
    """

    channel: str

    def __init__(self, url: str, headers: dict[str, str]):
        import socket

        self._target, self._connect, proxy_headers = _route(url, HTTP_TIMEOUT[self.channel])
        self._headers = {"Content-Type": "application/json", **headers, **proxy_headers}
        # A server that writes a reply's headers and body in two sends with
        # Nagle on holds the body until the headers are acknowledged; a
        # delayed ACK would cost a reused connection about 40 ms a call.
        self._quickack = ((socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
                          if hasattr(socket, "TCP_QUICKACK") else None)
        self._idle: list | None = []
        self._lock = threading.Lock()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle or [], None
        for conn in idle:
            conn.close()

    def _exchange(self, body: bytes):
        """Send one POST and read its whole reply. A connection taken idle
        that fails with a ConnectionError before a status line (the server
        closed it while it sat idle) is replaced, and the POST sent again
        once, at once, on the fresh one."""
        with self._lock:
            idle = self._idle.pop() if self._idle else None
        conn = idle or self._connect()
        try:
            while True:
                try:
                    conn.request("POST", self._target, body, self._headers)
                    if self._quickack is not None:
                        conn.sock.setsockopt(*self._quickack)
                    response = conn.getresponse()
                    break
                except ConnectionError:
                    if conn is not idle:
                        raise
                    conn.close()
                    conn = self._connect()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        with self._lock:
            keep = not response.will_close and self._idle is not None
            if keep:
                self._idle.append(conn)
        if not keep:
            conn.close()
        return response, data

    def _post(self, payload: dict,
              reply: Callable[[dict], tuple[str | None, bool]]) -> ChatResponse:
        """POST a JSON payload; `reply` reads the decoded reply's completion
        text (null when there is none) and whether it was cut off. A non-2xx
        status (worded as urllib words it, `HTTP Error 503: Service
        Unavailable`), a connection fault or timeout and a reply that is not
        JSON each become a TransportError naming the channel; a reply of the
        wrong shape, its text not a string included, is a malformed reply."""
        import http.client

        started = time.perf_counter()
        try:
            response, data = self._exchange(json.dumps(payload, allow_nan=False).encode("utf-8"))
            if not 200 <= response.status < 300:
                raise TransportError(f"{self.channel} chat call failed: "
                                     f"HTTP Error {response.status}: {response.reason}")
            body = json.loads(data)
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise TransportError(f"{self.channel} chat call failed: {exc}") from exc
        latency = (time.perf_counter() - started) * 1000.0

        def build(body: dict) -> ChatResponse:
            text, truncated = reply(body)
            return ChatResponse(raw_text="" if text is None else text, latency_ms=latency,
                                finish_reason="truncated" if truncated else "complete")

        return decode(build, body, lambda message: ModelCallError(
            f"malformed {self.channel} chat reply: {message}", "malformed reply"))


def _messages(request: ChatRequest) -> list[dict]:
    return [{"role": "system", "content": request.system_prompt},
            {"role": "user", "content": request.user_content}]


class OpenAIChatBackend(_HttpBackend):
    """OpenAI-compatible chat-completions adapter (the cloud channel)."""

    channel = PHASE_CLOUD

    def __init__(self, endpoint: str, model: str):
        api_key = os.environ.get(CLOUD_API_KEY_ENV, "")
        super().__init__(f"{endpoint.rstrip('/')}/chat/completions",
                         {"Authorization": f"Bearer {api_key}"} if api_key else {})
        self.model = model

    def complete(self, request: ChatRequest) -> ChatResponse:
        payload: dict = {"model": self.model, "messages": _messages(request),
                         "temperature": request.temperature}
        if request.response_schema is not None:
            payload["response_format"] = {"type": "json_object"}
        return self._post(payload, lambda body: (
            body["choices"][0]["message"]["content"],
            body["choices"][0].get("finish_reason") == "length"))


class OllamaChatBackend(_HttpBackend):
    """Ollama-compatible /api/chat adapter (the local channel)."""

    channel = PHASE_LOCAL

    def __init__(self, endpoint: str, model: str):
        super().__init__(f"{endpoint.rstrip('/')}/api/chat", {})
        self.model = model

    def complete(self, request: ChatRequest) -> ChatResponse:
        options: dict = {"temperature": request.temperature,
                         "num_ctx": request.max_context_tokens}
        if request.seed is not None:
            options["seed"] = request.seed
        payload: dict = {"model": self.model, "messages": _messages(request), "stream": False,
                         "options": options}
        if request.response_schema is not None:
            payload["format"] = _schema_to_json_schema(request.response_schema)
        return self._post(payload, lambda body: (
            body["message"]["content"], body.get("done_reason") == "length"))


# ---------------------------------------------------------------------------
# Gateway
# ---------------------------------------------------------------------------

def estimate_tokens(text: str) -> int:
    """Token estimate for the context-window check: characters / 4, rounded up."""
    return (len(text) + 3) // 4


class Gateway:
    """A phase-tagged handle to one backend profile.

    Safe for concurrent use; the caller's lanes (executor.iter_lanes, on at
    most `width` threads) bound calls in flight, and so the connections an
    HTTP backend holds open. Close it, or use it as a context manager, to
    close them.
    """

    def __init__(self, profile: BackendProfile, phase: str, *,
                 sleep: Callable[[float], None] = time.sleep):
        if phase not in (PHASE_CLOUD, PHASE_LOCAL):
            raise ValueError(f"Gateway.phase: must be cloud or local, got {phase!r}")
        if phase == PHASE_CLOUD and profile.kind == KIND_LOCAL_HTTP:
            raise PhaseViolationError("cloud phase cannot use a local_http profile")
        if phase == PHASE_LOCAL and profile.kind == KIND_CLOUD_HTTP:
            raise PhaseViolationError("local phase cannot use a cloud_http profile")
        self.profile = profile
        self.phase = phase
        self._sleep = sleep
        if profile.kind == KIND_CLOUD_HTTP:
            self._backend = OpenAIChatBackend(profile.endpoint, profile.model or "")
        elif profile.kind == KIND_LOCAL_HTTP:
            self._backend = OllamaChatBackend(profile.endpoint, profile.model or "")
        elif profile.backend is not None:
            self._backend = profile.backend
        else:
            self._backend = ReplayBackend(profile.session)

    def close(self) -> None:
        """Close the idle connections of an HTTP backend this gateway built."""
        if self.profile.kind in (KIND_CLOUD_HTTP, KIND_LOCAL_HTTP):
            self._backend.close()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def chat(self, system_prompt: str, user_content: str, *,
             response_schema: FeatureSchema | None = None,
             seed: int | None = None) -> ChatResponse:
        """One model call, at the profile's temperature and context window;
        a `seed`, when given, is part of the request and is sent with it."""
        return self.complete(ChatRequest(
            system_prompt=system_prompt, user_content=user_content,
            temperature=self.profile.default_temperature,
            max_context_tokens=self.profile.default_context,
            response_schema=response_schema, seed=seed))

    def complete(self, request: ChatRequest) -> ChatResponse:
        estimated = estimate_tokens(request.system_prompt) + estimate_tokens(request.user_content)
        if estimated > request.max_context_tokens:
            raise ModelCallError(f"estimated {estimated} tokens exceeds the "
                                 f"{request.max_context_tokens}-token window", "truncation")
        last_error: TransportError | None = None
        for attempt in range(RETRY_ATTEMPTS):
            try:
                response = self._backend.complete(request)
            except TransportError as exc:
                last_error = exc
                if attempt + 1 < RETRY_ATTEMPTS:
                    backoff = RETRY_BASE_DELAY * 2 ** attempt
                    self._sleep(backoff * (1.0 + RETRY_JITTER * random.random()))
                continue
            if response.finish_reason == "truncated":
                raise ModelCallError("backend reported a truncated completion", "truncation")
            if not response.raw_text.strip():
                raise ModelCallError("backend returned an empty completion", "empty reply")
            return replace(response, retries=attempt) if attempt else response
        raise TransportError(
            f"gave up after {RETRY_ATTEMPTS} attempts: {last_error}") from last_error

