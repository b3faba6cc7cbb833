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

The two HTTP backends speak HTTP/1.1 on the socket themselves, over
persistent connections, at most one per call in flight, that Gateway.close
closes. A request is one send of its head and body. A reply is read through
one buffered reader per connection: its status line, and of its headers
only Content-Length, Transfer-Encoding: chunked and Connection, with
HTTP_MAX_LINE bytes a line, HTTP_MAX_HEADERS lines and HTTP_MAX_BODY body
bytes at most, declared or read to the close. Repeated Connection lines
combine, so `close` on any of them closes the connection; a Content-Length
or Transfer-Encoding repeated with a different value is refused; a 204 or
304 has no body whatever its headers declare. Only an HTTP/1.x status line
is read, and a 101 is refused, since no request asks to switch protocols;
other 1xx replies are skipped. Where the reader differs from Python's
http.client it does so by design, as RFC 9110 section 8.6 and RFC 9112
sections 6.3 and 7.1 allow or require: `Content-Length: 7, 7`, a negative
Content-Length, a chunk size that is not bare hex digits (`0x5`) and a
last chunk with no final CRLF are refused, a Transfer-Encoding whose last
coding is not chunked (`identity` beside a length, say) is read to the
close, and `gzip, chunked` is read as chunked. A connection the server closed while it sat idle is replaced and
the request sent again at once; that is not a retry.
Proxies and certificate checks follow urllib; ssl is loaded only for an
https origin or tunnel, and urllib.request only when a `*_proxy` variable
is set or on macOS and Windows.

Every call enters through Gateway.chat, which builds the request from the
profile's defaults. The phases, the kinds and each channel's default
temperature and context are config's, imported here under the same names.
A TransportError is retried with a fixed policy: up to RETRY_ATTEMPTS
attempts, waiting up to RETRY_BASE_DELAY * 2**attempt seconds plus up to
RETRY_JITTER of that between them; a refused request (a 4xx other than
408 and 429) is not retried. A reply to another call on the same gateway
ends the oldest such wait early: each reply releases at most one retry, so
retries go out no faster than the backend answers. RecordingBackend wraps
any backend and appends each request/response pair to a session file, JSON
lines keyed by a content digest of the request;
BackendProfile.scripted(session=...) builds the profile that replays it.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
import time
from collections import deque
from collections.abc import Callable
from pathlib import Path

from .config import (
    DEFAULT_CONTEXT,
    DEFAULT_TEMPERATURE,
    KIND_CLOUD_HTTP,
    KIND_LOCAL_HTTP,
    KIND_SCRIPTED,
    KINDS,
    PHASE_CLOUD,
    PHASE_LOCAL,
    setting_problem,
)
from .errors import ModelCallError, PhaseViolationError, TransportError, UnseenRequestError
from .jsonio import decode, digest, jsonl_line, loads, read_jsonl
from .model import UNKNOWN, FeatureSchema, Record, replace

CLOUD_API_KEY_ENV = "ORCH_CLOUD_API_KEY"

FINISH_REASONS = ("complete", "truncated")

# Seconds an HTTP chat call may take, per channel.
HTTP_TIMEOUT = {PHASE_CLOUD: 120.0, PHASE_LOCAL: 600.0}

# Transport retries: attempts per call, the first backoff in seconds (it
# doubles per attempt) and the largest random fraction added to a backoff.
RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY = 0.25
RETRY_JITTER = 0.1


class ChatRequest(Record):
    """One single-shot model call; the pipeline never holds conversations."""

    system_prompt: str
    user_content: str
    temperature: float
    max_context_tokens: int
    response_schema: FeatureSchema | None = None
    seed: int | None = None

    def __post_init__(self):
        if problem := setting_problem("temperature", self.temperature):
            raise ValueError(f"ChatRequest.temperature: {problem}, got {self.temperature!r}")
        if not isinstance(self.user_content, str) or not self.user_content.strip():
            raise ValueError("ChatRequest.user_content: must be non-empty")
        if problem := setting_problem("context", self.max_context_tokens):
            raise ValueError(f"ChatRequest.max_context_tokens: {problem}")


class ChatResponse(Record):
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


class BackendProfile(Record, hidden=("backend",)):
    """Where and how a channel talks to a model. config.ProfileConfig.to_profile
    builds the program's profiles; `scripted` builds a test or benchmark one."""

    kind: str
    endpoint: str | None = None
    model: str | None = None
    default_temperature: float = DEFAULT_TEMPERATURE[PHASE_LOCAL]
    default_context: int = DEFAULT_CONTEXT
    session: str | None = None
    backend: object | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"BackendProfile.kind: must be one of {KINDS}, got {self.kind!r}")
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

    A request recorded more than once (documents with identical text, or a
    case validated again under an unchanged prompt, as at --revalidate) is
    served its recordings in turn, then the last again.
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
            allowed = [*f.legal_values(), UNKNOWN]
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


# HTTP/1.1 as this client speaks it (RFC 9112). A reply's status line, each
# header, trailer and chunk-size line may hold at most HTTP_MAX_LINE bytes,
# and its headers (or trailers) at most HTTP_MAX_HEADERS lines: the limits
# of Python's own HTTP client.
HTTP_MAX_LINE = 65536
HTTP_MAX_HEADERS = 100

# The most body bytes a reply may hold: as its Content-Length or chunk sizes
# declare them, or as read up to the close when it declares neither. A
# completion fills at most the context window (32,768 tokens by default, under
# 1 MB even JSON-escaped), so 16 MiB leaves a wide margin.
HTTP_MAX_BODY = 16 * 1024 * 1024

# The only reply headers the client acts on: how the body is framed and
# whether the connection stays open.
_FRAMING = (b"content-length", b"transfer-encoding", b"connection")
_HTTP1 = frozenset(b"HTTP/1.%d" % minor for minor in range(10))  # the versions read
_HEX = b"0123456789abcdefABCDEF"
_READ_STEP = 65536  # the most body bytes one read asks for
_DEFAULT_PORT = {"http": 80, "https": 443}


class _Connection:
    """One HTTP/1.1 connection: its socket, and the one buffered reader its
    replies are read through."""

    def __init__(self, sock):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _read_line(reader) -> bytes:
    line = reader.readline(HTTP_MAX_LINE + 1)
    if len(line) > HTTP_MAX_LINE:
        raise ValueError(f"got more than {HTTP_MAX_LINE} bytes when reading a line")
    return line


def _read_fields(reader, what: str) -> dict[bytes, bytes]:
    """Read header (or trailer) lines up to the blank line that ends them;
    return the framing ones, by lower-cased name. Repeated Connection lines
    are joined with ", " (RFC 9110 section 5.3). A Content-Length or
    Transfer-Encoding repeated with a different value raises ValueError: the
    body's end is then unknown (RFC 9112 section 6.3)."""
    fields = {}
    for _ in range(HTTP_MAX_HEADERS + 1):
        line = _read_line(reader)
        if line == b"\r\n" or line == b"\n":
            return fields
        if not line:
            raise ValueError(f"reply cut short in its {what}")
        name, _, value = line.partition(b":")
        name, value = name.lower(), value.strip()
        if name == b"connection" and name in fields:
            fields[name] += b", " + value
        elif name in _FRAMING and fields.setdefault(name, value) != value:
            raise ValueError(f"reply repeats {name.decode()} with differing values")
    raise ValueError(f"got more than {HTTP_MAX_HEADERS} {what}")


def _read_head(reader) -> tuple[int, str, bool, dict[bytes, bytes]]:
    """Read a reply's status line and headers, past any interim (1xx)
    replies: its status, its reason, whether it leaves the connection open
    and its framing headers. A status line of another version than HTTP/1.x,
    and a 101, raise ValueError; a connection closed before a status line
    raises ConnectionResetError."""
    while True:
        line = _read_line(reader)
        if not line:
            raise ConnectionResetError("Remote end closed connection without response")
        version, _, rest = line.rstrip().partition(b" ")
        code, _, reason = rest.partition(b" ")
        status = int(code) if len(code) == 3 and code.isdigit() else 0
        if version not in _HTTP1 or status < 100:
            raise ValueError(f"bad status line: {line[:100]!r}")
        if status == 101:
            raise ValueError("reply switches protocols, which no request asked for")
        fields = _read_fields(reader, "headers")
        if status >= 200:
            break
    connection = fields.get(b"connection", b"").lower()
    keep = b"close" not in connection and (version != b"HTTP/1.0" or b"keep-alive" in connection)
    return status, reason.decode("latin-1"), keep, fields


def _within_limit(n: int, what: str) -> int:
    if n > HTTP_MAX_BODY:
        raise ValueError(f"reply {what} of {n} bytes is over the {HTTP_MAX_BODY}-byte limit")
    return n


def _read_upto(reader, n: int) -> bytes:
    """The next n bytes of a reply, fewer if the connection closes first. They
    are read as they arrive, _READ_STEP bytes at most at a time, so nothing is
    reserved ahead of the bytes."""
    chunks = []
    while n > 0 and (chunk := reader.read1(min(n, _READ_STEP))):
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read_body(reader, status: int, fields: dict[bytes, bytes]) -> tuple[bytes, bool]:
    """Read a reply's body as RFC 9112 section 6.3 frames it; return it and
    whether it ended before the connection did. A Content-Length or a sum of
    chunk sizes over HTTP_MAX_BODY raises ValueError before the bytes it
    declares are read, and a body read to the close does once it passes
    HTTP_MAX_BODY bytes, so no reply can make the client hold more."""
    if status in (204, 304):
        return b"", True
    coding = fields.get(b"transfer-encoding")
    if coding is not None and coding.rpartition(b",")[2].strip().lower() == b"chunked":
        chunks, total = [], 0
        while True:
            line = _read_line(reader)
            size = line.partition(b";")[0].strip()  # drop any chunk extension
            if not size or size.strip(_HEX):
                raise ValueError(f"bad chunk size line: {line[:100]!r}")
            n = int(size, 16)
            if not n:
                _read_fields(reader, "trailers")
                return b"".join(chunks), True
            total = _within_limit(total + n, "chunked body")
            chunk = _read_upto(reader, n + 2)
            if chunk[n:] != b"\r\n":
                raise ValueError(f"reply cut short in a {n}-byte chunk")
            chunks.append(chunk[:n])
    length = fields.get(b"content-length")
    if coding is not None or length is None:  # then the body ends at the close
        data = _read_upto(reader, HTTP_MAX_BODY + 1)
        if len(data) > HTTP_MAX_BODY:
            raise ValueError(f"reply body read to the close is over the {HTTP_MAX_BODY}-byte limit")
        return data, False
    if not length.isdigit():
        raise ValueError(f"bad Content-Length: {length[:40]!r}")
    n = _within_limit(int(length), "Content-Length")
    data = _read_upto(reader, n)
    if len(data) < n:
        raise ValueError(f"reply cut short: {len(data)} of {n} body bytes")
    return data, True


def _head(start: str, headers: dict[str, str]) -> bytes:
    """A request line and its header lines, CRLF-joined, without the blank
    line that ends them. A request line that is not three words of printable
    ASCII, or a header value that is not printable ASCII (a line break, say),
    raises ValueError naming the header but not its value."""
    if len(start.split(" ")) != 3 or not (start.isascii() and start.isprintable()):
        raise ValueError(f"cannot send the request line {start!r}")
    for name, value in headers.items():
        if not (value.isascii() and value.isprintable()):
            raise ValueError(f"cannot send the {name} header: its value holds a line "
                             f"break, another control character or a non-ASCII character")
    return "\r\n".join([start, *(f"{name}: {value}" for name, value in headers.items())]
                       ).encode("ascii")


def _environment_proxy(scheme: str, netloc: str) -> str | None:
    """The proxy urllib would use for `scheme` to `netloc`, if any. Off
    macOS and Windows, which also keep proxies in system settings, urllib
    reads them only from variables named `*_proxy` (any case), so
    urllib.request, which loads Python's HTTP client and ssl, is imported
    only when one is set."""
    if sys.platform not in ("darwin", "win32") and not any(
            name[-6:].lower() == "_proxy" for name in os.environ):
        return None
    import urllib.request

    proxy = urllib.request.getproxies().get(scheme)
    return proxy if proxy and not urllib.request.proxy_bypass(netloc) else None


def _route(url: str, headers: dict[str, str],
           timeout: float) -> tuple[bytes, Callable[[], _Connection]]:
    """How urllib's default opener reaches `url`: the head of each POST, up
    to its Content-Length value, and a function that opens a connection.
    A proxied `http` request goes to the proxy with its absolute URI, an
    `https` one through a CONNECT tunnel, and credentials in the proxy URL
    become `Proxy-Authorization: Basic`. A header value or URL that HTTP
    cannot carry (a line break, say) raises ValueError here."""
    import socket
    import urllib.parse

    origin = urllib.parse.urlsplit(url)
    netloc = origin.netloc.rpartition("@")[2]
    target = urllib.parse.urlunsplit(("", "", origin.path or "/", origin.query, ""))
    scheme, host, port, tunnel = origin.scheme, origin.hostname, origin.port, None
    proxy = _environment_proxy(scheme, netloc)
    if proxy:
        via = urllib.parse.urlsplit(proxy if "://" in proxy else f"//{proxy}")
        credentials = {}
        if via.username and via.password:
            import base64

            secret = urllib.parse.unquote(f"{via.username}:{via.password}").encode()
            credentials["Proxy-Authorization"] = "Basic " + base64.b64encode(
                secret).decode("ascii")
        if scheme == "https":  # CONNECT carries the credentials
            authority = netloc if origin.port else f"{netloc}:443"
            tunnel = _head(f"CONNECT {authority} HTTP/1.1",
                           {"Host": authority, **credentials}) + b"\r\n\r\n"
        else:
            scheme = via.scheme or scheme
            target = urllib.parse.urlunsplit((*origin[:4], ""))
            headers = {**headers, **credentials}
        host, port = via.hostname, via.port
    if scheme not in _DEFAULT_PORT:
        raise ValueError(f"unknown url type: {url!r}"
                         + (f" through a {scheme} proxy" if proxy else ""))
    # An ASCII host goes to getaddrinfo as bytes, which spares the process
    # the idna codec (and the stringprep and unicodedata it loads).
    address = (host.encode("ascii") if host and host.isascii() else host,
               port or _DEFAULT_PORT[scheme])
    # The head ends in "Content-Length: "; each call appends its body's length.
    head = _head(f"POST {target} HTTP/1.1", {
        "Host": netloc, "Accept-Encoding": "identity", **headers, "Content-Length": ""})
    context = server_name = None
    if scheme == "https":
        import ssl

        # One verifying context per backend; it reads SSL_CERT_FILE and SSL_CERT_DIR.
        context = ssl.create_default_context()
        server_name = origin.hostname if tunnel else host

    def connect() -> _Connection:
        sock = socket.create_connection(address, timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if tunnel is not None:
                sock.sendall(tunnel)
                with sock.makefile("rb") as reader:
                    status, reason, _keep, _fields = _read_head(reader)
                if status != 200:
                    raise OSError(f"Tunnel connection failed: {status} {reason}")
            if context is not None:
                sock = context.wrap_socket(sock, server_hostname=server_name)
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    return head, connect


class _HttpBackend:
    """JSON POSTs to one URL over persistent HTTP/1.1 connections.

    A call takes an idle connection or opens one, writes the request's head
    and body in one send, and reads the reply through the connection's
    buffered reader. It gives the connection back after a complete reply
    unless the reply asks to close it or ends only when the connection
    does, so no more connections are open than calls in flight. `close`
    closes the idle ones; a connection given back after that is closed at
    once.
    """

    channel: str

    def __init__(self, url: str, headers: dict[str, str]):
        import socket

        self._head, self._connect = _route(url, {"Content-Type": "application/json", **headers},
                                           HTTP_TIMEOUT[self.channel])
        # A server that writes a reply's headers and body in two sends with
        # Nagle on holds the body until the headers are acknowledged; a
        # delayed ACK would cost a reused connection about 40 ms a call.
        self._quickack = ((socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
                          if hasattr(socket, "TCP_QUICKACK") else None)
        self._idle: list[_Connection] | None = []
        self._lock = threading.Lock()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle or [], None
        for conn in idle:
            conn.close()

    def _exchange(self, body: bytes) -> tuple[int, str, bytes]:
        """Send one POST and read its whole reply: its status, reason and
        body. A connection taken idle that fails with a ConnectionError
        before a status line (the server closed it while it sat idle) is
        replaced, and the POST sent again once, at once, on the fresh one."""
        request = self._head + b"%d\r\n\r\n" % len(body) + body
        with self._lock:
            idle = self._idle.pop() if self._idle else None
        conn = idle or self._connect()
        try:
            while True:
                try:
                    conn.sock.sendall(request)
                    if self._quickack is not None:
                        conn.sock.setsockopt(*self._quickack)
                    status, reason, keep, fields = _read_head(conn.reader)
                    break
                except ConnectionError:
                    if conn is not idle:
                        raise
                    conn.close()
                    conn = self._connect()
            data, delimited = _read_body(conn.reader, status, fields)
        except BaseException:
            conn.close()
            raise
        with self._lock:
            keep = keep and delimited and self._idle is not None
            if keep:
                self._idle.append(conn)
        if not keep:
            conn.close()
        return status, reason, data

    def _post(self, payload: dict,
              reply: Callable[[dict], tuple[str | None, bool]]) -> ChatResponse:
        """POST a JSON payload; `reply` reads the decoded reply's completion
        text (null when there is none) and whether it was cut off. A non-2xx
        status is worded `HTTP Error 503: Service Unavailable`, followed by
        the server's own error text when its body carries one. A 4xx other
        than 408 and 429 is a refused request, which no retry can fix. Any
        other non-2xx status, a connection fault or timeout, a reply HTTP
        cannot frame and a reply that is not JSON (or nests it too deeply to
        parse) each become a TransportError naming the channel; a reply of
        the wrong shape, its text not a string included, is a malformed
        reply."""
        started = time.perf_counter()
        try:
            status, reason, data = self._exchange(
                json.dumps(payload, allow_nan=False).encode("utf-8"))
            if not 200 <= status < 300:
                message = (f"{self.channel} chat call failed: "
                           f"HTTP Error {status}: {reason}{_server_words(data)}")
                if 400 <= status < 500 and status not in (408, 429):
                    raise ModelCallError(message, "refused request")
                raise TransportError(message)
            body = loads(data)
        except (OSError, ValueError) as exc:
            raise TransportError(f"{self.channel} chat call failed: {exc}") from exc
        latency = (time.perf_counter() - started) * 1000.0

        def build(body: dict) -> ChatResponse:
            text, truncated = reply(body)
            return ChatResponse(raw_text="" if text is None else text, latency_ms=latency,
                                finish_reason="truncated" if truncated else "complete")

        return decode(build, body, lambda message: ModelCallError(
            f"malformed {self.channel} chat reply: {message}", "malformed reply"))


def _server_words(data: bytes) -> str:
    """`: ` and the error text of a non-2xx reply's JSON body, cut to 200
    characters: Ollama's `error` string or OpenAI's `error.message`. Empty
    when the body carries neither."""
    try:
        error = loads(data)
    except ValueError:
        return ""
    error = error.get("error") if isinstance(error, dict) else None
    if isinstance(error, dict):
        error = error.get("message")
    return f": {error[:200]}" if isinstance(error, str) and error else ""


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

    A call retried after a TransportError waits for its backoff, or less: a
    reply to another call (any response its backend returns) is proof that
    the backend answers again, and releases the oldest waiting retry at once.
    Each reply releases at most one, so retries go out no faster than replies
    come back; with no reply, as from a dead endpoint or on a single lane, a
    retry waits its whole backoff. `sleep`, a test seam, replaces that wait.
    """

    def __init__(self, profile: BackendProfile, phase: str, *,
                 sleep: Callable[[float], None] | None = None):
        if phase not in (PHASE_CLOUD, PHASE_LOCAL):
            raise ValueError(f"Gateway.phase: must be cloud or local, got {phase!r}")
        if phase == PHASE_CLOUD and profile.kind == KIND_LOCAL_HTTP:
            raise PhaseViolationError("cloud phase cannot use a local_http profile")
        if phase == PHASE_LOCAL and profile.kind == KIND_CLOUD_HTTP:
            raise PhaseViolationError("local phase cannot use a cloud_http profile")
        self.profile = profile
        self.phase = phase
        self._sleep = sleep or self._wait
        self._lock = threading.Lock()
        self._waiting: deque[threading.Event] = deque()  # retries' waits, oldest first
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

    def _wait(self, seconds: float) -> None:
        """Wait `seconds` before a retry, unless a reply releases it sooner."""
        event = threading.Event()
        with self._lock:
            self._waiting.append(event)
        if not event.wait(seconds):
            with self._lock:
                if not event.is_set():
                    self._waiting.remove(event)

    def _replied(self) -> None:
        """Release the oldest waiting retry, if any."""
        with self._lock:
            if self._waiting:
                self._waiting.popleft().set()

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
            self._replied()
            if response.finish_reason == "truncated":
                raise ModelCallError("backend reported a truncated completion", "truncation")
            if not response.raw_text.strip():
                raise ModelCallError("backend returned an empty completion", "empty reply")
            return replace(response, retries=attempt) if attempt else response
        raise TransportError(
            f"gave up after {RETRY_ATTEMPTS} attempts: {last_error}") from last_error

