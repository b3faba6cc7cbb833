"""The gateway's HTTP/1.1 reply reader against Python's `http.client`, the
reference.

Whatever the bytes, `_read_head` and `_read_body` raise only ValueError or
OSError, which the gateway turns into a retried TransportError. On generated
well-formed replies (a status line, framing by Content-Length or chunked
coding with random chunk splits, extensions and trailers, header names in
any case, kept alive or closed, fed over a socket pair in random segment
sizes) both readers give the same status, body and keep-alive.

Where the two differ by design, the generator does not go; `gateway`'s
docstring lists those differences and the RFC text behind them. The reader
refuses `Content-Length: 7, 7`, a `0x`-prefixed chunk size, a last chunk
with no final CRLF and `Content-Length: -1` (where `http.client` reads to
the close). It reads `Transfer-Encoding: gzip, chunked` as chunked and
`Transfer-Encoding: identity` beside a length up to the close. Both refuse a
lower-case `http/1.1` status line and a four-digit status, with different
classes. It keeps an HTTP/1.0 reply open only on `Connection: keep-alive`
(not on a `Keep-Alive` or `Proxy-Connection` header). So no generated reply
repeats a header, sends those two headers or is a 204 or 304, and no
generated status line is of another version or a 101. Rows cover these: a
framing header repeated with a different value (refused, RFC 9112 section
6.3, where `http.client` reads the first), repeated Connection lines
(joined, RFC 9110 section 5.3, where `http.client` reads only the first:
after `keep-alive` then `close` the reader closes the connection and
`http.client` keeps it), a 304 (no body), a status line of a version other
than HTTP/1.x (refused by both, but for `HTTP/0.9`, which `http.client`
reads as HTTP/1.0) and a 101 (refused, where `http.client` returns it).
"""

from __future__ import annotations

import http.client
import io
import socket
import threading

import pytest

from orchkit.gateway import _read_body, _read_head

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


# --- any bytes: only ValueError or OSError -----------------------------------

_PIECES = [b"HTTP/1.1 ", b"HTTP/1.0 ", b"HTTP/2 ", b"http/1.1 ", b"200 OK", b"100 Continue",
           b"101 Switching", b"204", b"2000", b"\r\n", b"\n", b"\r", b":", b" ", b";x=y",
           b"Content-Length: ", b"Transfer-Encoding: ", b"chunked", b"gzip, chunked",
           b"identity", b"Connection: ", b"close", b"keep-alive", b"0", b"5", b"7, 7",
           b"-1", b"0x5", b"fF", b"99999999999999999999", b"hello"]
_replies = st.lists(st.one_of(st.sampled_from(_PIECES), st.binary(max_size=6)),
                    max_size=24).map(b"".join)


@hypothesis.settings(max_examples=1500)
@hypothesis.given(_replies)
def test_any_bytes_raise_only_value_or_os_errors(data):
    reader = io.BytesIO(data)
    try:
        status, _reason, _keep, fields = _read_head(reader)
        _read_body(reader, status, fields)
    except (ValueError, OSError):
        pass


# --- well-formed replies: the same status, body and keep-alive ---------------

def _cased(name: str):
    return st.sampled_from([name, name.lower(), name.upper()])


@st.composite
def _well_formed(draw) -> bytes:
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    status = draw(st.sampled_from([200, 201, 202, 301, 400, 404, 429, 500, 503]))
    reason = draw(st.sampled_from(["", " OK", " Not Found", " Service Unavailable"]))
    body = draw(st.binary(max_size=300))
    headers = [f"X-Extra-{i}: {draw(st.sampled_from(['a', 'b c', '']))}"
               for i in range(draw(st.integers(0, 3)))]
    connection = draw(st.sampled_from([None, "close", "keep-alive", "Keep-Alive", "upgrade"]))
    if connection is not None:
        headers.append(f"{draw(_cased('Connection'))}: {connection}")
    chunked = draw(st.booleans())
    if chunked:
        headers.append(f"{draw(_cased('Transfer-Encoding'))}: {draw(_cased('chunked'))}")
        cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=4)))
        pieces = [body[i:j] for i, j in zip([0, *cuts], [*cuts, len(body)]) if j > i]
        framed = b"".join(
            b"%s%s\r\n%s\r\n" % (draw(st.sampled_from(["%x", "%X", "0%x"])).encode() % len(p),
                                 draw(st.sampled_from([b"", b";ext=1", b" ;name"])), p)
            for p in pieces)
        trailers = draw(st.sampled_from([b"", b"X-Checksum: none\r\n"]))
        framed += b"0\r\n" + trailers + b"\r\n"
    else:
        space = draw(st.sampled_from(["", " ", "  "]))
        headers.append(f"{draw(_cased('Content-Length'))}:{space}{len(body)}{space}")
        framed = body
    draw(st.randoms()).shuffle(headers)
    interim = draw(st.sampled_from([b"", b"HTTP/1.1 100 Continue\r\n\r\n"]))
    head = "\r\n".join([f"{version} {status}{reason}", *headers, "", ""]).encode("latin-1")
    return interim + head + framed


def _segments(data: bytes, sizes: list[int]) -> list[bytes]:
    out, start = [], 0
    for size in sizes:
        out.append(data[start:start + size])
        start += size
    return [*out, data[start:]]


def _fed(segments: list[bytes], read):
    """`read(sock)` while a thread sends `segments` on the other end, one send
    each; the sending end stays open, as a kept-alive server's would."""
    ours, theirs = socket.socketpair()
    with ours, theirs:
        ours.settimeout(10)

        def send():
            for segment in segments:
                theirs.sendall(segment)

        sender = threading.Thread(target=send, daemon=True)
        sender.start()
        try:
            return read(ours)
        finally:
            sender.join(timeout=10)


def _read_ours(sock) -> tuple[int, bytes, bool]:
    with sock.makefile("rb") as reader:
        status, _reason, keep, fields = _read_head(reader)
        body, delimited = _read_body(reader, status, fields)
    return status, body, keep and delimited


def _read_theirs(sock) -> tuple[int, bytes, bool]:
    response = http.client.HTTPResponse(sock, method="POST")
    try:
        response.begin()
        return response.status, response.read(), not response.will_close
    finally:
        response.close()


@hypothesis.settings(max_examples=300)
@hypothesis.given(_well_formed(), st.lists(st.integers(1, 40), max_size=6))
def test_a_well_formed_reply_reads_as_http_client_reads_it(reply, sizes):
    segments = _segments(reply, sizes)
    assert _fed(segments, _read_ours) == _fed(segments, _read_theirs)


# --- a repeated framing header ------------------------------------------------

@pytest.mark.parametrize("headers", [
    b"Content-Length: 5\r\nContent-Length: 3\r\n",
    b"Content-Length: 3\r\ncontent-length: 5\r\n",
    b"Transfer-Encoding: chunked\r\nTransfer-Encoding: identity\r\nContent-Length: 5\r\n",
])
def test_a_framing_header_repeated_with_a_different_value_is_refused(headers):
    # Read as either value, the reply would leave bytes of its body, or take
    # bytes of the next reply, on a connection that goes back to the pool.
    with pytest.raises(ValueError, match="repeats .* with differing values"):
        _fed([b"HTTP/1.1 200 OK\r\n" + headers + b"\r\nhello"], _read_ours)


def test_a_framing_header_repeated_with_the_same_value_reads_as_http_client_reads_it():
    reply = [b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\ncontent-length:5 \r\n\r\nhello"]
    assert _fed(reply, _read_ours) == _fed(reply, _read_theirs) == (200, b"hello", True)


# --- a repeated Connection header ---------------------------------------------

@pytest.mark.parametrize("version", [b"HTTP/1.1", b"HTTP/1.0"])
@pytest.mark.parametrize("connection", [
    b"Connection: close\r\nConnection: keep-alive\r\n",
    b"Connection: close\r\nconnection: upgrade\r\n",
    b"Connection: keep-alive\r\nConnection: keep-alive\r\n",
])
def test_repeated_connection_lines_read_as_http_client_reads_them(version, connection):
    # The lines combine, so a close on the first closes the connection.
    reply = [version + b" 200 OK\r\n" + connection + b"Content-Length: 5\r\n\r\nhello"]
    assert _fed(reply, _read_ours) == _fed(reply, _read_theirs)


# --- a 304 has no body ----------------------------------------------------------

@pytest.mark.parametrize("after", [b"", b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"])
def test_a_304_reads_no_body_whatever_its_length(after):
    # Its Content-Length describes the resource, not bytes on the wire: read
    # as a body, it would take the next reply's first bytes, or wait for
    # bytes that never come.
    reply = [b"HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\n\r\n" + after]
    assert _fed(reply, _read_ours) == _fed(reply, _read_theirs) == (304, b"", True)



# --- only HTTP/1.x, and no 101 ------------------------------------------------

@pytest.mark.parametrize("version", [b"HTTP/2", b"HTTP/2.0", b"HTTP/3.1", b"HTTP/0.9"])
def test_a_status_line_of_another_version_is_refused(version):
    # Read as HTTP/1.1, its connection would go back to the pool. http.client
    # refuses each too but HTTP/0.9, which it reads as HTTP/1.0.
    reply = [version + b" 200 OK\r\nContent-Length: 2\r\n\r\nok"]
    with pytest.raises(ValueError, match="bad status line"):
        _fed(reply, _read_ours)
    if version != b"HTTP/0.9":
        with pytest.raises(http.client.UnknownProtocol):
            _fed(reply, _read_theirs)


def test_a_101_is_refused_not_skipped():
    # No request asks to switch protocols, so the bytes after a 101 are not
    # HTTP/1.1; http.client returns the 101 as the reply.
    reply = [b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: h2c\r\nConnection: Upgrade\r\n\r\n"
             b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"]
    with pytest.raises(ValueError, match="switches protocols"):
        _fed(reply, _read_ours)
    assert _fed(reply, _read_theirs)[0] == 101
