"""The shared wire layer at its boundary: malformed, oversized and
truncated requests against both servers, a fuzz property over raw
request bytes, and the DSE client's refusal to resend a rejected
request.

Every boundary case must end in a well-formed 4xx response or a clean
close, and the same server must answer ``GET /healthz`` afterwards.
"""

import http.client
import json
import logging
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.dse import ClientError, DseService, ServiceClient, ServiceThread
from repro.emu.sessions import SessionManager, SessionServerThread

SOCKET_TIMEOUT = 10.0


@pytest.fixture(scope="module", params=["dse", "sessions"])
def server(request):
    if request.param == "dse":
        handle = ServiceThread(DseService())
    else:
        handle = SessionServerThread(SessionManager(compile_cache=None))
    handle.kind = request.param
    with handle:
        yield handle


def _address(handle):
    host, port = handle.url[len("http://"):].rsplit(":", 1)
    return host, int(port)


def exchange(handle, data):
    """Send raw bytes, half-close, and return all the server sent back
    before it closed the connection."""
    with socket.create_connection(_address(handle),
                                  timeout=SOCKET_TIMEOUT) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def parse_responses(raw):
    """Split a byte stream into well-formed responses -> [(status,
    headers, body)]; fails on anything malformed or truncated."""
    responses = []
    while raw:
        head, sep, raw = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head {head!r}"
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        version, status, _reason = status_line.split(" ", 2)
        assert version == "HTTP/1.1" and status.isdigit()
        headers = {}
        for line in header_lines:
            name, colon, value = line.partition(":")
            assert colon, f"malformed response header {line!r}"
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding") == "chunked":
            body = b""
            while True:
                size, _, raw = raw.partition(b"\r\n")
                chunk, raw = raw[:int(size, 16)], raw[int(size, 16) + 2:]
                if not chunk:
                    break
                body += chunk
        else:
            length = int(headers["content-length"])
            assert len(raw) >= length, "truncated response body"
            body, raw = raw[:length], raw[length:]
            assert isinstance(json.loads(body), dict)
        responses.append((int(status), headers, body))
    return responses


def assert_healthy(handle):
    conn = http.client.HTTPConnection(*_address(handle),
                                      timeout=SOCKET_TIMEOUT)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["ok"] is True
    finally:
        conn.close()


def rejected(handle, data):
    """The one response to ``data``, which must be a 4xx; the server
    must stay healthy."""
    responses = parse_responses(exchange(handle, data))
    assert len(responses) == 1, responses
    status, _headers, body = responses[0]
    assert 400 <= status < 500, (status, body)
    assert "error" in json.loads(body)
    assert_healthy(handle)
    return status


def post(path, body, length=None):
    length = len(body) if length is None else length
    return (f"POST {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n").encode() + body


def json_route(handle):
    """A POST route that accepts an empty JSON object."""
    return "/work" if handle.kind == "dse" else "/sessions"


# --- measured defects: one regression test each -----------------------------------

@pytest.mark.parametrize("length", ["-5", "abc"])
def test_malformed_content_length_is_400(server, length):
    request = (f"POST {json_route(server)} HTTP/1.1\r\nHost: test\r\n"
               f"Content-Length: {length}\r\n\r\n{{}}").encode()
    assert rejected(server, request) == 400


@pytest.mark.parametrize("body", [b"42", b"[]"])
def test_non_object_json_body_is_400(server, body):
    assert rejected(server, post(json_route(server), body)) == 400


def test_uncoercible_work_count_is_400():
    with ServiceThread(DseService()) as handle:
        handle.kind = "dse"
        assert rejected(handle, post("/work", b'{"count": "xx"}')) == 400


def test_uncoercible_run_budget_is_400():
    manager = SessionManager(compile_cache=None)
    with SessionServerThread(manager) as handle:
        handle.kind = "sessions"
        session_id = manager.create({}).session_id
        request = post(f"/sessions/{session_id}/run",
                       b'{"max_instructions": "abc"}')
        assert rejected(handle, request) == 400


def test_truncated_body_closes_after_deadline(server, monkeypatch):
    monkeypatch.setattr(wire, "REQUEST_DEADLINE_SECONDS", 0.3)
    with socket.create_connection(_address(server),
                                  timeout=SOCKET_TIMEOUT) as sock:
        started = time.monotonic()
        sock.sendall(post(json_route(server), b'{"cou', length=20))
        assert sock.recv(65536) == b""          # closed, no response
        assert time.monotonic() - started >= 0.3
    assert_healthy(server)


def test_body_over_cap_is_413(server):
    request = post(json_route(server), b"", length=wire.MAX_BODY_BYTES + 1)
    assert rejected(server, request) == 413


def test_too_many_headers_is_4xx(server):
    headers = "".join(f"X-Filler-{index}: {index}\r\n"
                      for index in range(wire.MAX_HEADERS + 1))
    request = f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode()
    rejected(server, request)


def test_idle_keep_alive_connection_survives_the_deadline(server,
                                                          monkeypatch):
    monkeypatch.setattr(wire, "REQUEST_DEADLINE_SECONDS", 0.2)
    conn = http.client.HTTPConnection(*_address(server),
                                      timeout=SOCKET_TIMEOUT)
    try:
        sockets = []
        for pause in (0.5, 0.0):
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            sockets.append(conn.sock)
            time.sleep(pause)                 # idle well past the deadline
        assert sockets[0] is sockets[1]       # one connection throughout
    finally:
        conn.close()


def test_malformed_work_is_not_retried():
    naps = []
    with ServiceThread(DseService()) as handle:
        client = ServiceClient(handle.url, sleep=naps.append)
        try:
            with pytest.raises(ClientError) as error:
                client.request("POST", "/work", {"count": "xx"})
        finally:
            client.close()
    assert error.value.status == 400
    assert client.retries == 0 and naps == []


# --- fuzz: arbitrary request bytes ------------------------------------------------

_text = st.text(st.characters(min_codepoint=0, max_codepoint=255),
                max_size=24)
_header = st.tuples(
    st.sampled_from(["Content-Length", "Connection", "Host",
                     "Transfer-Encoding", ""]) | _text,
    st.sampled_from(["0", "2", "-1", "close", "chunked", "abc",
                     "99999999999"]) | _text)


@st.composite
def request_like(draw):
    """Bytes shaped like a request, broken in arbitrary places."""
    method = draw(st.sampled_from(["GET", "POST", "DELETE", "PUT"]) | _text)
    target = draw(st.sampled_from(
        ["/healthz", "/metrics", "/work", "/sessions", "/studies",
         "/studies/a/b/pareto-stream", "/sessions/x/run"]) | _text)
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]) | _text)
    headers = draw(st.lists(_header, max_size=6))
    body = draw(st.sampled_from([b"", b"{}", b"42", b'{"count": "x"}'])
                | st.binary(max_size=64))
    head = f"{method} {target} {version}\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers) + "\r\n"
    data = head.encode("latin-1") + body
    cut = draw(st.integers(0, len(data)))
    return data[:cut] if draw(st.booleans()) else data


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=256) | request_like())
def test_any_bytes_get_a_response_or_a_clean_close(server, data, caplog):
    caplog.clear()
    for status, _headers, _body in parse_responses(exchange(server, data)):
        assert 400 <= status < 500 or status in (200, 404), status
    # a connection handler that raised drops the socket unanswered
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert_healthy(server)
