"""The one HTTP/1.1 wire layer behind the DSE study service and the
session fleet: JSON objects over keep-alive connections, stdlib only.

A service subclasses :class:`HttpServer` with its route table;
:class:`ServerThread` and :func:`serve` host it, and
:class:`JsonClient` is the clients' shared transport.  Malformed input
at the boundary gets a 4xx, never a traceback or a dropped socket.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import urllib.parse

#: Largest request body accepted (413 beyond).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Most header lines accepted per request (431 beyond).
MAX_HEADERS = 100

#: Seconds a request has, from its first byte, to arrive in full
#: before its connection is closed.
REQUEST_DEADLINE_SECONDS = 30.0

#: What a failed client exchange raises: the connection is gone or garbled.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


class HttpError(Exception):
    """A request the server refuses; carries the HTTP status."""

    def __init__(self, message, status=400):
        super().__init__(message)
        self.status = status


class ResponseError(RuntimeError):
    """A 4xx/5xx response, as a client raises it."""

    def __init__(self, status, payload):
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class FaultInjector:
    """Planned failures for the adversarial suite.

    ``plan(route, count, kind)`` queues faults on a logical route
    (``"suggest"``, ``"complete"``, ``"work"``, ...): ``"error"``
    answers with an HTTP 5xx, ``"drop"`` severs the connection without
    executing the handler, and ``"drop_after"`` executes the handler
    but severs the connection before the response — the lost-response
    case that forces the client to retry an already-applied request.
    Faults are consumed FIFO, one per matching request.
    """

    def __init__(self):
        self._plans = {}
        self.injected = 0

    def plan(self, route, count=1, kind="error", status=500):
        if kind not in ("error", "drop", "drop_after"):
            raise ValueError(f"unknown fault kind {kind!r}")
        self._plans.setdefault(route, []).extend([(kind, status)] * count)

    def take(self, route):
        plans = self._plans.get(route)
        if plans:
            self.injected += 1
            return plans.pop(0)
        return None

    def pending(self):
        return sum(len(v) for v in self._plans.values())


def json_bytes(status, payload, close=False):
    """A complete JSON response."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    reason = http.client.responses.get(status, "Status")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n")
    return head.encode("latin-1") + body


async def _readline(reader):
    try:
        line = await reader.readline()
    except ValueError:  # over the stream's line limit
        raise HttpError("request line or header too long", 431) from None
    if not line.endswith(b"\n"):
        raise asyncio.IncompleteReadError(line, None)  # closed mid-request
    return line


async def read_request(reader, first):
    """The rest of a request whose first byte is ``first`` ->
    ``(method, target, headers, body)``.  A malformed request line,
    header or ``Content-Length`` (or a chunked body) is a 400, a body
    over :data:`MAX_BODY_BYTES` a 413, and more than :data:`MAX_HEADERS`
    headers a 431."""
    fields = (first + await _readline(reader)).decode("latin-1").split()
    if len(fields) != 3 or not fields[2].startswith("HTTP/"):
        raise HttpError("malformed request line")
    headers = {}
    for _ in range(MAX_HEADERS + 1):
        line = await _readline(reader)
        if line in (b"\r\n", b"\n"):
            break
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise HttpError("malformed header line")
        headers[name.lower()] = value.strip()
    else:
        raise HttpError(f"more than {MAX_HEADERS} headers", 431)
    length = headers.get("content-length", "0")
    if "transfer-encoding" in headers or not (length.isascii()
                                              and length.isdigit()):
        raise HttpError("a request body needs a valid Content-Length")
    if int(length) > MAX_BODY_BYTES:
        raise HttpError(f"body over {MAX_BODY_BYTES} bytes", 413)
    body = await reader.readexactly(int(length))
    return fields[0].upper(), fields[1], headers, body


def _call(handler, parts, body):
    """Run a handler on a JSON-object body -> ``(status, result)``."""
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (ValueError, RecursionError):
        payload = None
    if not isinstance(payload, dict):
        return 400, {"error": "request body must be a JSON object"}
    try:
        return handler(parts, payload)
    except HttpError as error:
        return error.status, {"error": str(error)}
    except (ValueError, TypeError, KeyError) as error:
        # a request field that will not coerce: the client's fault
        return 400, {"error": f"bad request: {error!r}"}
    except Exception as error:  # never kill the connection loop
        return 500, {"error": f"internal error: {error!r}"}


class HttpServer:
    """An asyncio HTTP/1.1 server for ``app`` over a subclass's route
    table, ``_route(method, parts) -> (route, handler)``.  Handlers are
    synchronous ``handler(parts, payload) -> (status, result)`` calls,
    so every state transition is atomic with respect to the wire; a
    ``None`` handler marks a streaming route, served by ``_stream``.
    Requests are counted per route in ``app.metrics``, and ``app.faults``
    (a :class:`FaultInjector`), if any, is consulted first."""

    counter = "http_requests"

    def __init__(self, app, host="127.0.0.1", port=0):
        self.app = app
        self.host = host
        self.port = port
        self._server = None

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def _handle_connection(self, reader, writer):
        loop = asyncio.get_running_loop()
        try:
            # idle: wait for the next request's first byte without limit
            while first := await reader.read(1):
                deadline = loop.call_later(REQUEST_DEADLINE_SECONDS,
                                           writer.transport.abort)
                try:
                    method, target, headers, body = await read_request(
                        reader, first)
                except HttpError as error:
                    writer.write(json_bytes(error.status,
                                            {"error": str(error)},
                                            close=True))
                    break
                finally:
                    deadline.cancel()
                if (not await self._handle_request(method, target, body,
                                                   writer)
                        or headers.get("connection", "").lower() == "close"):
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass  # peer gone, deadline passed, or server shutdown
        finally:
            writer.close()

    async def _handle_request(self, method, target, body, writer):
        """Serve one parsed request; False closes the connection."""
        parts = [p for p in target.partition("?")[0].split("/") if p]
        route, handler = self._route(method, parts)
        self.app.metrics.counter(self.counter, route=route).inc()
        faults = getattr(self.app, "faults", None)
        kind, status = (faults and faults.take(route)) or (None, None)
        if kind == "drop":
            return False  # sever before the handler runs
        if kind == "error":
            writer.write(json_bytes(status, {"error": "injected fault"}))
            await writer.drain()
            return True
        if handler is None:
            await self._stream(route, parts, writer)
            return False  # streams close the connection when done
        status, result = _call(handler, parts, body)
        if kind == "drop_after":
            return False  # the work is applied; the acknowledgment is lost
        writer.write(json_bytes(status, result))
        await writer.drain()
        return True


class ServerThread:
    """An app's :class:`HttpServer` on a background event-loop thread
    (tests, the benchmark harness, local runs)."""

    def __init__(self, app, host="127.0.0.1", port=0):
        self._http = app.http_server(host, port)
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("server thread failed to start")

    def _run(self):
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        loop.run_until_complete(self._http.start())
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            self._http._server.close()
            loop.run_until_complete(self._http._server.wait_closed())
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True))
            loop.close()

    @property
    def url(self):
        return f"http://{self._http.host}:{self._http.port}"

    def stop(self):
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False


def serve(app, host, port):
    """Serve ``app`` in the foreground until interrupted."""
    async def _main():
        server = await app.http_server(host, port).start()
        await server._server.serve_forever()
    asyncio.run(_main())


class JsonClient:
    """The clients' shared transport: one stdlib keep-alive connection
    and no retry policy.  A subclass defines ``request(method, path,
    payload=None)``, its own retry and error policy over :meth:`send`.
    """

    def __init__(self, base_url, timeout=30.0):
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme in {base_url!r}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.timeout = timeout
        self._conn = None

    def connect(self):
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def send(self, method, path, payload=None):
        """One exchange -> ``(status, decoded body)``; raises one of
        :data:`TRANSPORT_ERRORS`, closing the connection, on failure."""
        body = b"" if payload is None else json.dumps(payload).encode()
        try:
            self._conn = self._conn or self.connect()
            self._conn.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            response = self._conn.getresponse()
            data = response.read()
        except TRANSPORT_ERRORS:
            self.close()
            raise
        try:
            return response.status, json.loads(data) if data else {}
        except ValueError:
            return response.status, {"error": data.decode("utf-8",
                                                          "replace")}

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def healthz(self):
        return self.request("GET", "/healthz")

    def metrics(self):
        return self.request("GET", "/metrics")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
