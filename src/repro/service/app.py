"""The sweep service's HTTP surface: asyncio, stdlib only.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server` —
no framework, no dependency — because the API is five resources:

=============================  ===========================================
``GET  /healthz``               liveness + registry summary
``GET  /metrics``               Prometheus text exposition (service gauges)
``POST /runs``                  submit a sweep (specs or named experiment);
                                201 on a new run, 200 when attaching to an
                                existing identical run (idempotent)
``GET  /runs``                  runs held (in flight + newest finished),
                                newest first
``GET  /runs/{id}``             one run's status document
``GET  /runs/{id}/result``      full results + profile; ``?wait=1`` blocks
                                until the run finishes
``GET  /runs/{id}/events``      chunked JSONL progress stream: full history
                                replay, then live events, closed by the
                                terminal run event
=============================  ===========================================

Every response closes the connection (``Connection: close``) — clients
are simple pollers and streamers, not keep-alive pipelines.  Execution
never happens on the loop thread: :class:`~repro.service.registry.RunRegistry`
hands sweeps to a thread pool and the loop only shuffles state dicts and
bytes.

Booting loads only what parsing, registering and answering a request
need: no sweep executor, engine or experiment grid.  :meth:`SweepService.start`
imports the executor on a sweep thread right after the socket is bound, so
the server answers at once and the first submission does not pay for it.

:class:`ServiceThread` wraps the whole server in a background thread with
its own event loop (bind to port 0 to let the OS pick) — the harness the
tests, the smoke check, and embedders use.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Awaitable, Dict, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.experiments.cache import SweepCache
from repro.obs.export import exposition
from repro.service.registry import COMPLETED, FAILED, RunRecord, RunRegistry
from repro.service.schemas import SchemaError, parse_submission
from repro.service.streaming import LAST_CHUNK, encode_chunk, event_line

#: Submission bodies above this are refused outright (413).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Seconds a client gets to deliver its request head, and again its body;
#: a client that stalls longer is answered 408 and disconnected, so a slow
#: or stuck client cannot hold a connection open forever.
READ_TIMEOUT_S = 30.0

#: Reason phrases for the statuses the service actually emits.
_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


@dataclass
class ServiceConfig:
    """Knobs of one service instance."""

    host: str = "127.0.0.1"
    #: 0 = let the OS pick (the bound port is on :attr:`SweepService.port`).
    port: int = 8765
    #: Worker processes per executing sweep (run_sweep max_workers).
    sweep_workers: int = 1
    #: Sweeps executing at once; submissions beyond this queue as "pending".
    max_concurrent_sweeps: int = 2
    #: Result store; also the idempotency backstop across restarts.
    cache: Optional[SweepCache] = None


class _HttpError(Exception):
    """Terminate a request with this status/message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def _json_response(status: int, doc: Any) -> bytes:
    body = (json.dumps(doc, indent=2, sort_keys=False) + "\n").encode("utf-8")
    return _response(status, body)


async def _read_in_time(read: Awaitable[bytes]) -> bytes:
    """Await one request read, or answer 408 after :data:`READ_TIMEOUT_S`."""
    try:
        return await asyncio.wait_for(read, READ_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise _HttpError(
            408, f"request not received within {READ_TIMEOUT_S:g} s"
        ) from None


def _content_length(values: Set[str]) -> int:
    """The body length the request's ``Content-Length`` headers declare.

    A value must be ASCII digits only (``int()`` alone would take ``+5``,
    ``1_0`` or non-ASCII digits), and repeated headers must agree on the
    number: answers 400 otherwise, 413 past :data:`MAX_BODY_BYTES`.  No
    header: no body.
    """
    lengths = set()
    for value in values:
        if not (value.isascii() and value.isdigit()):
            raise _HttpError(400, "bad Content-Length")
        lengths.add(value.lstrip("0") or "0")
    if not lengths:
        return 0
    if len(lengths) > 1:
        raise _HttpError(400, "conflicting Content-Length headers")
    (digits,) = lengths
    # Digit count first: int() refuses strings past ~4300 digits.
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    return int(digits)


def _parse_target(target: str) -> Tuple[str, Dict[str, str]]:
    """``(path, query)`` of a request target; 400 if it does not parse."""
    try:
        url = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
    except ValueError:
        raise _HttpError(400, f"malformed request target: {target!r}") from None
    return url.path.rstrip("/") or "/", query


class SweepService:
    """One listening server + registry, owned by an event loop."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self.registry: Optional[RunRegistry] = None

    # ----------------------------------------------------------- lifecycle
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrent_sweeps,
            thread_name_prefix="sweep",
        )
        self.registry = RunRegistry(
            loop,
            self._executor,
            cache=self.config.cache,
            sweep_workers=self.config.sweep_workers,
        )
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        # Answering a request needs no engine; the sweep executor loads
        # here, off the loop, so the first submission does not wait for it
        # (an import error resurfaces in that submission's run_sweep).
        self._executor.submit(
            importlib.import_module, "repro.experiments.parallel"
        )

    @property
    def port(self) -> int:
        """The actually-bound port (meaningful after :meth:`start`)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            # Don't block the loop on in-flight sweeps; their completion
            # callbacks are dropped harmlessly once the loop is gone.
            self._executor.shutdown(wait=False)
            self._executor = None

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -------------------------------------------------------- HTTP plumbing
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, target, body = await self._read_request(reader)
            except _HttpError as exc:
                writer.write(
                    _json_response(exc.status, {"error": exc.message})
                )
                await writer.drain()
                return
            await self._dispatch(method, target, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        try:
            head = await _read_in_time(reader.readuntil(b"\r\n\r\n"))
        except asyncio.LimitOverrunError:
            raise _HttpError(400, "request head too large") from None
        except asyncio.IncompleteReadError:
            raise ConnectionError("client closed before sending a request")
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        lengths = set()
        for line in header_lines:
            if not line or ":" not in line:
                continue
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                lengths.add(value.strip())
        length = _content_length(lengths)
        body = (
            await _read_in_time(reader.readexactly(length)) if length else b""
        )
        return method, target, body

    async def _dispatch(
        self, method: str, target: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            path, query = _parse_target(target)
            payload = await self._route(method, path, query, body, writer)
        except _HttpError as exc:
            payload = _json_response(exc.status, {"error": exc.message})
        except SchemaError as exc:
            payload = _json_response(400, {"error": str(exc)})
        except Exception as exc:  # a handler bug must not kill the server
            payload = _json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        if payload is not None:  # streaming handlers write themselves
            writer.write(payload)
            await writer.drain()

    async def _route(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> Optional[bytes]:
        registry = self.registry
        assert registry is not None
        if path == "/healthz":
            self._require(method, "GET")
            return _json_response(
                200,
                {
                    "status": "ok",
                    "n_runs": len(registry),
                    "uptime": time.time() - registry.started_at,
                },
            )
        if path == "/metrics":
            self._require(method, "GET")
            text = exposition(registry.metric_families())
            return _response(
                200,
                text.encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/runs":
            if method == "POST":
                return self._submit(body)
            self._require(method, "GET")
            return _json_response(
                200, {"runs": [r.status_dict() for r in registry.runs()]}
            )
        if path.startswith("/runs/"):
            rest = path[len("/runs/"):]
            run_id, _, sub = rest.partition("/")
            record = registry.get(run_id)
            if record is None:
                raise _HttpError(
                    404,
                    f"no run {run_id!r}: this server does not hold it (it "
                    "keeps in-flight runs and only its newest finished "
                    "ones); resubmitting the same specs replays it, from "
                    "the cache if one is configured",
                )
            if sub == "":
                self._require(method, "GET")
                return _json_response(200, record.status_dict())
            if sub == "result":
                self._require(method, "GET")
                return await self._result(record, query)
            if sub == "events":
                self._require(method, "GET")
                await self._stream_events(record, writer)
                return None
            raise _HttpError(404, f"unknown run resource {sub!r}")
        raise _HttpError(404, f"no such path {path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"method {method} not allowed here")

    # ------------------------------------------------------------ handlers
    def _submit(self, body: bytes) -> bytes:
        try:
            doc = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError):
            raise _HttpError(400, "request body is not valid JSON") from None
        specs, experiment = parse_submission(doc)
        assert self.registry is not None
        record, created = self.registry.submit(specs, experiment)
        response = record.status_dict()
        response["created"] = created
        return _json_response(201 if created else 200, response)

    async def _result(self, record: RunRecord, query: Dict[str, str]) -> bytes:
        if query.get("wait") not in (None, "", "0", "false"):
            await record.done.wait()
        if record.state == FAILED:
            return _json_response(500, record.status_dict())
        if record.state != COMPLETED:
            doc = record.status_dict()
            doc["error"] = "run not finished; poll, stream /events, or ?wait=1"
            return _json_response(409, doc)
        assert self.registry is not None
        return _json_response(200, self.registry.result_document(record))

    async def _stream_events(
        self, record: RunRecord, writer: asyncio.StreamWriter
    ) -> None:
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
        )
        try:
            async for event in record.log.subscribe():
                writer.write(encode_chunk(event_line(event)))
                await writer.drain()
            writer.write(LAST_CHUNK)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # subscriber hung up mid-stream; generator cleanup unsubscribes


# ------------------------------------------------------------ entry points
def serve(config: Optional[ServiceConfig] = None) -> None:
    """Run the service in the foreground until interrupted (CLI entry)."""

    async def _main() -> None:
        service = SweepService(config)
        await service.start()
        host = service.config.host
        print(f"repro service listening on http://{host}:{service.port}")
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class ServiceThread:
    """A live service on a background thread — the test/embedding harness.

    >>> with ServiceThread(ServiceConfig(port=0)) as address:
    ...     host, port = address   # doctest: +SKIP

    The thread owns its own event loop; :meth:`stop` tears the server down
    and joins the thread.  Safe to use from synchronous code (tests, the
    smoke check, notebooks).
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig(port=0)
        self.service = SweepService(self.config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.config.host, self.service.port

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.service.start())
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            loop.run_forever()
            # Drain callbacks scheduled by worker threads during shutdown.
            loop.run_until_complete(self.service.stop())
        finally:
            loop.close()
            asyncio.set_event_loop(None)

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self._loop = None
        self._thread = None

    def __enter__(self) -> Tuple[str, int]:
        self.start()
        return self.address

    def __exit__(self, *exc) -> None:
        self.stop()
