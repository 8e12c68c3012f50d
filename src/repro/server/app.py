"""Scheduling as a service: an asyncio HTTP front over the batch engine.

A :class:`SchedulingServer` is a persistent process that turns the
one-shot :func:`repro.api.simulate` / :func:`repro.api.evaluate_grid`
calls into a request/response service:

* ``POST /simulate`` — body ``{"scenario": {...}, "policy": "auto",
  "config": {...}}``; returns the report as JSON (summary statistics by
  default; ``"include_samples": true`` adds the raw makespan samples,
  ``"per_job": true`` the per-job tail statistics).  An absent or
  ``null`` ``config`` runs the defaults; any other non-object
  ``config``, or a non-boolean flag, is a 400.
* ``POST /grid`` — body ``{"grid": {...}}`` (a serialized
  :class:`~repro.api.scenario.ScenarioGrid`) or ``{"scenarios":
  [{...}, ...]}``, plus ``"policies"`` / ``"config"``; returns every
  cell's report, scenario-major.
* ``GET /policies`` — the policy registry listing.
* ``GET /healthz`` — liveness plus served/error counters, in-flight
  depth, the executor's stats (including a warm worker's solve-cache
  counters — how warm-pool reuse is observed from the outside), and the
  server process's resolved ``kernel_threads`` count.

The HTTP layer is deliberately minimal — stdlib ``asyncio`` streams, no
framework: an HTTP/1.1 parser supporting keep-alive and
``Content-Length`` bodies is all a measurement service needs, and it
keeps the event loop transparent for the latency experiments built on
top.  Simulation work never blocks the loop: handlers run on a thread
pool, and the heavy lifting is dispatched through the injected request
executor (:mod:`repro.api.executors`) — a warm process pool under
the default server configuration.  Shutdown is graceful: the listener
closes first, in-flight requests drain (bounded by ``drain_timeout``),
then connections are torn down.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.api.config import resolve_kernel_threads
from repro.api.executors import RequestExecutor, SerialExecutor
from repro.api.registry import list_policies
from repro.api.scenario import Scenario, ScenarioGrid, SimConfig
from repro.api.service import evaluate_grid, simulate
from repro.errors import ReproError

__all__ = [
    "HttpError",
    "SchedulingService",
    "SchedulingServer",
    "ServerHandle",
    "serve_background",
]

#: Largest accepted request body; a grid request is small (it is a
#: declarative recipe, not data), so anything bigger is a client bug.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Idle keep-alive connections are dropped after this many seconds.
KEEP_ALIVE_TIMEOUT = 60.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request failure with an HTTP status (4xx for client mistakes)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = int(status)
        self.message = message


def _require(body: dict, key: str):
    value = body.get(key)
    if value is None:
        raise HttpError(400, f"missing required field {key!r}")
    return value


def _parse(cls, data, what: str):
    """``cls.from_dict(data)`` with client errors mapped to 400s."""
    if not isinstance(data, dict):
        raise HttpError(400, f"{what} must be a JSON object")
    try:
        return cls.from_dict(data)
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        raise HttpError(400, f"invalid {what}: {exc}") from exc


def _config(body: dict) -> SimConfig:
    """The request's ``config``; absent or ``null`` means the defaults."""
    data = body.get("config")
    return _parse(SimConfig, {} if data is None else data, "config")


def _flag(body: dict, key: str) -> bool:
    """An optional JSON-boolean request field (absent means false)."""
    value = body.get(key, False)
    if not isinstance(value, bool):
        raise HttpError(400, f"{key} must be a JSON boolean")
    return value


def _report_payload(report, include_samples: bool) -> dict:
    """A report as response JSON — summary-sized unless samples are asked
    for (load tests want small constant-size responses)."""
    lo, hi = report.stats.ci95
    payload = {
        "policy": report.policy,
        "mean": report.mean,
        "ci95": [lo, hi],
        "lower_bound": report.lower_bound,
        "ratio": report.ratio,
        "n_trials": report.stats.n_trials,
        "scenario": report.scenario.to_dict() if report.scenario else None,
        "config": report.config.to_dict(),
    }
    if report.kernel is not None:
        payload["kernel"] = report.kernel
    if include_samples:
        payload["samples"] = report.stats.samples.tolist()
    if report.per_job is not None:
        payload["per_job"] = report.per_job.to_dict()
    return payload


class SchedulingService:
    """The transport-independent request handlers.

    Owns the injected :class:`~repro.api.executors.RequestExecutor`
    *reference* (not its lifecycle; without one it runs requests on its
    own :class:`~repro.api.executors.SerialExecutor`) and the service
    counters; the HTTP layer, tests, and any future transport call
    :meth:`handle` with ``(method, path, body-dict-or-None)`` and get
    ``(status, payload)`` back.
    """

    def __init__(self, executor: RequestExecutor | None = None):
        self.executor = executor if executor is not None else SerialExecutor()
        self.started_at = time.time()
        self.served = 0
        self.errors = 0

    # -- endpoint handlers -------------------------------------------------

    def handle(self, method: str, path: str, body: dict | None) -> tuple[int, dict]:
        """Route one request; raises :class:`HttpError` on client errors."""
        route = self._ROUTES.get(path)
        if route is None:
            raise HttpError(404, f"no such endpoint: {path}")
        want_method, handler = route
        if method != want_method:
            raise HttpError(405, f"{path} expects {want_method}, got {method}")
        return 200, handler(self, body)

    def healthz(self, _body=None) -> dict:
        return {
            "status": "ok",
            "uptime_s": time.time() - self.started_at,
            "served": self.served,
            "errors": self.errors,
            "executor": self.executor.stats(),
            # Resolved here, in the server process: each request sends its
            # own resolved count to the workers with its trial chunks.
            "kernel": {"threads": resolve_kernel_threads()},
        }

    def policies(self, _body=None) -> dict:
        rows = [
            {
                "name": info.name,
                "aliases": list(info.aliases),
                "default_for": list(info.default_for),
                "batch_dispatch": info.batch_dispatch,
                "summary": info.summary,
            }
            for info in list_policies()
        ]
        return {"policies": rows, "n": len(rows)}

    def simulate(self, body: dict) -> dict:
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        scenario = _parse(Scenario, _require(body, "scenario"), "scenario")
        config = _config(body)
        policy = body.get("policy", "auto")
        if not isinstance(policy, str):
            raise HttpError(400, "policy must be a registry name string")
        per_job = _flag(body, "per_job")
        include = _flag(body, "include_samples")
        try:
            report = simulate(
                scenario, policy, config, executor=self.executor, per_job=per_job,
            )
        except ReproError as exc:
            raise HttpError(400, str(exc)) from exc
        return _report_payload(report, include)

    def grid(self, body: dict) -> dict:
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        if "grid" in body:
            grid = _parse(ScenarioGrid, body["grid"], "grid")
        elif "scenarios" in body:
            if not isinstance(body["scenarios"], list) or not body["scenarios"]:
                raise HttpError(400, "scenarios must be a non-empty list")
            grid = [_parse(Scenario, s, "scenario") for s in body["scenarios"]]
        else:
            raise HttpError(400, "missing required field 'grid' (or 'scenarios')")
        policies = body.get("policies", ["auto"])
        if isinstance(policies, str):
            policies = [policies]
        if not isinstance(policies, list) or not all(
            isinstance(p, str) for p in policies
        ):
            raise HttpError(400, "policies must be a list of registry names")
        config = _config(body)
        per_job = _flag(body, "per_job")
        include = _flag(body, "include_samples")
        try:
            reports = evaluate_grid(
                grid, tuple(policies), config=config, executor=self.executor,
                per_job=per_job,
            )
        except ReproError as exc:
            raise HttpError(400, str(exc)) from exc
        return {
            "reports": [_report_payload(r, include) for r in reports],
            "n": len(reports),
        }

    _ROUTES = {
        "/healthz": ("GET", healthz),
        "/policies": ("GET", policies),
        "/simulate": ("POST", simulate),
        "/grid": ("POST", grid),
    }


class SchedulingServer:
    """The asyncio HTTP transport around a :class:`SchedulingService`.

    Parameters
    ----------
    executor:
        Request executor backing the service (default: a
        :class:`~repro.api.executors.SerialExecutor`).  The server does
        not close it — lifecycles compose from the outside
        (``with WarmPoolExecutor() as ex: ...``).
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        ``server.port`` after :meth:`start`).
    max_handlers:
        Size of the thread pool request handlers run on — the cap on
        concurrently *executing* requests (further requests queue; the
        open-loop load driver measures that queueing as latency, which
        is the point).
    drain_timeout:
        Grace period for in-flight requests at shutdown.
    """

    def __init__(self, executor: RequestExecutor | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_handlers: int = 8, drain_timeout: float = 10.0):
        self.service = SchedulingService(executor)
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self._threads = ThreadPoolExecutor(
            max_workers=max_handlers, thread_name_prefix="repro-http"
        )
        self._server: asyncio.AbstractServer | None = None
        self._in_flight = 0
        self._drained = asyncio.Event()
        self._stopping = False

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:  # pragma: no cover - CLI path
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, tear down."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # clear-then-check runs atomically on the loop (no await between),
        # so a request finishing right now cannot slip past the wait.
        self._drained.clear()
        if self._in_flight > 0:
            try:
                await asyncio.wait_for(
                    self._drained.wait(), timeout=self.drain_timeout
                )
            except asyncio.TimeoutError:  # pragma: no cover - only on hangs
                pass
        self._threads.shutdown(wait=False)

    # -- connection handling ----------------------------------------------

    async def _client_connected(self, reader, writer) -> None:
        """One keep-alive connection: serve requests until close/EOF."""
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader), timeout=KEEP_ALIVE_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    break
                if request is None:  # EOF between requests
                    break
                keep_alive = await self._dispatch(writer, *request)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _read_request(self, reader):
        """Parse one HTTP/1.1 request; None on clean EOF.

        Returns ``(method, path, headers, raw_body, malformed)`` where
        ``malformed`` carries an :class:`HttpError` to answer with when
        the *framing* was readable but the request line was not.
        """
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            return "GET", "/", {}, b"", HttpError(400, "malformed request line")
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        malformed = None
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
                if n < 0:
                    raise ValueError(length)
            except ValueError:
                return method, target, headers, b"", HttpError(
                    400, f"bad Content-Length: {length!r}"
                )
            if n > MAX_BODY_BYTES:
                # The body cannot be skipped cheaply; answer and close.
                return method, target, headers, b"", HttpError(
                    413, f"body of {n} bytes exceeds limit {MAX_BODY_BYTES}"
                )
            body = await reader.readexactly(n)
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body, malformed

    async def _dispatch(self, writer, method, path, headers, raw_body,
                        malformed) -> bool:
        """Run one request through the service and write the response.

        Returns whether the connection should stay open.
        """
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        close_after = not keep_alive
        self._in_flight += 1
        try:
            if malformed is not None:
                raise malformed
            if self._stopping:
                # Accepted before the listener closed; anything parsed
                # after the stop signal is politely refused.
                raise HttpError(503, "server is shutting down")
            body = None
            if raw_body:
                try:
                    body = json.loads(raw_body)
                except json.JSONDecodeError as exc:
                    raise HttpError(400, f"request body is not JSON: {exc}") from exc
            loop = asyncio.get_running_loop()
            status, payload = await loop.run_in_executor(
                self._threads, self.service.handle, method, path, body
            )
            self.service.served += 1
        except HttpError as exc:
            status, payload = exc.status, {"error": exc.message}
            self.service.errors += 1
            close_after = close_after or exc.status in (400, 413)
        except Exception as exc:  # noqa: BLE001 - the server must answer
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            self.service.errors += 1
        finally:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._drained.set()
        data = json.dumps(payload).encode()
        connection = "close" if close_after else "keep-alive"
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()
        return not close_after


class ServerHandle:
    """A running server on a background thread (tests, loadgen self-serve).

    Created by :func:`serve_background`; exposes ``host`` / ``port`` and
    :meth:`stop` (graceful drain, then join).  Usable as a context
    manager.
    """

    def __init__(self, server: SchedulingServer, loop, thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully stop the server and join its thread."""
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            ).result(timeout)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_background(executor: RequestExecutor | None = None, *,
                     host: str = "127.0.0.1", port: int = 0,
                     max_handlers: int = 8,
                     drain_timeout: float = 10.0) -> ServerHandle:
    """Start a :class:`SchedulingServer` on a daemon thread.

    Blocks until the socket is bound (so ``handle.port`` is final), then
    returns a :class:`ServerHandle`.  The caller owns the executor's
    lifecycle, as everywhere else.
    """
    server = SchedulingServer(
        executor, host=host, port=port, max_handlers=max_handlers,
        drain_timeout=drain_timeout,
    )
    started = threading.Event()
    boot_error: list[BaseException] = []
    loop = asyncio.new_event_loop()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # pragma: no cover - bind failures
            boot_error.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-server", daemon=True)
    thread.start()
    started.wait()
    if boot_error:
        raise boot_error[0]
    return ServerHandle(server, loop, thread)
