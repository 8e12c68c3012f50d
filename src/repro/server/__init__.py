"""``repro.server`` — scheduling as a service.

* :mod:`repro.server.app` — the persistent asyncio HTTP service
  (``POST /simulate``, ``POST /grid``, ``GET /policies``,
  ``GET /healthz``) with keep-alive connections and graceful draining
  shutdown.
* The *request executors* it runs requests on, re-exported from
  :mod:`repro.api.executors` (they live in the api layer, beside the
  service that dispatches on them): :class:`SerialExecutor` (in-process)
  and :class:`WarmPoolExecutor` (one long-lived, solve-cache-warm worker
  pool reused across requests — the one place a worker pool is built;
  it replaces a pool a dead worker broke, and a request whose chunks
  were in flight re-runs them once on the replacement).

Quick start::

    from repro.server import WarmPoolExecutor, serve_background

    with WarmPoolExecutor(n_workers=4) as ex:
        ex.prewarm()
        with serve_background(ex) as handle:
            print("serving on", handle.address)
            ...

or, from a shell: ``repro serve --executor warm-pool`` and
``repro loadgen --rps 50 --duration 10`` (see :mod:`repro.loadgen`).
"""

from repro.api.executors import (
    EXECUTOR_KINDS,
    RequestExecutor,
    SerialExecutor,
    WarmPoolExecutor,
    make_executor,
)
from repro.server.app import (
    HttpError,
    SchedulingServer,
    SchedulingService,
    ServerHandle,
    serve_background,
)

__all__ = [
    # Executors
    "RequestExecutor",
    "SerialExecutor",
    "WarmPoolExecutor",
    "make_executor",
    "EXECUTOR_KINDS",
    # HTTP service
    "HttpError",
    "SchedulingService",
    "SchedulingServer",
    "ServerHandle",
    "serve_background",
]
