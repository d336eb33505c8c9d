"""repro.service — multi-tenant session serving for the SIDER loop.

Turns the single-process :class:`~repro.core.session.ExplorationSession`
library into a server: many concurrent sessions over named datasets, with
persistence, solve caching, and a stdlib-only JSON-over-HTTP API.

Layering (each stratum usable on its own):

``store``    :class:`SessionStore` checkpoint backends (memory / directory)
``cache``    :class:`SolveCache` — reuse fitted background models
``manager``  :class:`SessionManager` — locks, LRU eviction, TTL, resume
``api``      :class:`ServiceAPI` — transport-agnostic JSON routing,
             every route under ``/v1``
``server``   :class:`ReproServer` — ``ThreadingHTTPServer`` front-end
``client``   :class:`ServiceClient` — urllib-based Python client
``rpc``      length-prefixed JSON frames over Unix sockets (shard link)
``worker``   :class:`WorkerRuntime` — one shard's service stack over RPC
``router``   :class:`Router` — sticky-session front-end over a
             :class:`WorkerPool` (``repro serve --workers N``)

The ``/v1`` API speaks the unified vocabularies end-to-end: view
objectives come from :mod:`repro.projection.registry`
(``GET /v1/objectives`` lists them, including ones registered by user
code) and user knowledge travels as :mod:`repro.feedback` objects — a
mixed batch posted to ``POST /v1/sessions/{id}/feedback`` applies with at
most one background-model fit.

Quick start
-----------
>>> from repro.service import SessionManager, start_background, ServiceClient
>>> manager = SessionManager({"demo": my_data})          # doctest: +SKIP
>>> server = start_background(manager)                   # doctest: +SKIP
>>> client = ServiceClient(server.base_url)              # doctest: +SKIP
>>> sid = client.create_session("demo")                  # doctest: +SKIP
>>> client.view(sid)["axis_labels"]                      # doctest: +SKIP

Or from the command line: ``repro serve --port 8000``.
"""

from repro.service.api import API_VERSION, ServiceAPI, view_to_dict
from repro.service.cache import L2SolveCache, SolveCache, solve_key
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.manager import (
    SessionExistsError,
    SessionManager,
    UnknownDatasetError,
)
from repro.service.router import (
    HashRing,
    InProcessWorker,
    ProcessWorker,
    Router,
    WorkerPool,
)
from repro.service.server import ReproServer, serve, start_background
from repro.service.worker import WorkerConfig, WorkerRuntime
from repro.service.store import (
    DirectoryStore,
    InvalidSessionIdError,
    MemoryStore,
    SessionNotFoundError,
    SessionStore,
    StoreError,
)

__all__ = [
    "API_VERSION",
    "DirectoryStore",
    "HashRing",
    "InProcessWorker",
    "InvalidSessionIdError",
    "L2SolveCache",
    "MemoryStore",
    "ProcessWorker",
    "ReproServer",
    "Router",
    "ServiceAPI",
    "ServiceClient",
    "ServiceClientError",
    "SessionExistsError",
    "SessionManager",
    "SessionNotFoundError",
    "SessionStore",
    "SolveCache",
    "StoreError",
    "UnknownDatasetError",
    "WorkerConfig",
    "WorkerPool",
    "WorkerRuntime",
    "serve",
    "solve_key",
    "start_background",
    "view_to_dict",
]
