"""Keep-alive HTTP connection that times each request and keeps the reply.

One :class:`Connection` per client thread: the benchmark's own client, so
the transport the analyst's browser or proxy would use (one persistent
HTTP/1.1 connection) is what gets measured.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass
from urllib.parse import urlencode


@dataclass
class Exchange:
    """One request and its fully read reply."""

    kind: str            # create | view | feedback | delete
    rid: str             # the benchmark's request id (``?rid=``)
    start: float         # perf_counter() when the request was due or sent
    end: float           # perf_counter() when the body was fully read
    status: int          # HTTP status; 0 when the connection failed
    body: bytes          # raw reply, checked after the timed region
    expect: dict         # what the checks should find (objective, ...)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Connection:
    """A persistent connection to the service with per-request timing."""

    def __init__(self, host: str, port: int, name: str, timeout: float = 120.0):
        self.host, self.port, self.name = host, port, name
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None
        self._seq = 0

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(
        self,
        kind: str,
        method: str,
        path: str,
        body: dict | None = None,
        query: dict | None = None,
        expect: dict | None = None,
        start: float | None = None,
    ) -> Exchange:
        """Send one request and read the whole reply.

        ``start`` backdates the timer to a due time (open loop).  A
        connection error yields status 0 and a fresh connection next time.
        """
        self._seq += 1
        rid = f"{self.name}-{self._seq}"
        params = dict(query or {})
        params["rid"] = rid
        target = f"{path}?{urlencode(params)}"
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        began = time.perf_counter() if start is None else start
        try:
            conn = self._connection()
            conn.request(method, target, body=data, headers=headers)
            reply = conn.getresponse()
            raw = reply.read()
            status = reply.status
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raw, status = repr(exc).encode(), 0
        return Exchange(kind, rid, began, time.perf_counter(), status, raw,
                        dict(expect or {}))
