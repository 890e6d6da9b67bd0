"""Live shared mapping cache: a TCP server fronting one
:class:`~repro.mapping.cache.MappingCache`, and a client that stands in
for a local cache anywhere one is accepted.

:class:`CacheServer` (``repro serve``) lets runs on different machines
read and write one live table, so a mapping searched by one client is a
hit for every other client during the run.  On one host it does not
pay: every first-touch ``get`` and every ``put`` is a TCP round trip,
and a :class:`CacheClient` cache skips the engine's grouped scoring, so
the evaluation service's shard-local caches (pre-warmed from the
caller's cache, merged back after every job) are faster there even
though shards may repeat a search.

Protocol: newline-delimited JSON over a persistent TCP connection.  Each
request is ``{"op": ..., ...}`` and each response ``{"ok": true, ...}``
(or ``{"ok": false, "error": msg}``).  Keys travel in their normalized
string form (:func:`~repro.mapping.cache.normalize_key`) and entries as
the JSON encoding already used by the persistent cache format, so the
wire format and the disk format stay in lockstep.

The server can periodically snapshot its table to disk through
:meth:`MappingCache.save` — atomic and merge-on-save, in the unchanged
persistent format — so a long-lived server doubles as the writer of the
cache file that cold runs pre-warm from.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import Hashable, Mapping

from .. import obs
from ..mapping.cache import (
    MappingCache,
    decode_search_result,
    encode_search_result,
    normalize_key,
)
from ..mapping.loma import SearchResult

#: Environment variable supplying the shared-secret token when neither
#: ``CacheClient(token=...)`` nor ``repro serve --auth-token`` is given.
AUTH_TOKEN_ENV = "REPRO_AUTH_TOKEN"

#: Seconds between the listener's shutdown checks: ``stop()`` waits up
#: to one interval (``serve_forever`` defaults to 0.5).  Each check is
#: an idle wake-up, about 0.3% of one core.
_POLL_INTERVAL = 0.02

#: Entries a :class:`CacheClient` keeps in its local read cache.
LOCAL_BOUND = 4096

#: Seconds a :class:`CacheClient` waits to connect and for each reply.
CLIENT_TIMEOUT = 60.0


class CacheServerError(RuntimeError):
    """A cache-server request failed (server-side error or lost link)."""


def parse_address(address: "str | tuple[str, int]") -> tuple[str, int]:
    """Normalize ``"host:port"`` (or a ``(host, port)`` pair) to a tuple,
    rejecting a missing host and a port outside 1-65535 (``getaddrinfo``
    would silently wrap 70000 to 4464)."""
    if isinstance(address, tuple):
        host, port = address
    else:
        host, _, port = address.strip().rpartition(":")
    try:
        number = int(port)
    except ValueError:
        number = 0
    if not host or not 1 <= number <= 65535:
        raise ValueError(
            "cache-server address must be HOST:PORT with a port in "
            f"1-65535, got {address!r}"
        )
    return str(host), number


def format_address(address: tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: serve JSON-line requests until EOF."""

    def handle(self) -> None:
        server: CacheServer = self.server.cache_server  # type: ignore[attr-defined]
        while True:
            line = self.rfile.readline()
            if not line:
                break
            request: dict = {}
            try:
                decoded = json.loads(line)
                if not isinstance(decoded, dict):
                    raise ValueError("request must be a JSON object")
                request = decoded
                response = server.handle_request(request)
            except Exception as exc:  # noqa: BLE001 - reported to the client
                response = {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            self.wfile.write(json.dumps(response).encode() + b"\n")
            self.wfile.flush()
            if request.get("op") == "shutdown" and response.get("ok"):
                break


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class CacheServer:
    """Serves one live :class:`MappingCache` table to many clients.

    Parameters
    ----------
    cache:
        The fronted cache.  Passing the handle an :class:`Executor`
        already owns means everything the workers learn lands in the
        caller's cache the moment it is put — no harvest step.  A
        private cache is created when omitted.
    host, port:
        Bind address; port ``0`` (default) picks a free port, reported
        by :attr:`address` after :meth:`start`.
    snapshot_path:
        Optional JSON file for periodic + final snapshots (the unchanged
        persistent cache format, written atomically with merge-on-save).
    snapshot_interval:
        Seconds between periodic snapshots (requires ``snapshot_path``);
        ``None`` snapshots only on :meth:`stop`.
    auth_token:
        Optional shared secret.  When set, every request (``stats``
        included) must carry a matching ``"token"`` field
        — clients pass ``CacheClient(token=...)`` or set the
        ``REPRO_AUTH_TOKEN`` environment variable — and requests
        without one get a clean JSON error instead of service.
    """

    def __init__(
        self,
        cache: MappingCache | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        snapshot_path: "str | Path | None" = None,
        snapshot_interval: float | None = None,
        auth_token: str | None = None,
    ) -> None:
        if snapshot_interval is not None:
            if snapshot_path is None:
                raise ValueError("snapshot_interval requires snapshot_path")
            if snapshot_interval <= 0:
                raise ValueError(
                    f"snapshot_interval must be > 0, got {snapshot_interval}"
                )
        self.cache = cache if cache is not None else MappingCache()
        self.snapshot_path = (
            Path(snapshot_path) if snapshot_path is not None else None
        )
        self.snapshot_interval = snapshot_interval
        self._bind = (host, port)
        self._lock = threading.RLock()
        self._stop_lock = threading.Lock()
        #: Set once a stop (including its final snapshot) has finished;
        #: lets concurrent stop() callers wait instead of racing past.
        self._stop_done = threading.Event()
        self._stop_done.set()
        # The ownership handoff in stop() runs under _stop_lock; the
        # single start() call happens before any concurrent access
        # exists, and the thread/server handles are only touched by
        # the start/stop caller — hence <owner>, not a lock.
        self._server: _TCPServer | None = None  # guarded-by: _stop_lock
        self._thread: threading.Thread | None = None  # guarded-by: <owner>
        self._snapshot_thread: threading.Thread | None = None  # guarded-by: <owner>
        self._stopping = threading.Event()
        self.auth_token = auth_token
        self.requests = {"get": 0, "put": 0}  # guarded-by: _lock
        self.snapshots_written = 0  # guarded-by: _lock
        self.unauthorized = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CacheServer":
        if self._server is not None:
            return self
        server = _TCPServer(self._bind, _Handler)
        server.cache_server = self  # type: ignore[attr-defined]
        self._server = server
        self._stopping.clear()
        self._stop_done.clear()
        self._thread = threading.Thread(
            target=server.serve_forever,
            args=(_POLL_INTERVAL,),
            name="cache-server",
            daemon=True,
        )
        self._thread.start()
        if self.snapshot_interval is not None:
            self._snapshot_thread = threading.Thread(
                target=self._snapshot_loop,
                name="cache-server-snapshot",
                daemon=True,
            )
            self._snapshot_thread.start()
        return self

    def stop(self, save: bool = True) -> None:
        """Shut the server down; with ``save`` (default), write a final
        snapshot when a ``snapshot_path`` is configured.

        Safe to call from several threads (e.g. the remote ``shutdown``
        op and the ``repro serve`` foreground loop): exactly one caller
        performs the teardown, and the others block until it has
        finished — including the final snapshot, so no caller can
        report completion while the snapshot is still being written.
        """
        with self._stop_lock:
            server, self._server = self._server, None
        if server is None:
            # Someone else is (or has finished) stopping: wait for the
            # teardown — final snapshot included — to complete.
            self._stop_done.wait(timeout=30.0)
            return
        try:
            self._stopping.set()
            server.shutdown()
            server.server_close()
            if self._thread is not None:
                self._thread.join(timeout=5.0)
                self._thread = None
            if self._snapshot_thread is not None:
                self._snapshot_thread.join(timeout=5.0)
                self._snapshot_thread = None
            if save and self.snapshot_path is not None:
                self.save_snapshot()
        finally:
            self._stop_done.set()

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); the real port once started."""
        if self._server is not None:
            host, port = self._server.server_address[:2]
            return str(host), int(port)
        return self._bind

    def describe(self) -> str:
        return format_address(self.address)

    def __enter__(self) -> "CacheServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Snapshotting
    # ------------------------------------------------------------------
    def save_snapshot(self, path: "str | Path | None" = None) -> Path:
        """Atomically write the current table in the persistent cache
        format (merge-on-save: concurrent writers are never clobbered)."""
        target = Path(path) if path is not None else self.snapshot_path
        if target is None:
            raise ValueError("cache server has no snapshot path; pass one")
        with self._lock:
            written = self.cache.save(target)
            self.snapshots_written += 1
        return written

    def _snapshot_loop(self) -> None:
        while not self._stopping.wait(self.snapshot_interval):
            self.save_snapshot()

    # ------------------------------------------------------------------
    # Request dispatch (also callable directly, e.g. in tests)
    # ------------------------------------------------------------------
    def handle_request(self, request: Mapping) -> dict:
        if self.auth_token is not None and request.get("token") != self.auth_token:
            # A clean, structured rejection — never an exception, so
            # unauthenticated probes cannot distinguish ops, and every
            # op (stats included) is behind the same gate.
            with self._lock:
                self.unauthorized += 1
            return {
                "ok": False,
                "error": "authentication failed: missing or invalid token "
                "(pass CacheClient(token=...) or set "
                f"{AUTH_TOKEN_ENV})",
                "unauthorized": True,
            }
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            raise ValueError(f"unknown cache-server op {op!r}")
        # One op at a time; the ops' own ``with self._lock`` blocks,
        # which RACE001 checks lexically, re-enter this RLock.
        with self._lock:
            return handler(request)

    def _op_ping(self, request: Mapping) -> dict:
        return {"ok": True, "pong": True, "size": len(self.cache)}

    def _op_get(self, request: Mapping) -> dict:
        key = request["key"]
        with self._lock:
            self.requests["get"] += 1
            entry = self.cache.get(key)
        if entry is None:
            return {"ok": True, "found": False}
        return {"ok": True, "found": True, "entry": encode_search_result(entry)}

    def _op_put(self, request: Mapping) -> dict:
        result = decode_search_result(request["entry"])
        with self._lock:
            self.requests["put"] += 1
            self.cache.put(request["key"], result)
        return {"ok": True}

    def _op_stats(self, request: Mapping) -> dict:
        with self._lock:
            stats = dict(self.cache.stats)
            stats["requests"] = dict(self.requests)
            stats["snapshots_written"] = self.snapshots_written
            stats["unauthorized"] = self.unauthorized
        return {"ok": True, "stats": stats}

    def _op_save(self, request: Mapping) -> dict:
        path = request.get("path") or self.snapshot_path
        if path is None:
            raise ValueError("server has no snapshot path; pass one")
        return {"ok": True, "path": str(self.save_snapshot(path))}

    def _op_shutdown(self, request: Mapping) -> dict:
        # shutdown() blocks until serve_forever returns, so it must run
        # off the handler thread that is executing this very request.
        threading.Thread(target=self.stop, daemon=True).start()
        return {"ok": True}


class CacheClient:
    """A :class:`MappingCache` stand-in backed by a :class:`CacheServer`.

    Implements the cache surface the engines and executors use —
    ``get``/``put``, the ``hits``/``misses`` counters, ``stats`` and
    ``clear`` — so a client can be dropped anywhere a
    :class:`MappingCache` is accepted (e.g.
    ``Executor(cache=CacheClient("host:1234"))``, whose service shards
    then each connect to the same server).

    Reads are cached locally: a key fetched or put once is (while it
    stays among the newest :data:`LOCAL_BOUND` entries) never requested
    again, so the server mostly sees first-touch traffic.  A
    *server-side* hit therefore always means one client benefiting from
    an entry another client produced — the intra-run sharing that
    shard-local caches cannot provide.  The bound keeps long-lived
    clients (service shards) at flat memory; an evicted key is simply
    re-fetched.
    """

    def __init__(
        self,
        address: "str | tuple[str, int]",
        token: str | None = None,
    ) -> None:
        self.address = parse_address(address)
        # Shared-secret auth: an explicit token wins; otherwise the
        # environment supplies one (forked workers inherit it), and
        # None means "server does not require auth".
        self.token = token if token is not None else os.environ.get(AUTH_TOKEN_ENV)
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._file = None
        self._local: dict[str, SearchResult] = {}
        self.hits = 0
        self.misses = 0
        try:
            self.ping()  # fail fast on a bad address or rejected token
        except CacheServerError:
            self.close()
            raise

    def _remember(self, text: str, result: SearchResult) -> None:
        self._local[text] = result
        while len(self._local) > LOCAL_BOUND:
            del self._local[next(iter(self._local))]

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _request(self, payload: dict) -> dict:
        if self.token is not None:
            payload = {**payload, "token": self.token}
        with self._lock:
            try:
                if self._sock is None:
                    self._sock = socket.create_connection(
                        self.address, timeout=CLIENT_TIMEOUT
                    )
                    self._file = self._sock.makefile("rb")
                self._sock.sendall(json.dumps(payload).encode() + b"\n")
                line = self._file.readline()
            except OSError as exc:
                self._drop_connection()
                raise CacheServerError(
                    f"cache server {format_address(self.address)} "
                    f"unreachable: {exc}"
                ) from exc
            if not line:
                self._drop_connection()
                raise CacheServerError(
                    f"cache server {format_address(self.address)} "
                    "closed the connection"
                )
        response = json.loads(line)
        if not response.get("ok"):
            raise CacheServerError(
                response.get("error", "cache server request failed")
            )
        return response

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._file = None

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "CacheClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # MappingCache surface
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> SearchResult | None:
        text = normalize_key(key)
        entry = self._local.get(text)
        if entry is not None:
            self.hits += 1
            if obs.enabled:
                obs.metrics().counter(
                    "cache_client_gets_total", result="local"
                ).inc()
            return entry
        t0 = time.monotonic() if obs.enabled else 0.0
        response = self._request({"op": "get", "key": text})
        if obs.enabled:
            registry = obs.metrics()
            registry.histogram("cache_client_get_seconds").observe(
                time.monotonic() - t0
            )
            registry.counter(
                "cache_client_gets_total",
                result="hit" if response["found"] else "miss",
            ).inc()
        if not response["found"]:
            self.misses += 1
            return None
        entry = decode_search_result(response["entry"])
        self._remember(text, entry)
        self.hits += 1
        return entry

    def put(self, key: Hashable, result: SearchResult) -> None:
        text = normalize_key(key)
        self._remember(text, result)
        t0 = time.monotonic() if obs.enabled else 0.0
        self._request(
            {"op": "put", "key": text, "entry": encode_search_result(result)}
        )
        if obs.enabled:
            obs.metrics().histogram("cache_client_put_seconds").observe(
                time.monotonic() - t0
            )

    def clear(self) -> None:
        """Drop the *local* read cache and counters, as
        :meth:`MappingCache.clear` drops its entries.  The server's table
        is shared by other clients and runs, so it is deliberately left
        untouched."""
        self._local.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return int(self.server_stats()["size"])

    @property
    def stats(self) -> dict[str, int]:
        """This client's local hit/miss view (``size`` is server-side)."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}

    # ------------------------------------------------------------------
    # Server controls
    # ------------------------------------------------------------------
    def ping(self) -> int:
        """Round-trip to the server; returns its current table size."""
        return int(self._request({"op": "ping"})["size"])

    def server_stats(self) -> dict:
        """The server's aggregate stats (hits there are cross-client)."""
        return self._request({"op": "stats"})["stats"]

    def save(self, path: "str | Path | None" = None) -> Path:
        """Ask the server to snapshot its table to disk."""
        request: dict = {"op": "save"}
        if path is not None:
            request["path"] = str(path)
        return Path(self._request(request)["path"])

    def shutdown_server(self) -> None:
        self._request({"op": "shutdown"})
        self.close()
