"""``sensmart serve`` — the base station as a multi-tenant service.

In a deployment, one base station reprograms a whole field of nodes,
and most submissions are *identical*: the same application mix, the
same kernel, resubmitted per node or per retry.  This module puts the
content-addressed pipeline behind a long-lived socket so that economics
becomes explicit: the first submission of an assembly bundle pays for
assemble → rewrite → lint → link → simulate once, and every identical
submission after it — concurrent or later — is answered from the
artifact store without touching the rewriter at all.

Protocol: newline-delimited JSON over TCP.  Each request line is one
object; each response line answers it in order on that connection::

    {"id": 1, "programs": [{"name": "blink", "source": "..."}],
     "options": {"max_instructions": 2000000}}
    -> {"id": 1, "ok": true, "verdict": {...sensmart-verdict/3...}}

    {"op": "stats"}     -> {"ok": true, "stats": {...}}
    {"op": "shutdown"}  -> {"ok": true, "stopping": true}

Concurrency: submissions with the same content key are **single-flight**
— the second arrival awaits the first's in-flight future instead of
booting a second simulator (``coalesced`` counts these).  Distinct
submissions fan out over a thread pool; with ``jobs > 1`` on a platform
with ``fork``, heavy builds go to a process pool (the experiment
runner's pattern) and the parent adopts each verdict into its store.

Everything here is stdlib: asyncio, sockets, threads.  No new deps.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from .pipeline.pipeline import BuildRequest, Pipeline
from .pipeline.report import SERVE_STATS_SCHEMA
from .pipeline.store import ArtifactStore

#: Protocol tag reported in stats.
PROTOCOL = "sensmart-serve/1"

#: Per-line size cap — assembly sources are small; 4 MiB is generous.
MAX_LINE_BYTES = 4 * 1024 * 1024

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7737


# -- worker-process entry (jobs > 1) ---------------------------------------------

_WORKER_PIPELINE: Optional[Pipeline] = None
_WORKER_KEY = None


def _worker_submit(payload: dict, store_path, config) -> dict:
    """Run one submission inside a forked pool worker.

    Each worker keeps its own pipeline over the shared on-disk store
    (writes are atomic rename, so concurrent workers are safe), built
    with the server's kernel *config* so that the verdict is the one
    the parent keys; the parent adopts it into its in-memory tier.
    """
    global _WORKER_PIPELINE, _WORKER_KEY
    if _WORKER_PIPELINE is None or _WORKER_KEY != (store_path, config):
        _WORKER_PIPELINE = Pipeline(store=ArtifactStore(path=store_path),
                                    config=config)
        _WORKER_KEY = (store_path, config)
    return _WORKER_PIPELINE.submit(BuildRequest.from_payload(payload))


class ServeServer:
    """The asyncio job server.  One instance per listening socket."""

    def __init__(self, host: str = DEFAULT_HOST, port: int = 0,
                 store_path=None, jobs: int = 1, config=None):
        self.host = host
        self.port = port
        self.store_path = store_path
        self.jobs = max(1, int(jobs))
        self.pipeline = Pipeline(store=ArtifactStore(path=store_path),
                                 config=config)
        #: Request accounting (submissions, protocol errors, and
        #: arrivals that coalesced onto an in-flight identical build).
        self.requests = 0
        self.errors = 0
        self.coalesced = 0
        self._inflight: dict = {}
        self._client_tasks: set = set()
        self._client_writers: set = set()
        self._executor = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="sensmart-serve")
        self._pool = None
        self._server = None
        self._stopping = asyncio.Event()
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> "ServeServer":
        self.loop = asyncio.get_running_loop()
        if self.jobs > 1:
            self._ensure_pool()
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.port, limit=MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def _ensure_pool(self):
        """Fork a worker pool for jobs > 1; threads remain the fallback
        where ``fork`` is unavailable."""
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            return None
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(processes=self.jobs)
        return self._pool

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (also reachable via the
        ``shutdown`` op on the wire)."""
        if self.loop is None or self.loop.is_closed():
            return
        with contextlib.suppress(RuntimeError):
            # the loop may close between the check and the call
            self.loop.call_soon_threadsafe(self._stopping.set)

    async def run_until_shutdown(self) -> None:
        """Serve until the shutdown op (or :meth:`request_shutdown`),
        then drain in-flight builds and close."""
        try:
            await self._stopping.wait()
            await self._drain()
        finally:
            await self.close()

    async def _drain(self) -> None:
        tasks = list(self._inflight.values())
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Nudge lingering connections to EOF so their handler tasks
        # finish on their own (cancelling them mid-readline is noisy).
        for writer in list(self._client_writers):
            with contextlib.suppress(Exception):
                writer.close()
        if self._client_tasks:
            await asyncio.gather(*list(self._client_tasks),
                                 return_exceptions=True)
        self._executor.shutdown(wait=True)
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    # -- connection handling ----------------------------------------------------

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        self._client_writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self.errors += 1
                    writer.write(_encode({"ok": False,
                                          "error": "request line too "
                                                   "long"}))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._dispatch_line(line)
                writer.write(_encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._client_tasks.discard(task)
            self._client_writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch_line(self, line: bytes) -> dict:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            self.errors += 1
            return {"ok": False, "error": f"bad JSON: {exc}"}
        ident = payload.get("id") if isinstance(payload, dict) else None
        try:
            if not isinstance(payload, dict):
                raise ValueError("request must be a JSON object")
            op = payload.get("op", "submit")
            if op == "stats":
                return {"id": ident, "ok": True,
                        "stats": self.stats_dict()}
            if op == "shutdown":
                self._stopping.set()
                return {"id": ident, "ok": True, "stopping": True}
            if op != "submit":
                raise ValueError(f"unknown op {op!r}")
            self.requests += 1
            verdict = await self._submit(payload)
            return {"id": ident, "ok": True, "verdict": verdict}
        except Exception as exc:
            self.errors += 1
            return {"id": ident, "ok": False, "error": str(exc)}

    # -- submission path --------------------------------------------------------

    async def _submit(self, payload: dict) -> dict:
        """Single-flight dispatch: identical concurrent submissions
        share one build task keyed by the request content key."""
        request = BuildRequest.from_payload(payload)
        key = request.content_key()
        task = self._inflight.get(key)
        if task is None:
            task = asyncio.get_running_loop().create_task(
                self._execute(payload, request))
            self._inflight[key] = task
            task.add_done_callback(
                lambda _t, _k=key: self._inflight.pop(_k, None))
        else:
            self.coalesced += 1
        # Shield: one client hanging up must not cancel the build the
        # other coalesced waiters share.
        verdict = await asyncio.shield(task)
        return dict(verdict)

    async def _execute(self, payload: dict,
                       request: BuildRequest) -> dict:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._run_request, payload, request)

    def _run_request(self, payload: dict,
                     request: BuildRequest) -> dict:
        if self._pool is not None:
            # Probe the parent store first — a warm verdict must not
            # cost a round-trip through a worker process.
            cached = self.pipeline.lookup(request)
            if cached is not None:
                return cached
            verdict = self._pool.apply_async(
                _worker_submit,
                (payload, self.store_path, self.pipeline.config)).get()
            self.pipeline.adopt(request, verdict)
            return verdict
        return self.pipeline.submit(request)

    # -- stats ------------------------------------------------------------------

    def stats_dict(self) -> dict:
        return {
            "schema": SERVE_STATS_SCHEMA,
            "protocol": PROTOCOL,
            "requests": self.requests,
            "errors": self.errors,
            "coalesced": self.coalesced,
            "jobs": self.jobs,
            "workers": "processes" if self._pool is not None
            else "threads",
            "pipeline": self.pipeline.stats_dict(),
        }


def _encode(response: dict) -> bytes:
    return (json.dumps(response, sort_keys=True) + "\n").encode()


# -- blocking entry points -------------------------------------------------------

def run_server(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
               store_path=None, jobs: int = 1, config=None,
               announce=None) -> ServeServer:
    """Run a server until its shutdown op; returns the (closed) server
    so callers can inspect final counters."""
    server = ServeServer(host=host, port=port, store_path=store_path,
                         jobs=jobs, config=config)

    async def _main():
        await server.start()
        if announce is not None:
            announce(server)
        await server.run_until_shutdown()

    asyncio.run(_main())
    return server


@contextlib.contextmanager
def serve_in_thread(host: str = DEFAULT_HOST, port: int = 0,
                    store_path=None, jobs: int = 1, config=None):
    """Context manager: a live server on a background thread (tests,
    benchmarks).  Yields the :class:`ServeServer` with ``.port`` bound."""
    ready = threading.Event()
    server = ServeServer(host=host, port=port, store_path=store_path,
                         jobs=jobs, config=config)

    def _thread():
        async def _main():
            await server.start()
            ready.set()
            await server.run_until_shutdown()
        try:
            asyncio.run(_main())
        finally:
            ready.set()  # unblock the spawner even on startup failure

    thread = threading.Thread(target=_thread, daemon=True,
                              name="sensmart-serve-loop")
    thread.start()
    if not ready.wait(timeout=30) or server.loop is None:
        raise RuntimeError("serve thread failed to start")
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(timeout=30)


class ServeClient:
    """Minimal blocking NDJSON client (CLI, tests, load generator)."""

    def __init__(self, host: str = DEFAULT_HOST,
                 port: int = DEFAULT_PORT, timeout: float = 120.0):
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def request(self, payload: dict) -> dict:
        self._file.write(json.dumps(payload).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def submit(self, programs, options: Optional[dict] = None,
               ident=None) -> dict:
        payload: dict = {"programs": programs}
        if options:
            payload["options"] = options
        if ident is not None:
            payload["id"] = ident
        return self.request(payload)

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        with contextlib.suppress(Exception):
            self._file.close()
        with contextlib.suppress(Exception):
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
