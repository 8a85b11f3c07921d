"""The asyncio HTTP front end: ``python -m repro serve``.

Stdlib only -- the server is ``asyncio.start_server`` plus a minimal
HTTP/1.1 layer (one request per connection, ``Connection: close``),
because the workloads are long-lived compute, not header gymnastics.

Topology::

    client -> front end (asyncio, this module)
                |-- POST /v1/run     -> ProcessPoolExecutor worker shards
                |                       (each holds a SessionPool; all
                |                        warm-start from one cache_dir)
                |-- POST /v1/stream  -> pump thread -> Session.stream
                |                       (NDJSON chunks in draw order;
                |                        request.jobs fans the draws
                |                        over processes underneath)
                |-- GET  /healthz, /stats, /metrics

Admission control happens in two layers, both *before* any sampling:

- request budgets (:class:`~repro.service.protocol.ServiceLimits`):
  draw counts, graph size, fan-out, body bytes -- violations are 400/413
  at validation time, never mid-stream;
- concurrency: past ``max_inflight`` admitted requests the server
  queues up to ``queue_depth`` waiters in FIFO order rather than
  hard-rejecting. Requests may carry a ``deadline_ms``; a waiter whose
  deadline cannot be met (predicted from an EWMA of observed slot-hold
  times) is shed *immediately* with 429 and a ``Retry-After`` computed
  from that same estimate -- at enqueue, at grant, or mid-wait,
  whichever comes first -- so clients learn "come back in N seconds"
  instead of burning their budget in a hopeless line. ``queue_depth=0``
  restores the PR 7 pure-reject behavior. While draining
  (SIGTERM/SIGINT) new work gets 503, queued waiters are flushed with
  503, and in-flight requests finish; queued-but-unstarted chunks are
  cancelled through ``iter_ensemble``'s shutdown contract
  (``cancel_futures=True``), so drain never hangs behind work nobody
  will receive.

Failure surface: a crashed batch worker (``BrokenProcessPool``) is
*supervised*, not silently absorbed -- the shard pool respawns with
capped exponential backoff and the lost task is re-dispatched, which is
safe because service draws are idempotent (a pinned seed reproduces the
same bytes; a seedless request never delivered its first result).
Repeated consecutive crashes trip the supervisor's circuit breaker:
``/healthz`` flips to ``degraded``, batches are served from the front
end's own session pool (``meta["service_degraded"]``, counted once per
request in ``degraded_batches`` no matter how many attempts crashed),
and one probe per cooldown window tests whether the pool healed. A
client that disconnects mid-stream frees its slot as soon as the next
chunk write fails; per-request wall-clock budgets cut batches with 504
and streams with a terminal ``error`` record. A batch worker that blows
past the budget is not abandoned-but-busy: the whole shard pool is
killed and respawned (``worker_recycles`` counts it), so a runaway
request cannot pin a worker slot for the rest of the server's life.
Observability rides on ``GET /stats`` (JSON) and ``GET /metrics`` (the
same counters in Prometheus text exposition format, scrape-ready).
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.api.requests import EnsembleRequest
from repro.api.responses import sanitize_nonfinite
from repro.core.workloads import streaming_request_kinds
from repro.engine.results import SampleResult
from repro.errors import ConfigError, ReproError
from repro.linalg.threads import blas_budget, limit_blas_threads
from repro.service import faults
from repro.service.pool import SessionPool, ShardSupervisor, run_task
from repro.service.protocol import (
    ServiceError,
    ServiceLimits,
    ServiceTask,
    parse_service_envelope,
)

__all__ = ["ServerConfig", "TreeService", "serve"]

_LOG = logging.getLogger(__name__)

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 411: "Length Required",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``python -m repro serve`` can set.

    ``port=0`` binds an ephemeral port (the startup line and
    :attr:`TreeService.port` report the real one -- how tests and the
    load generator avoid collisions). ``workers`` sizes the batch
    process pool; ``max_inflight`` caps *admitted* requests of both
    kinds, and ``queue_depth`` bounds how many more may wait in the
    admission queue (0 = reject instead of queueing, the pre-queue
    behavior). ``cache_dir`` is the shared warm-start volume every
    session pool points at; ``preset`` the default config recipe
    requests build on. ``max_redispatch`` bounds how many times one
    batch request may be re-dispatched after worker crashes before it
    degrades in-process; ``breaker_threshold`` consecutive crashes trip
    the shard circuit breaker for ``breaker_reset_seconds`` per probe.
    """

    host: str = "127.0.0.1"
    port: int = 8437
    workers: int = 2
    max_inflight: int = 8
    limits: ServiceLimits = field(default_factory=ServiceLimits)
    preset: str = "fast-bench"
    cache_dir: str | None = None
    session_cap: int = 8
    drain_seconds: float = 10.0
    retry_after: float = 1.0
    queue_depth: int = 16
    queue_wait_seconds: float = 30.0
    max_redispatch: int = 2
    breaker_threshold: int = 5
    breaker_reset_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_inflight < 1:
            raise ConfigError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.session_cap < 1:
            raise ConfigError(
                f"session_cap must be >= 1, got {self.session_cap}"
            )
        if self.drain_seconds < 0:
            raise ConfigError(
                f"drain_seconds must be >= 0, got {self.drain_seconds}"
            )
        if self.queue_depth < 0:
            raise ConfigError(
                f"queue_depth must be >= 0, got {self.queue_depth}"
            )
        if self.queue_wait_seconds <= 0:
            raise ConfigError(
                f"queue_wait_seconds must be > 0, got "
                f"{self.queue_wait_seconds}"
            )
        if self.max_redispatch < 0:
            raise ConfigError(
                f"max_redispatch must be >= 0, got {self.max_redispatch}"
            )
        if self.breaker_threshold < 1:
            raise ConfigError(
                f"breaker_threshold must be >= 1, got "
                f"{self.breaker_threshold}"
            )
        if self.breaker_reset_seconds < 0:
            raise ConfigError(
                f"breaker_reset_seconds must be >= 0, got "
                f"{self.breaker_reset_seconds}"
            )


@dataclass
class _Waiter:
    """One queued admission: a future granted a slot or shed with 429."""

    future: asyncio.Future
    enqueued: float  # monotonic
    deadline: float | None  # monotonic, from deadline_ms


class TreeService:
    """One server instance: listener, shard executors, counters."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.port: int | None = None  # resolved on start()
        self._server: asyncio.base_events.Server | None = None
        self._sessions = SessionPool(
            limit=config.session_cap, cache_dir=config.cache_dir
        )
        self._shards = ShardSupervisor(
            workers=config.workers,
            cache_dir=config.cache_dir,
            session_cap=config.session_cap,
            breaker_threshold=config.breaker_threshold,
            breaker_reset_seconds=config.breaker_reset_seconds,
        )
        self._stream_threads = ThreadPoolExecutor(
            max_workers=config.max_inflight,
            thread_name_prefix="repro-stream",
        )
        self._inflight = 0
        self._waiters: deque[_Waiter] = deque()
        # EWMA of slot-hold seconds: the service-time estimate behind
        # deadline shedding and Retry-After hints. None until the first
        # completion (cold servers neither shed on prediction nor
        # promise sharp hints).
        self._service_ewma: float | None = None
        self._draining = asyncio.Event()
        self._active_stops: set[threading.Event] = set()
        self.counters = {
            "admitted": 0,
            "completed": 0,
            "failed": 0,
            "rejected_validation": 0,
            "rejected_overload": 0,
            "rejected_draining": 0,
            "timeouts": 0,
            "streams_opened": 0,
            "streams_completed": 0,
            "client_disconnects": 0,
            "degraded_batches": 0,
            "degraded_streams": 0,
            "worker_recycles": 0,
            "worker_crashes": 0,
            "redispatches": 0,
            "breaker_trips": 0,
            "queued": 0,
            "shed_deadline": 0,
            "shed_queue_timeout": 0,
            "queue_wait_ms": 0,
        }

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener; worker shards spawn on first dispatch."""
        config = self.config
        self._server = await asyncio.start_server(
            self._handle_connection, config.host, config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def begin_drain(self, reason: str = "signal") -> None:
        """Flip into draining: stop admitting, let in-flight work finish."""
        if not self._draining.is_set():
            _LOG.warning("draining on %s (%d in flight, %d queued)",
                         reason, self._inflight, len(self._waiters))
            self._draining.set()
            # Flush the admission queue: waiters get the same typed 503
            # a fresh request would, not a silent hang until timeout.
            while self._waiters:
                entry = self._waiters.popleft()
                if entry.future.done():
                    continue
                self.counters["rejected_draining"] += 1
                entry.future.set_exception(ServiceError(
                    "server is draining", status=503,
                    retry_after=self.config.retry_after,
                ))

    async def wait_closed(self) -> int:
        """Block until drained and torn down; returns the exit code (0)."""
        await self._draining.wait()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_seconds
        while self._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        # Past the grace period: tell surviving streams to stop at their
        # next chunk boundary, then give them a beat to unwind.
        for stop in list(self._active_stops):
            stop.set()
        force_deadline = time.monotonic() + 2.0
        while self._inflight > 0 and time.monotonic() < force_deadline:
            await asyncio.sleep(0.05)
        # cancel_futures: queued-but-unstarted chunks are dropped -- the
        # iter_ensemble shutdown contract, now load-bearing. Never wait
        # on work nobody will receive.
        self._shards.shutdown()
        self._stream_threads.shutdown(wait=False, cancel_futures=True)
        return 0

    # -- HTTP plumbing --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_request(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            self.counters["client_disconnects"] += 1
        except Exception:  # never let one connection kill the server
            _LOG.exception("unhandled error serving a connection")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_request(self, reader, writer) -> None:
        try:
            header_blob = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=30.0
            )
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            asyncio.TimeoutError,
            TimeoutError,
        ):
            await self._send_json(writer, 400, {"error": "malformed request"})
            return
        try:
            request_line, headers = self._parse_head(header_blob)
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            await self._send_json(writer, 400, {"error": "malformed request"})
            return

        if method == "GET" and target in ("/healthz", "/stats", "/metrics"):
            if target == "/metrics":
                await self._send_text(writer, 200, self._metrics())
            else:
                payload = (
                    self._healthz() if target == "/healthz" else self._stats()
                )
                await self._send_json(writer, 200, payload)
            return
        if target not in ("/v1/run", "/v1/stream"):
            await self._send_json(
                writer, 404, {"error": f"unknown path {target!r}"}
            )
            return
        if method != "POST":
            await self._send_json(
                writer, 405, {"error": f"{target} takes POST, not {method}"}
            )
            return

        # -- body, within the byte budget -------------------------------
        try:
            length = int(headers.get("content-length", ""))
        except ValueError:
            await self._send_json(
                writer, 411, {"error": "Content-Length required"}
            )
            return
        if length > self.config.limits.max_body_bytes:
            self.counters["rejected_validation"] += 1
            await self._send_json(writer, 413, {
                "error": (
                    f"body of {length} bytes exceeds max_body_bytes = "
                    f"{self.config.limits.max_body_bytes}"
                )
            })
            return
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=30.0
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, TimeoutError):
            await self._send_json(writer, 400, {"error": "truncated body"})
            return

        # -- validation (the whole admission budget) ---------------------
        try:
            task = self._parse_task(body)
        except ServiceError as error:
            self.counters["rejected_validation"] += 1
            await self._send_error(writer, error)
            return

        # -- concurrency admission ---------------------------------------
        try:
            await self._admit(task)
        except ServiceError as error:
            await self._send_error(writer, error)
            return
        held = time.monotonic()
        try:
            if target == "/v1/run":
                await self._run_batch(writer, task)
            else:
                await self._run_stream(writer, task)
        finally:
            self._observe_service(time.monotonic() - held)
            self._release_slot()

    @staticmethod
    def _parse_head(blob: bytes) -> tuple[str, dict[str, str]]:
        text = blob.decode("latin-1")
        request_line, *header_lines = text.split("\r\n")
        headers: dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return request_line, headers

    def _parse_task(self, body: bytes) -> ServiceTask:
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            raise ServiceError(f"body is not valid JSON: {error}") from None
        return parse_service_envelope(
            payload, self.config.limits, default_preset=self.config.preset
        )

    # -- admission queue ------------------------------------------------

    def _observe_service(self, seconds: float) -> None:
        """Fold one observed slot-hold time into the EWMA estimate."""
        if self._service_ewma is None:
            self._service_ewma = seconds
        else:
            self._service_ewma = 0.7 * self._service_ewma + 0.3 * seconds

    def _estimate_wait(self, position: int) -> float:
        """Predicted seconds until queue position ``position`` is granted.

        Under saturation a slot frees roughly every ``ewma /
        max_inflight`` seconds; position ``p`` needs ``p + 1`` frees.
        """
        service = self._service_ewma
        if service is None:
            return self.config.retry_after
        return service * (position + 1) / self.config.max_inflight

    def _retry_after(self, position: int) -> float:
        """The Retry-After hint for a shed request at ``position``."""
        return max(self.config.retry_after, self._estimate_wait(position))

    def _grant(self) -> None:
        self._inflight += 1
        self.counters["admitted"] += 1

    def _release_slot(self) -> None:
        self._inflight -= 1
        self._dispatch_waiters()

    def _shed(self, message: str, *, position: int) -> ServiceError:
        return ServiceError(
            message, status=429, retry_after=self._retry_after(position)
        )

    def _dispatch_waiters(self) -> None:
        """Grant freed slots to queue heads; shed newly hopeless waiters."""
        while self._waiters and self._inflight < self.config.max_inflight:
            entry = self._waiters.popleft()
            if entry.future.done():  # already timed out / flushed
                continue
            now = time.monotonic()
            service = self._service_ewma or 0.0
            if entry.deadline is not None and now + service > entry.deadline:
                # Granting would start work that cannot finish in time:
                # shed at the last responsible moment instead.
                self.counters["shed_deadline"] += 1
                entry.future.set_exception(self._shed(
                    "deadline_ms cannot be met (service estimate "
                    f"{service:.3f}s exceeds the remaining budget)",
                    position=0,
                ))
                continue
            self._grant()
            entry.future.set_result(None)

    async def _admit(self, task: ServiceTask) -> None:
        """One slot -- immediately, after a bounded deadline-aware wait,
        or the typed refusal the front end should send."""
        if self._draining.is_set():
            self.counters["rejected_draining"] += 1
            raise ServiceError(
                "server is draining", status=503,
                retry_after=self.config.retry_after,
            )
        if self._inflight < self.config.max_inflight and not self._waiters:
            self._grant()
            return
        config = self.config
        position = len(self._waiters)
        if config.queue_depth == 0 or position >= config.queue_depth:
            self.counters["rejected_overload"] += 1
            raise ServiceError(
                f"at max_inflight = {config.max_inflight} admitted "
                f"requests with {position} queued", status=429,
                retry_after=self._retry_after(position),
            )
        budget = (
            task.deadline_ms / 1000.0 if task.deadline_ms is not None
            else None
        )
        service = self._service_ewma
        if budget is not None and service is not None:
            # Shed the moment the deadline is known hopeless: predicted
            # queue wait plus one service time must fit in the budget.
            eta = self._estimate_wait(position) + service
            if eta > budget:
                self.counters["shed_deadline"] += 1
                raise self._shed(
                    f"deadline_ms = {task.deadline_ms} cannot be met "
                    f"(estimated {eta:.3f}s to completion)",
                    position=position,
                )
        loop = asyncio.get_running_loop()
        entry = _Waiter(
            future=loop.create_future(),
            enqueued=time.monotonic(),
            deadline=(
                time.monotonic() + budget if budget is not None else None
            ),
        )
        self._waiters.append(entry)
        self.counters["queued"] += 1
        # A deadline-carrying waiter may linger only while starting now
        # could still finish in time; deadline-less waiters are bounded
        # by the operator's queue_wait_seconds.
        if budget is not None:
            timeout = max(0.0, budget - (service or 0.0))
        else:
            timeout = config.queue_wait_seconds
        try:
            await asyncio.wait_for(entry.future, timeout=timeout)
        except (asyncio.TimeoutError, TimeoutError):
            try:  # dead waiters must not hold queue positions
                self._waiters.remove(entry)
            except ValueError:
                pass
            position = len(self._waiters)
            if budget is not None:
                self.counters["shed_deadline"] += 1
                raise self._shed(
                    f"deadline_ms = {task.deadline_ms} expired while "
                    "queued", position=position,
                ) from None
            self.counters["shed_queue_timeout"] += 1
            raise self._shed(
                f"queued past queue_wait_seconds = "
                f"{config.queue_wait_seconds}", position=position,
            ) from None
        finally:
            self.counters["queue_wait_ms"] += int(
                (time.monotonic() - entry.enqueued) * 1000
            )

    # -- responses ------------------------------------------------------

    async def _send_json(
        self, writer, status: int, payload: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, allow_nan=False).encode()
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "Connection": "close",
            **(extra_headers or {}),
        }
        head = f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        head += "".join(f"{k}: {v}\r\n" for k, v in headers.items())
        writer.write(head.encode() + b"\r\n" + body)
        await writer.drain()

    async def _send_text(self, writer, status: int, text: str) -> None:
        body = text.encode()
        headers = {
            # The Prometheus text exposition format's canonical type.
            "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
            "Content-Length": str(len(body)),
            "Connection": "close",
        }
        head = f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        head += "".join(f"{k}: {v}\r\n" for k, v in headers.items())
        writer.write(head.encode() + b"\r\n" + body)
        await writer.drain()

    async def _send_error(self, writer, error: ServiceError) -> None:
        extra = {}
        if error.retry_after is not None:
            extra["Retry-After"] = str(max(1, round(error.retry_after)))
        await self._send_json(
            writer, error.status,
            {"error": str(error), "status": error.status}, extra,
        )

    def _healthz(self) -> dict:
        if self._draining.is_set():
            status = "draining"
        elif self._shards.breaker_open:
            # The shard pool is crash-looping and the breaker is open:
            # the service still answers (in-process, degraded), but an
            # orchestrator should route new traffic elsewhere.
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "inflight": self._inflight,
            "workers": self.config.workers,
            "shards": self._shards.state(),
        }

    def _stats(self) -> dict:
        return {
            "inflight": self._inflight,
            "draining": self._draining.is_set(),
            "counters": dict(self.counters),
            "sessions": self._sessions.stats(),
            "queue": {
                "depth": len(self._waiters),
                "capacity": self.config.queue_depth,
                "service_ewma_seconds": self._service_ewma,
            },
            "shards": self._shards.state(),
            "limits": {
                "max_inflight": self.config.max_inflight,
                "max_draws": self.config.limits.max_draws,
                "max_graph_n": self.config.limits.max_graph_n,
                "max_jobs": self.config.limits.max_jobs,
                "max_body_bytes": self.config.limits.max_body_bytes,
                "max_seconds": self.config.limits.max_seconds,
            },
        }

    def _metrics(self) -> str:
        """The ``/stats`` counters in Prometheus text exposition format.

        Same numbers, scrape-ready: every lifetime counter becomes a
        ``counter`` sample named ``repro_service_<name>``, plus the live
        gauges (``inflight``, ``draining``, ``queue_depth``,
        ``breaker_open``). Counter order follows the ``counters`` dict
        (fixed at construction), so the output is byte-deterministic for
        a given state -- the golden test pins it.
        """
        lines: list[str] = []

        def sample(name: str, kind: str, help_text: str, value) -> None:
            metric = f"repro_service_{name}"
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {int(value)}")

        for name, value in self.counters.items():
            sample(name, "counter",
                   f"Lifetime count of {name.replace('_', ' ')}.", value)
        sample("inflight", "gauge",
               "Requests currently admitted and running.", self._inflight)
        sample("draining", "gauge",
               "1 while the server is draining, else 0.",
               1 if self._draining.is_set() else 0)
        sample("queue_depth", "gauge",
               "Requests currently waiting in the admission queue.",
               len(self._waiters))
        sample("breaker_open", "gauge",
               "1 while the shard circuit breaker is open, else 0.",
               1 if self._shards.breaker_open else 0)
        return "\n".join(lines) + "\n"

    # -- batch path -----------------------------------------------------

    def _run_inline(self, task: ServiceTask) -> dict:
        """Degraded batch path: serve from the front end's own pool."""
        session, lock = self._sessions.acquire(task)
        with lock:
            response = session.run(task.request)
        payload = response.to_dict()
        payload.setdefault("meta", {})["service_degraded"] = True
        return payload

    async def _send_timeout(self, writer) -> None:
        self.counters["timeouts"] += 1
        await self._send_json(writer, 504, {
            "error": (
                f"request exceeded max_seconds = "
                f"{self.config.limits.max_seconds}"
            ),
            "status": 504,
        })

    async def _run_degraded(self, writer, task: ServiceTask) -> dict | None:
        """In-process fallback once supervision gives up on the pool.

        Counts ``degraded_batches`` exactly once per *request*, however
        many crashed dispatch attempts led here. Returns the payload, or
        ``None`` when an error response was already written.
        """
        self.counters["degraded_batches"] += 1
        loop = asyncio.get_running_loop()
        try:
            return await asyncio.wait_for(
                loop.run_in_executor(
                    self._stream_threads, self._run_inline, task
                ),
                timeout=self.config.limits.max_seconds,
            )
        except (asyncio.TimeoutError, TimeoutError):
            await self._send_timeout(writer)
            return None
        except ReproError as error:
            self.counters["failed"] += 1
            await self._send_json(
                writer, 400, {"error": str(error), "status": 400}
            )
            return None

    async def _run_batch(self, writer, task: ServiceTask) -> None:
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        shards = self._shards
        attempt = 0
        while True:
            if shards.breaker_open and not shards.breaker_allows_probe():
                # Breaker open, no probe due: don't feed the crash loop.
                payload = await self._run_degraded(writer, task)
                if payload is None:
                    return
                break
            try:
                future = loop.run_in_executor(
                    shards.executor(), run_task, task
                )
                payload = await asyncio.wait_for(
                    future, timeout=self.config.limits.max_seconds
                )
                shards.note_success()
                break
            except (asyncio.TimeoutError, TimeoutError):
                # The worker holding this task is still busy
                # (cancellation cannot reach into a C call): recycle the
                # pool so the slot comes back instead of staying pinned
                # by abandoned work.
                self.counters["worker_recycles"] += 1
                shards.respawn(kill=True)
                await self._send_timeout(writer)
                return
            except (BrokenProcessPool, OSError) as error:
                # A worker died under the task. Respawn the pool and
                # re-dispatch: service draws are idempotent (pinned
                # seeds reproduce byte-identical results; a seedless
                # request never delivered anything), so a retry is
                # always safe. Bounded by max_redispatch and the
                # breaker -- a crash-looping input degrades in-process
                # instead of spinning forever.
                self.counters["worker_crashes"] += 1
                if shards.note_crash():
                    self.counters["breaker_trips"] += 1
                _LOG.warning(
                    "worker shard crashed under a batch task (%s: %s)",
                    type(error).__name__, error,
                )
                shards.respawn()
                if (
                    shards.breaker_open
                    or attempt >= self.config.max_redispatch
                ):
                    payload = await self._run_degraded(writer, task)
                    if payload is None:
                        return
                    break
                self.counters["redispatches"] += 1
                await asyncio.sleep(shards.backoff_seconds(attempt))
                attempt += 1
            except ReproError as error:
                # The task validated but still failed in execution (e.g.
                # an audit over an enumeration-intractable graph):
                # client error.
                self.counters["failed"] += 1
                await self._send_json(
                    writer, 400, {"error": str(error), "status": 400}
                )
                return
            except Exception as error:
                self.counters["failed"] += 1
                _LOG.exception("batch task failed")
                await self._send_json(writer, 500, {
                    "error": f"internal error: {type(error).__name__}",
                    "status": 500,
                })
                return
        payload.setdefault("meta", {})["service_seconds"] = round(
            time.perf_counter() - start, 6
        )
        self.counters["completed"] += 1
        await self._send_json(writer, 200, payload)

    # -- streaming path -------------------------------------------------

    async def _run_stream(self, writer, task: ServiceTask) -> None:
        request = task.request
        # The workload registry decides which request kinds stream;
        # marking a new workload's kind streamable serves it here with
        # no server edits.
        if getattr(request, "kind", None) not in streaming_request_kinds():
            self.counters["rejected_validation"] += 1
            await self._send_error(writer, ServiceError(
                "/v1/stream takes a streamable request (kinds "
                f"{streaming_request_kinds()}); use /v1/run for "
                f"{getattr(request, 'kind', '?')!r}"
            ))
            return
        if isinstance(request, EnsembleRequest) and request.leverage_audit:
            self.counters["rejected_validation"] += 1
            await self._send_error(writer, ServiceError(
                "leverage_audit is a batch aggregate; use /v1/run"
            ))
            return
        self.counters["streams_opened"] += 1
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        stop = threading.Event()
        self._active_stops.add(stop)
        deadline = (
            time.monotonic() + self.config.limits.max_seconds
            if self.config.limits.max_seconds is not None else None
        )
        pump = loop.run_in_executor(
            self._stream_threads,
            self._pump_stream, task, queue, loop, stop, deadline,
        )
        completed = False
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            while True:
                kind, payload = await queue.get()
                if kind == "aborted":
                    break
                await self._send_stream_record(writer, payload)
                if kind in ("summary", "error"):
                    completed = kind == "summary"
                    break
            writer.write(b"0\r\n\r\n")  # terminal chunk
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            # The client went away mid-stream: free the slot now; the
            # pump sees `stop` at its next chunk and closes the
            # generator, which cancels queued worker chunks.
            self.counters["client_disconnects"] += 1
        finally:
            stop.set()
            self._active_stops.discard(stop)
            try:
                await pump
            except Exception:  # pump errors were already queued
                _LOG.exception("stream pump failed")
        if completed:
            self.counters["streams_completed"] += 1

    async def _send_stream_record(self, writer, record: dict) -> None:
        line = json.dumps(record, allow_nan=False).encode() + b"\n"
        writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
        await writer.drain()

    def _pump_stream(
        self, task: ServiceTask, queue, loop, stop: threading.Event,
        deadline: float | None,
    ) -> None:
        """Thread body: drive Session.stream, hand chunks to the loop."""
        def emit(kind: str, payload: dict | None) -> None:
            try:
                loop.call_soon_threadsafe(queue.put_nowait, (kind, payload))
            except RuntimeError:  # loop already closed (hard shutdown)
                pass

        start = time.perf_counter()
        stream = None
        try:
            session, lock = self._sessions.acquire(task)
            with lock:
                stats: dict = {}
                stream = session.stream(task.request, stats=stats)
                index = 0
                for result in stream:
                    faults.fire("stream.chunk")
                    if stop.is_set():
                        emit("aborted", None)
                        return
                    if deadline is not None and time.monotonic() > deadline:
                        emit("error", {
                            "kind": "error", "status": 504,
                            "error": (
                                f"stream exceeded max_seconds = "
                                f"{self.config.limits.max_seconds}"
                            ),
                        })
                        return
                    record = {
                        "kind": "result",
                        "index": index,
                        "result": sanitize_nonfinite(result.to_dict()),
                    }
                    # Ensemble records stay untagged (their historical
                    # wire bytes); other workloads' results name their
                    # payload type so clients rebuild via RESULT_TYPES.
                    if not isinstance(result, SampleResult):
                        record["result_type"] = type(result).__name__
                    emit("result", record)
                    index += 1
                if stats.get("degraded"):
                    self.counters["degraded_streams"] += 1
                emit("summary", {
                    "kind": "summary",
                    "count": index,
                    "seconds": round(time.perf_counter() - start, 6),
                    "degraded": bool(stats.get("degraded", False)),
                    "cache": sanitize_nonfinite({
                        k: v for k, v in stats.items() if k != "degraded"
                    }),
                })
        except ReproError as error:
            emit("error", {"kind": "error", "status": 400,
                           "error": str(error)})
        except Exception as error:
            _LOG.exception("stream task failed")
            emit("error", {"kind": "error", "status": 500,
                           "error": f"internal error: {type(error).__name__}"})
        finally:
            if stream is not None:
                # Explicit close runs iter_ensemble's finally: the pool
                # shuts down with cancel_futures, so abandoned streams
                # never leave orphaned chunk work running.
                stream.close()


async def _serve_async(config: ServerConfig) -> int:
    service = TreeService(config)
    await service.start()
    loop = asyncio.get_running_loop()
    for signame in ("SIGTERM", "SIGINT"):
        try:
            loop.add_signal_handler(
                getattr(signal, signame), service.begin_drain, signame
            )
        except (NotImplementedError, RuntimeError):  # non-main thread, win
            pass
    print(
        f"repro-service listening on http://{config.host}:{service.port} "
        f"(workers={config.workers}, max_inflight={config.max_inflight})",
        flush=True,
    )
    return await service.wait_closed()


def serve(config: ServerConfig) -> int:
    """Run a server until drained (SIGTERM/SIGINT); returns exit code 0.

    The front end runs ``/v1/stream`` draws and degraded batches itself,
    so it takes a BLAS thread share beside its ``workers`` shards: at the
    default OpenBLAS pool, its worker thread can spin on the main
    thread's core and stall every small product by a time slice. An
    exported ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` still wins.
    """
    limit_blas_threads(blas_budget(config.workers + 1))
    return asyncio.run(_serve_async(config))
