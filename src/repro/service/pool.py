"""Per-process session pools and the batch worker entry points.

Both halves of the service keep sessions warm the same way: an LRU
:class:`SessionPool` keyed by :attr:`~repro.service.protocol.ServiceTask.
session_key` (graph + preset + config overrides). The server process
holds one for streaming requests; every batch worker process holds its
own (module-global, built by :func:`init_worker` when the pool spawns).
All of them point their sessions at the *same* ``cache_dir``, so a
session that is cold in this process still warm-starts its phase
numerics from whatever any other worker -- or any other host mounting
the volume -- already computed and the volume admitted (phase 1 at
once, a later phase on its second sighting anywhere on the volume).
That shared disk tier, not session affinity, is what makes the shard
layer scale: any worker can serve any task.

Seeding: each pooled session gets a fresh entropy-derived root, so
*seedless* requests draw genuinely independent randomness wherever they
land. Requests with a pinned ``seed`` bypass the session lineage
entirely (the PR 2 contract), which is what makes pinned-seed service
calls byte-identical across workers and hosts.
"""

from __future__ import annotations

import logging
import os
import secrets
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from repro.api.presets import get_preset
from repro.api.session import Session
from repro.linalg.threads import blas_budget, limit_blas_threads
from repro.service import faults
from repro.service.protocol import ServiceTask

__all__ = ["SessionPool", "ShardSupervisor", "init_worker", "run_task"]

_LOG = logging.getLogger(__name__)


class SessionPool:
    """A bounded LRU of live sessions keyed by task session key.

    ``acquire`` returns ``(session, lock)``; callers hold the lock while
    running requests on the session -- sessions share mutable engine
    caches and are not safe for concurrent in-process use. Distinct
    keys never contend. Thread-safe; eviction drops the pool's
    reference only (an in-flight holder keeps its session alive).
    """

    def __init__(
        self, *, limit: int = 8, cache_dir: str | None = None
    ) -> None:
        if limit < 1:
            raise ValueError(f"session pool limit must be >= 1, got {limit}")
        self._limit = limit
        self._cache_dir = cache_dir
        self._guard = threading.Lock()
        self._sessions: OrderedDict[str, tuple[Session, threading.Lock]] = (
            OrderedDict()
        )
        self.opened = 0
        self.evicted = 0

    def _build(self, task: ServiceTask) -> Session:
        graph, meta = task.build_graph()
        config = task.build_config(get_preset(task.preset).config)
        if self._cache_dir is not None:
            # The operator's cache volume wins over whatever the preset
            # says: one directory shared by every worker is the whole
            # point of the shard layer.
            config = replace(config, cache_dir=self._cache_dir)
        return Session(
            graph, config, seed=secrets.randbits(63), meta=meta
        )

    def acquire(self, task: ServiceTask) -> tuple[Session, threading.Lock]:
        """The warm (or newly built) session for ``task``, plus its lock."""
        with self._guard:
            entry = self._sessions.get(task.session_key)
            if entry is not None:
                self._sessions.move_to_end(task.session_key)
                return entry
        # Build outside the pool guard: graph construction and session
        # setup can be slow, and other keys should not stall behind it.
        session = self._build(task)
        with self._guard:
            entry = self._sessions.get(task.session_key)
            if entry is not None:  # lost a build race; use the winner
                self._sessions.move_to_end(task.session_key)
                return entry
            entry = (session, threading.Lock())
            self._sessions[task.session_key] = entry
            self.opened += 1
            while len(self._sessions) > self._limit:
                self._sessions.popitem(last=False)
                self.evicted += 1
            return entry

    def stats(self) -> dict:
        """Pool counters (sessions live / opened / evicted)."""
        with self._guard:
            return {
                "sessions": len(self._sessions),
                "sessions_opened": self.opened,
                "sessions_evicted": self.evicted,
            }


# -- batch worker entry points (module-global pool per process) ---------

_WORKER_POOL: SessionPool | None = None


def init_worker(
    cache_dir: str | None, limit: int, blas_threads: int | None
) -> None:
    """ProcessPoolExecutor initializer: build this worker's session pool.

    ``blas_threads`` caps the worker's OpenBLAS pools (the supervisor
    passes its :func:`~repro.linalg.threads.blas_budget`); ``None``
    leaves the inherited thread count alone.

    The worker also becomes its own process-group leader: ensemble
    requests fork a nested worker pool, and those grandchildren inherit
    this process's death-signal pipe. A timed-out worker is recycled
    with ``killpg`` (see the server's ``_recycle_workers``) so the whole
    subtree dies with it -- orphaned grandchildren would otherwise hold
    the sentinel open forever, pinning the old executor's manager thread
    and blocking interpreter exit.
    """
    if hasattr(os, "setpgid"):
        try:
            os.setpgid(0, 0)
        except OSError:  # already a leader, or the platform refuses
            pass
    limit_blas_threads(blas_threads)
    global _WORKER_POOL
    _WORKER_POOL = SessionPool(limit=limit, cache_dir=cache_dir)


def run_task(task: ServiceTask) -> dict:
    """Execute one batch task in a worker; returns the envelope dict.

    The return value is ``Response.to_dict()`` -- sanitized, JSON-able,
    and picklable, so the front end can serialize it without touching
    numpy state. Errors propagate to the submitting process unchanged.
    """
    faults.fire("worker.task")
    global _WORKER_POOL
    if _WORKER_POOL is None:  # direct use outside an initialized pool
        _WORKER_POOL = SessionPool()
    session, lock = _WORKER_POOL.acquire(task)
    with lock:
        response = session.run(task.request)
    return response.to_dict()


# -- crash supervision --------------------------------------------------


class ShardSupervisor:
    """Owns the batch shard :class:`ProcessPoolExecutor` and its failures.

    The front end never touches the executor directly: it asks the
    supervisor for :meth:`executor` (built lazily, rebuilt after
    :meth:`respawn`) and reports outcomes through :meth:`note_success` /
    :meth:`note_crash`. Crash handling is bounded, not optimistic:

    - a crashed worker (``BrokenProcessPool``, killed process) costs one
      :meth:`respawn` -- the poisoned executor is discarded and a fresh
      one stands up lazily; the lost task is safe to re-dispatch because
      service draws are idempotent (pinned seeds reproduce byte-identical
      bytes; seedless draws never delivered their first result);
    - re-dispatch waits :meth:`backoff_seconds` (exponential, capped) so
      a crash-looping input cannot hot-spin the fork path;
    - ``breaker_threshold`` *consecutive* crashes without an intervening
      success trip a circuit breaker: :attr:`breaker_open` flips the
      service's ``/healthz`` to ``degraded`` and batches are served
      in-process instead of feeding the crash loop. Every
      ``breaker_reset_seconds`` one probe request is allowed back into
      the pool (:meth:`breaker_allows_probe`); the first success closes
      the breaker.

    All methods are called from the event-loop thread only; nothing here
    blocks (executor construction is lazy -- no processes spawn until
    the first submit).
    """

    def __init__(
        self,
        *,
        workers: int,
        cache_dir: str | None,
        session_cap: int,
        breaker_threshold: int = 5,
        breaker_reset_seconds: float = 30.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        self.workers = workers
        self.cache_dir = cache_dir
        self.session_cap = session_cap
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_seconds = breaker_reset_seconds
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        # Each shard's share of the host's BLAS threads; None when the
        # operator pinned OPENBLAS_NUM_THREADS / OMP_NUM_THREADS.
        self.blas_threads = blas_budget(workers)
        self._pool: ProcessPoolExecutor | None = None
        self._consecutive_crashes = 0
        self._breaker_open_at: float | None = None
        self.crashes = 0
        self.respawns = 0

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, building a fresh one after a respawn."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=init_worker,
                initargs=(self.cache_dir, self.session_cap, self.blas_threads),
            )
        return self._pool

    @property
    def breaker_open(self) -> bool:
        return self._breaker_open_at is not None

    def breaker_allows_probe(self) -> bool:
        """True when a request may try the pool despite an open breaker.

        Re-arms the cooldown timer on each allowed probe, so a failing
        pool is poked once per ``breaker_reset_seconds``, not hammered.
        """
        if self._breaker_open_at is None:
            return True
        now = time.monotonic()
        if now - self._breaker_open_at >= self.breaker_reset_seconds:
            self._breaker_open_at = now
            return True
        return False

    def note_success(self) -> None:
        """A pool dispatch completed: reset the crash run, heal the breaker."""
        self._consecutive_crashes = 0
        if self._breaker_open_at is not None:
            self._breaker_open_at = None
            _LOG.warning(
                "worker shard breaker closed: probe dispatch succeeded"
            )

    def note_crash(self) -> bool:
        """Record one crashed dispatch; True when this trips the breaker."""
        self.crashes += 1
        self._consecutive_crashes += 1
        if (
            self._breaker_open_at is None
            and self._consecutive_crashes >= self.breaker_threshold
        ):
            self._breaker_open_at = time.monotonic()
            _LOG.error(
                "worker shard breaker OPEN after %d consecutive crashes; "
                "serving in-process until a probe succeeds",
                self._consecutive_crashes,
            )
            return True
        return False

    def backoff_seconds(self, attempt: int) -> float:
        """Capped exponential delay before re-dispatch attempt ``attempt``."""
        return min(self.backoff_cap, self.backoff_base * (2 ** attempt))

    def respawn(self, *, kill: bool = False) -> None:
        """Discard the executor; the next :meth:`executor` call rebuilds.

        With ``kill=True`` the pool's processes are SIGKILLed by process
        *group* first (each worker is a leader -- see
        :func:`init_worker`): a worker stuck past its budget is busy
        inside a C call and cannot be interrupted politely, and its
        ensemble grandchildren would otherwise hold the dead executor's
        sentinel open forever. Crash respawns (``kill=False``) skip the
        signalling -- the workers are already gone.
        """
        pool, self._pool = self._pool, None
        self.respawns += 1
        if pool is None:
            return
        if kill:
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except (OSError, AttributeError):
                    try:
                        proc.kill()  # not a group leader; best effort
                    except (OSError, AttributeError):  # already gone
                        pass
        pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Tear down without respawning (server drain path)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def state(self) -> dict:
        """Supervision facts for ``/stats`` and ``/healthz``."""
        return {
            "breaker": "open" if self.breaker_open else "closed",
            "crashes": self.crashes,
            "consecutive_crashes": self._consecutive_crashes,
            "respawns": self.respawns,
            "blas_threads": self.blas_threads,
        }
