"""Parallel ensemble driver (engine layer 3).

Ensemble workloads -- uniformity audits, TV-distance estimation, leverage
marginals, sparsifier construction -- need hundreds of independent draws
from the same sampler. :class:`EnsembleEngine` runs them through one
fan-out, :meth:`~EnsembleEngine.iter_ensemble`: a master
:class:`numpy.random.SeedSequence` spawns one child seed per draw, and
with ``jobs > 1`` draws fan out over worker processes in contiguous
chunks of ``ceil(count / (4 * jobs))``, each chunk building its own
engine and cache. Draws are yielded in draw order as their chunks land
(the streaming API behind :meth:`repro.api.session.Session.stream`);
:meth:`~EnsembleEngine.sample_ensemble` collects the same stream into an
:class:`EnsembleResult`. Because every draw is keyed to its own spawned
seed, single- and multi-process runs of the same master seed produce
byte-identical tree sequences -- parallelism never changes outputs, only
wall-clock. (A plain loop ``[engine.run(rng) for _ in range(k)]`` over
one :class:`~repro.engine.runner.SamplerEngine` is the shared-stream
alternative: one rng, one warm cache.)

Each pool worker starts capped at its share of the host's BLAS threads
(:func:`~repro.linalg.threads.blas_budget`), so ``jobs`` workers do not
oversubscribe the cores with inherited OpenBLAS pools. Thread counts move
matrix entries in their last ulps but not trees or round bills
(test-pinned across jobs counts).

Workers receive ``(weights, config, variant, seeds)`` payloads; results
(:class:`~repro.engine.results.SampleResult`) are plain dataclasses and
pickle cleanly. If process spawning is unavailable or the pool breaks
(restricted sandboxes, daemonic parents, a killed worker), the engine
keeps the draws already delivered and finishes the rest on the
sequential path with the same seeds -- identical results, with the
fallback draws flagged ``degraded``.

When the config names a ``cache_dir``, workers share phase numerics
through the disk tier (:mod:`repro.engine.store`). They load and spill
nothing else: walk laws and first-visit distributions are computed per
level and per phase in each worker, with no memo. jobs=1 and jobs=N
remain byte-identical.
"""

from __future__ import annotations

import logging
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SamplerConfig
from repro.engine.results import SampleResult
from repro.engine.runner import SamplerEngine
from repro.errors import GraphError
from repro.graphs.core import WeightedGraph
from repro.graphs.spanning import TreeKey
from repro.linalg.threads import available_cpus, blas_budget, limit_blas_threads

__all__ = [
    "EnsembleResult",
    "EnsembleEngine",
    "sample_tree_ensemble",
    "aggregate_cache_stats",
]

_LOG = logging.getLogger(__name__)

# Cache-stat keys that are point-in-time gauges rather than monotonic
# counters: summing them across workers would overstate a fleet (every
# worker over one shared cache_dir reports the same disk footprint), so
# aggregation takes their max instead.
_GAUGE_KEYS = frozenset({"entries", "bytes", "disk_entries", "disk_bytes"})


def aggregate_cache_stats(per_worker: list[dict]) -> dict:
    """Combine per-worker cache counters into one fleet-level dict.

    Counter keys (hits/misses/spills/...) sum across workers -- the
    fleet's total lookups equal a single process's for the same draws,
    which is what the ``jobs``-invariance regression pins. Gauge keys
    (current entries/bytes per tier) take the max: RAM tiers are
    per-process and the disk tier is shared, so a sum would double
    count.
    """
    aggregate: dict[str, int] = {}
    for stats in per_worker:
        for key, value in stats.items():
            if key in _GAUGE_KEYS:
                aggregate[key] = max(aggregate.get(key, 0), int(value))
            else:
                aggregate[key] = aggregate.get(key, 0) + int(value)
    return aggregate


@dataclass
class EnsembleResult:
    """A batch of independent draws plus throughput diagnostics."""

    results: list[SampleResult]
    seconds: float
    jobs: int
    entropy: int | None = None
    cache_stats: dict = field(default_factory=dict)
    # True when the process pool broke and the undelivered draws fell
    # back to the sequential path (identical outputs, degraded delivery).
    degraded: bool = False

    @property
    def count(self) -> int:
        """Number of draws in the batch."""
        return len(self.results)

    @property
    def trees(self) -> list[TreeKey]:
        """The sampled trees, in draw order."""
        return [result.tree for result in self.results]

    def trees_per_second(self) -> float:
        """Throughput of the batch (wall-clock)."""
        return self.count / max(self.seconds, 1e-12)

    def total_rounds(self) -> int:
        """Summed round bill across all draws."""
        return sum(result.rounds for result in self.results)

    def mean_rounds(self) -> float:
        """Average per-draw round bill."""
        return self.total_rounds() / max(1, self.count)

    def to_dict(self) -> dict:
        """JSON-serializable wire form (per-draw results included)."""
        return {
            "results": [result.to_dict() for result in self.results],
            "seconds": float(self.seconds),
            "jobs": int(self.jobs),
            "entropy": None if self.entropy is None else int(self.entropy),
            "cache_stats": {
                key: int(value) for key, value in self.cache_stats.items()
            },
            "degraded": bool(self.degraded),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EnsembleResult":
        """Rebuild a batch result from :meth:`to_dict` output."""
        return cls(
            results=[
                SampleResult.from_dict(result)
                for result in payload.get("results", [])
            ],
            seconds=float(payload["seconds"]),
            jobs=int(payload["jobs"]),
            entropy=(
                None if payload.get("entropy") is None
                else int(payload["entropy"])
            ),
            cache_stats=dict(payload.get("cache_stats", {})),
            degraded=bool(payload.get("degraded", False)),
        )


def _draw_chunk(
    payload: tuple[np.ndarray, SamplerConfig, str, list[np.random.SeedSequence]],
) -> tuple[list[SampleResult], dict]:
    """Worker entry point: one engine + cache per chunk, one rng per draw.

    Returns ``(results, cache_stats)``: every chunk ships its worker's
    per-tier cache counters back so the driver can aggregate a truthful
    ``cache_stats`` for multiprocess runs (they used to be dropped,
    leaving ``meta["cache"]`` empty exactly when a service fans out).
    """
    weights, config, variant, seeds = payload
    graph = WeightedGraph(weights, validate=False)
    engine = SamplerEngine(graph, config, variant=variant)
    results = [engine.run(np.random.default_rng(seed)) for seed in seeds]
    stats = engine.cache.stats() if engine.cache is not None else {}
    return results, stats


class EnsembleEngine:
    """Batched draws over one :class:`SamplerEngine` (or graph + config)."""

    def __init__(
        self,
        engine_or_graph: SamplerEngine | WeightedGraph,
        config: SamplerConfig | None = None,
        *,
        variant: str | None = None,
    ) -> None:
        if isinstance(engine_or_graph, SamplerEngine):
            # The engine already fixes config and variant; silently
            # ignoring conflicting overrides would sample the wrong law.
            if config is not None:
                raise GraphError(
                    "pass config when constructing from a graph, not "
                    "alongside an existing SamplerEngine"
                )
            if variant is not None and variant != engine_or_graph.variant:
                raise GraphError(
                    f"variant {variant!r} conflicts with the engine's "
                    f"{engine_or_graph.variant!r}"
                )
            self.engine = engine_or_graph
        else:
            self.engine = SamplerEngine(
                engine_or_graph,
                config,
                variant="approximate" if variant is None else variant,
            )

    # ------------------------------------------------------------------

    def sample_ensemble(
        self,
        count: int,
        *,
        seed: np.random.SeedSequence | np.random.Generator | int | None = None,
        jobs: int | None = None,
    ) -> EnsembleResult:
        """``count`` independent draws from spawned seeds, fanned over jobs.

        ``seed`` fixes the master :class:`~numpy.random.SeedSequence`
        (ints and generators are folded into one); each draw gets its own
        spawned child, so results do not depend on ``jobs``. ``jobs=None``
        uses all available CPUs (capped at ``count``).
        """
        if count < 1:
            raise GraphError(f"count must be >= 1, got {count}")
        master = self._seed_sequence(seed)
        jobs = self._resolve_jobs(jobs, count)
        stats: dict = {}
        start = time.perf_counter()
        results = list(
            self.iter_ensemble(count, seed=master, jobs=jobs, stats=stats)
        )
        seconds = time.perf_counter() - start
        degraded = stats.pop("degraded")

        # SeedSequence entropy may be an int, a list of ints, or None;
        # record it only in the plain reproducible-scalar case.
        entropy = master.entropy if isinstance(master.entropy, int) else None
        return EnsembleResult(
            results=results,
            seconds=seconds,
            jobs=jobs,
            entropy=entropy,
            cache_stats=stats,
            degraded=degraded,
        )

    def iter_ensemble(
        self,
        count: int,
        *,
        seed: np.random.SeedSequence | np.random.Generator | int | None = None,
        jobs: int | None = None,
        stats: dict | None = None,
    ):
        """Stream ``count`` independent draws, yielding each as it lands.

        The one fan-out behind :meth:`sample_ensemble` too. Every draw is
        keyed to its own spawned child seed, so for the same master seed
        this generator yields the same trees and round bills, in the same
        order, for any jobs count. With ``jobs > 1`` draws fan out over
        worker processes in chunks of ``ceil(count / (4 * jobs))`` and are
        yielded in draw order as their chunks complete.

        ``stats``, when given, is a caller-owned dict that is filled in
        as the stream runs: aggregated per-tier cache counters from the
        workers (or the local engine), plus ``degraded: True`` if the
        process pool broke and the not-yet-delivered draws fell back to
        the sequential path (only those draws are flagged). It is
        complete once the generator is exhausted.

        Yields :class:`~repro.engine.results.SampleResult` instances.
        """
        if count < 1:
            raise GraphError(f"count must be >= 1, got {count}")
        master = self._seed_sequence(seed)
        seeds = master.spawn(count)
        jobs = self._resolve_jobs(jobs, count)
        engine = self.engine

        delivered = 0
        degraded = False
        worker_stats: list[dict] = []
        if jobs > 1:
            # Four chunks per worker so results surface early; identical
            # output for any chunking since every draw is keyed to its
            # own spawned seed.
            chunk_size = max(1, (len(seeds) + 4 * jobs - 1) // (4 * jobs))
            payloads = [
                (
                    engine.graph.weights,
                    engine.config,
                    engine.variant,
                    seeds[low:low + chunk_size],
                )
                for low in range(0, len(seeds), chunk_size)
            ]
            pool = None
            try:
                pool = self._pool(jobs)
                futures = [
                    pool.submit(_draw_chunk, payload)
                    for payload in payloads
                ]
                for future in futures:
                    results, chunk_stats = future.result()
                    worker_stats.append(chunk_stats)
                    for result in results:
                        delivered += 1
                        yield result
            except (OSError, BrokenProcessPool, pickle.PicklingError) as error:
                # Process *machinery* failed (sandboxed fork, broken pool,
                # unpicklable payload): keep the delivered prefix and
                # finish the suffix sequentially with the same per-draw
                # seeds. Exceptions raised inside a worker's sampling
                # propagate unchanged. Loudly: the suffix is flagged and
                # operators see a log.
                degraded = True
                _LOG.warning(
                    "ensemble stream degraded to sequential after %s: %s "
                    "(jobs=%d, delivered=%d, remaining=%d)",
                    type(error).__name__, error, jobs, delivered,
                    len(seeds) - delivered,
                )
            finally:
                # Every chunk delivered: join the workers. Otherwise the
                # consumer abandoned the stream (or the pool broke), and
                # it must not hang in shutdown until queued chunks finish:
                # cancel what hasn't started, don't wait.
                if pool is not None:
                    finished = delivered == len(seeds)
                    pool.shutdown(wait=finished, cancel_futures=not finished)
        for child in seeds[delivered:]:
            result = engine.run(np.random.default_rng(child))
            result.degraded = degraded
            yield result
        if stats is not None:
            # One aggregation: the counters workers shipped with their
            # chunks, plus the local engine's when draws ran here (jobs=1,
            # or the suffix of a degraded fan-out).
            shares = list(worker_stats)
            if (jobs <= 1 or degraded) and engine.cache is not None:
                shares.append(engine.cache.stats())
            stats.update(aggregate_cache_stats(shares))
            stats["degraded"] = degraded

    # ------------------------------------------------------------------

    @staticmethod
    def _seed_sequence(
        seed: np.random.SeedSequence | np.random.Generator | int | None,
    ) -> np.random.SeedSequence:
        """Fold any accepted seed shape into one master SeedSequence."""
        if isinstance(seed, np.random.SeedSequence):
            return seed
        if isinstance(seed, np.random.Generator):
            return np.random.SeedSequence(int(seed.integers(0, 1 << 63)))
        return np.random.SeedSequence(seed)

    @staticmethod
    def _resolve_jobs(jobs: int | None, count: int) -> int:
        if jobs is None:
            jobs = available_cpus()
        if jobs < 1:
            raise GraphError(f"jobs must be >= 1, got {jobs}")
        return min(jobs, count)

    @staticmethod
    def _pool(jobs: int) -> ProcessPoolExecutor:
        """A ``jobs``-worker pool, each worker on its share of the BLAS threads."""
        return ProcessPoolExecutor(
            max_workers=jobs,
            initializer=limit_blas_threads,
            initargs=(blas_budget(jobs),),
        )


def sample_tree_ensemble(
    graph: WeightedGraph,
    count: int,
    *,
    config: SamplerConfig | None = None,
    variant: str = "approximate",
    seed: np.random.SeedSequence | np.random.Generator | int | None = None,
    jobs: int | None = None,
) -> EnsembleResult:
    """One-call batch API: ``count`` independent trees of ``graph``.

    Convenience wrapper building an :class:`EnsembleEngine` and calling
    :meth:`~EnsembleEngine.sample_ensemble`.
    """
    return EnsembleEngine(graph, config, variant=variant).sample_ensemble(
        count, seed=seed, jobs=jobs
    )
