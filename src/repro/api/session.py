"""The long-lived session: one graph, one cache, one RNG lineage.

:class:`Session` is the single entry point the ROADMAP's service story
programs against. It binds a graph to the heavyweight state every call
wants to share -- the engine-layer
:class:`~repro.engine.cache.DerivedGraphCache` (warm across draws *and*
across sampler variants, since derived graphs are variant-independent),
one :class:`~repro.engine.runner.SamplerEngine` per variant, and a
reproducible RNG lineage (a master :class:`numpy.random.SeedSequence`
that spawns one child per seedless request) -- and executes declarative
:mod:`~repro.api.requests` against it, returning a uniform
:class:`~repro.api.responses.Response` envelope.

Mirroring the paper's own architecture, the session is an *interface*
the workloads program against, not a code path: the same request runs
unchanged over either matmul backend, with or without the cache, single-
or multi-process -- exactly as the Pemmaraju-Roy-Sobel algorithm treats
matrix multiplication as a pluggable black box.

Typical use::

    from repro import graphs
    from repro.api import EnsembleRequest, SampleRequest, Session

    session = Session(graphs.cycle_graph(8), "fast-bench", seed=7)
    response = session.run(SampleRequest(variant="exact"))
    print(response.result.tree, response.meta["seconds"])

    for result in session.stream(EnsembleRequest(count=200, seed=3)):
        consume(result)   # arrives as worker processes finish
"""

from __future__ import annotations

import time

import numpy as np

from repro.api.presets import get_preset, resolve_config
from repro.api.requests import (
    AuditRequest,
    EnsembleRequest,
    MSTRequest,
    PageRankRequest,
    RoundBillRequest,
    SampleRequest,
)
from repro.api.responses import (
    AuditReport,
    FastCoverReport,
    MSTReport,
    PageRankReport,
    Response,
    RoundBillReport,
)
from repro.core.config import SamplerConfig
from repro.core.workloads import streaming_request_kinds
from repro.engine.ensemble import EnsembleEngine
from repro.engine.store import open_phase_store
from repro.engine.runner import SamplerEngine
from repro.errors import ConfigError, ReproError
from repro.graphs.core import WeightedGraph
from repro.linalg.backend import resolve_linalg_backend

__all__ = ["Session"]


class Session:
    """Executes requests against one graph with shared state across calls.

    Parameters
    ----------
    graph:
        Connected input graph; validated on first engine construction.
    config:
        A :class:`~repro.core.config.SamplerConfig`, a preset name
        (see :mod:`repro.api.presets`), or ``None`` for paper defaults.
    seed:
        Root of the session's RNG lineage. Requests with ``seed=None``
        consume successive children of this root (reproducible given the
        session's request order); requests with an explicit seed are
        independent of session history.
    meta:
        Extra JSON-able context merged into every response's ``meta``
        (e.g. the CLI records the graph family here).
    """

    def __init__(
        self,
        graph: WeightedGraph,
        config: SamplerConfig | str | None = None,
        *,
        seed: int | None = None,
        meta: dict | None = None,
    ) -> None:
        self.graph = graph
        if isinstance(config, str):
            # A preset names a variant too: "paper-exact" sessions run
            # the exact sampler for requests that don't pin one.
            preset = get_preset(config)
            self.config = preset.config
            self.default_variant = preset.variant
        else:
            self.config = resolve_config(config)
            self.default_variant = "approximate"
        self.meta = dict(meta or {})
        # The numerics realization is resolved once per session (the
        # "auto" choice depends only on config + graph) and surfaced in
        # every response's meta so --json consumers can see which
        # backend produced their numbers.
        self._linalg_name = resolve_linalg_backend(self.config, graph).name
        self._root = np.random.SeedSequence(seed)
        # One store for the whole session: shared across variants (the
        # derived graphs are variant-independent) and -- when the config
        # names a cache_dir -- tiered over a persistent disk directory
        # that ensemble worker processes and later sessions warm-start
        # from (see repro.engine.store).
        self._cache = open_phase_store(self.config)
        self._engines: dict[str, SamplerEngine] = {}

    # -- shared state ---------------------------------------------------

    def engine(self, variant: str | None = None) -> SamplerEngine:
        """The session's engine for ``variant`` (built once, cache shared).

        ``None`` means the session's default variant (set by its preset).
        The derived-graph cache is keyed by (graph, numerics config), not
        by variant, so the approximate and exact engines warm each other.
        """
        if variant is None:
            variant = self.default_variant
        if variant not in self._engines:
            self._engines[variant] = SamplerEngine(
                self.graph, self.config, variant=variant, cache=self._cache
            )
        return self._engines[variant]

    def cache_stats(self) -> dict:
        """Per-tier counters of the shared derived-graph cache.

        Flat int-valued dict: ``hits``/``misses``/``evictions``/
        ``entries``/``bytes`` for the memory tier, plus ``disk_hits``/
        ``spills``/``promotes``/``disk_entries``/``disk_bytes``/
        ``disk_evictions`` and ``transient`` (builds the store declined
        to keep: a later phase's first sighting) when the session runs
        a tiered store (``config.cache_dir``). Empty when caching is
        disabled. Requests fanned out to worker processes (``jobs > 1``)
        warm the shared disk tier but not this session's in-process
        counters.
        """
        return {} if self._cache is None else self._cache.stats()

    def _request_seed(self, request) -> np.random.SeedSequence:
        """This request's seed root: explicit pin or next lineage child."""
        if request.seed is not None:
            return np.random.SeedSequence(request.seed)
        return self._root.spawn(1)[0]

    def _variant(self, request) -> str:
        """The request's variant, or the session default when unset."""
        return (
            request.variant
            if request.variant is not None
            else self.default_variant
        )

    # -- execution ------------------------------------------------------

    def _handlers(self) -> dict:
        """Request type -> handler; one entry per registered wire kind."""
        return {
            SampleRequest: self._run_sample,
            EnsembleRequest: self._run_ensemble,
            AuditRequest: self._run_audit,
            RoundBillRequest: self._run_roundbill,
            PageRankRequest: self._run_pagerank,
            MSTRequest: self._run_mst,
        }

    def run(self, request) -> Response:
        """Execute one request; returns the uniform response envelope."""
        handler = self._handlers().get(type(request))
        if handler is None:
            raise ConfigError(
                f"unsupported request type {type(request).__name__!r}"
            )
        seed = self._request_seed(request)
        start = time.perf_counter()
        result, extra_meta = handler(request, seed)
        meta = {
            **self.meta,
            "n": int(self.graph.n),
            "seed": request.seed,
            "linalg_backend": self._linalg_name,
            # The walk layer's one RNG contract: block draws against
            # per-level CDFs, midpoints placed from the bank's sequences
            # ("v3"; the same seed gave another tree under "v2").
            "rng_contract": "v3",
            "seconds": round(time.perf_counter() - start, 6),
            # Cumulative session cache counters, captured after the
            # request so every envelope carries tier hit/miss/spill/
            # promote state (DerivedGraphCache.stats used to be dropped
            # on the floor here).
            "cache": self.cache_stats(),
            **extra_meta,
        }
        return Response(kind=request.kind, result=result, meta=meta)

    def stream(self, request, *, stats: dict | None = None):
        """Yield a request's results incrementally.

        Accepts any request whose kind the workload registry marks
        streamable (:func:`~repro.core.workloads.
        streaming_request_kinds`). Ensembles yield draw by draw as
        workers complete; single-result workloads (MST) yield their one
        result record. Either way the outputs are byte-identical to the
        batch :meth:`run` response's for the same ``request.seed`` --
        streaming changes delivery, never outputs. (With ``seed=None``
        each call consumes a fresh lineage child, so two calls
        intentionally draw different results.)

        ``stats``, when given, is a caller-owned dict filled in as the
        stream completes: aggregated worker cache counters plus a
        ``degraded`` flag if the process pool broke mid-stream (the
        serving layer reports both instead of masking the fallback).
        """
        kind = getattr(type(request), "kind", None)
        if kind not in streaming_request_kinds():
            raise ConfigError(
                f"stream() takes a streamable request (kinds "
                f"{streaming_request_kinds()}), got "
                f"{type(request).__name__!r}"
            )
        if not isinstance(request, EnsembleRequest):
            # Single-result workloads: same handler, oracle gate, and
            # seed derivation as run(); the stream is one record long.
            result = self.run(request).result
            if stats is not None:
                stats.update(self.cache_stats())
                stats["degraded"] = False
            yield result
            return
        if request.leverage_audit:
            # The audit is a batch-level aggregate; silently dropping it
            # would betray the request. Batch via run(), or audit the
            # collected stream with analysis.leverage_score_deviation.
            raise ConfigError(
                "leverage_audit is a batch aggregate; use run() for "
                "audited ensembles or audit the collected stream yourself"
            )
        seed = self._request_seed(request)
        driver = EnsembleEngine(self.engine(self._variant(request)))
        yield from driver.iter_ensemble(
            request.count, seed=seed, jobs=request.jobs, stats=stats
        )

    # -- handlers (one per request kind) --------------------------------

    def _run_sample(self, request: SampleRequest, seed) -> tuple:
        rng = np.random.default_rng(seed)
        variant = self._variant(request)
        if variant == "fastcover":
            from repro.core.fastcover import sample_tree_fast_cover

            result = sample_tree_fast_cover(self.graph, rng)
            return FastCoverReport.from_result(result), {"variant": variant}
        result = self.engine(variant).run(rng)
        return result, {"variant": variant}

    def _run_ensemble(self, request: EnsembleRequest, seed) -> tuple:
        variant = self._variant(request)
        driver = EnsembleEngine(self.engine(variant))
        result = driver.sample_ensemble(
            request.count, seed=seed, jobs=request.jobs
        )
        meta: dict = {"variant": variant, "count": request.count}
        if result.degraded:
            # The pool broke and the batch fell back to sequential
            # (identical outputs); surfaced so services can report it.
            meta["degraded"] = True
        if request.leverage_audit:
            from repro.analysis.ensemble import leverage_report_from_result

            meta["leverage"] = {
                key: float(value)
                for key, value in leverage_report_from_result(
                    self.graph, result
                ).items()
            }
        return result, meta

    def _run_audit(self, request: AuditRequest, seed) -> tuple:
        from repro.analysis.tv import (
            chi_square_uniformity,
            expected_tv_noise,
            tv_to_uniform,
        )
        from repro.graphs.spanning import count_spanning_trees

        num_trees = count_spanning_trees(self.graph)
        if num_trees > request.max_enumeration:
            raise ReproError(
                f"graph (n={self.graph.n}) has {num_trees:.2e} trees; pick "
                "a smaller instance for exact-enumeration auditing"
            )
        variant = self._variant(request)
        driver = EnsembleEngine(self.engine(variant))
        ensemble = driver.sample_ensemble(
            request.samples, seed=seed, jobs=request.jobs
        )
        trees = ensemble.trees
        tv = tv_to_uniform(self.graph, trees)
        __, p_value = chi_square_uniformity(self.graph, trees)
        noise = expected_tv_noise(int(round(num_trees)), request.samples)
        report = AuditReport(
            spanning_trees=int(round(num_trees)),
            samples=request.samples,
            tv_to_uniform=float(tv),
            chi_square_p=float(p_value),
            noise_floor=float(noise),
            verdict="UNIFORM" if p_value > 1e-3 else "BIASED",
            mean_rounds=float(ensemble.mean_rounds()),
        )
        return report, {"variant": variant}

    def _run_roundbill(self, request: RoundBillRequest, seed) -> tuple:
        from repro.core.fastcover import sample_tree_fast_cover
        from repro.core.variants import get_variant, sample_variant_names

        rng = np.random.default_rng(seed)
        # One run per registry variant, in registry order, all from one
        # stream: engine-driven variants through their engines, the
        # standalone fast-cover driver directly. A variant the session's
        # config cannot realize (e.g. broadcast under the unicast
        # simulated-3d matmul protocol) keeps its zero-valued default
        # columns rather than failing the whole bill.
        runs = {}
        fast = None
        for name in sample_variant_names():
            if not get_variant(name).engine_driven:
                fast = sample_tree_fast_cover(self.graph, rng)
                continue
            try:
                engine = self.engine(name)
            except ConfigError:
                continue
            runs[name] = engine.run(rng)
        report = RoundBillReport(
            approximate_rounds=int(runs["approximate"].rounds),
            approximate_phases=int(runs["approximate"].phases),
            exact_rounds=int(runs["exact"].rounds),
            exact_phases=int(runs["exact"].phases),
            fastcover_rounds=int(fast.rounds),
            fastcover_walk_length=int(fast.walk_length),
            broadcast_rounds=int(runs["broadcast"].rounds)
            if "broadcast" in runs
            else 0,
            broadcast_phases=int(runs["broadcast"].phases)
            if "broadcast" in runs
            else 0,
        )
        return report, {"m": int(self.graph.m)}

    def _run_mst(self, request: MSTRequest, seed) -> tuple:
        from repro.core.mst import resolve_weights, run_mst
        from repro.core.workloads import get_workload
        from repro.walks.sequential import kruskal_forest

        spec = get_workload("mst")
        recipe = spec.resolve_recipe(request.recipe)
        # Weights depend only on (graph edge order, mode, seed) -- never
        # on the numerics config -- so pinned-seed instances are
        # host-invariant and independent of the walk layer.
        weights = resolve_weights(self.graph, request.weights, seed)
        result = run_mst(self.graph, recipe=recipe, weights=weights)
        oracle_forest, oracle_weight = kruskal_forest(self.graph, weights)
        # The oracle gate: the distributed runner and Kruskal share the
        # (weight, edge index) total order, under which the MSF is
        # unique -- so exact edge-set AND weight equality must hold even
        # on tie-prone instances. Anything else is a bug, not noise.
        if (
            result.forest != oracle_forest
            or result.total_weight != oracle_weight
        ):
            raise ReproError(
                "MST oracle gate failed: distributed forest "
                f"(weight {result.total_weight!r}) disagrees with the "
                f"sequential Kruskal oracle (weight {oracle_weight!r})"
            )
        report = MSTReport(
            forest=[[int(u), int(v)] for u, v in result.forest],
            total_weight=float(result.total_weight),
            recipe=recipe.name,
            weights=request.weights,
            phases=int(result.phases),
            rounds=int(result.rounds),
            categories={
                key: int(value)
                for key, value in result.ledger.rounds_by_category().items()
            },
            oracle=str(spec.oracle),
            oracle_weight=float(oracle_weight),
            oracle_match=True,
        )
        meta = {"m": int(self.graph.m), "comm_model": recipe.comm_model}
        return report, meta

    def _run_pagerank(self, request: PageRankRequest, seed) -> tuple:
        from repro.walks.pagerank import pagerank_exact, pagerank_via_walks

        exact = pagerank_exact(self.graph, damping=request.damping)
        estimate = pagerank_via_walks(
            self.graph,
            damping=request.damping,
            walks_per_vertex=request.walks_per_vertex,
            rng=np.random.default_rng(seed),
        )
        report = PageRankReport(
            damping=float(request.damping),
            walks_per_vertex=int(request.walks_per_vertex),
            walk_length=int(estimate.walk_length),
            rounds=int(estimate.rounds),
            l1_error=float(estimate.l1_error(exact)),
            scores=[float(score) for score in estimate.scores],
            exact_scores=[float(score) for score in exact],
        )
        return report, {}
