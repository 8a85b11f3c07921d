"""Single-draw execution engine (the algorithmic core of Theorem 1).

:class:`SamplerEngine` owns everything one draw of the sampler needs --
phase iteration, derived-graph construction (through the
:class:`~repro.engine.cache.DerivedGraphCache`), matmul backend
resolution (:mod:`repro.engine.backends`), the distributed walk
(:func:`repro.core.phase.run_phase_walk`), and Algorithm 4's first-visit
edges. Every engine-driven variant of :mod:`repro.core.variants` is a
parameter of this one class: :func:`repro.core.sampler.sample_spanning_tree`
and :class:`repro.api.Session` call :meth:`SamplerEngine.run`, and batch
workloads drive it through :class:`repro.engine.ensemble.EnsembleEngine`.

Charging discipline: every run charges its full analytic (or measured)
round bill to its own per-run ledger, whether or not the numerics came
from the cache -- the model counts rounds per execution. One function,
:meth:`SamplerEngine._charge_phase_numerics`, bills each phase's
numerics as a closed form of ``(n, |S|, phase, ell, precision_bits)``
right after the cache lookup or cold build, so cached and uncached runs
produce identical trees *and* byte-identical ledgers.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.clique.cost import RoundLedger
from repro.clique.network import CongestedClique
from repro.clique.routing import broadcast_cc_rounds
from repro.core.config import SamplerConfig
from repro.core.phase import PhaseStats, run_phase_walk
from repro.core.variants import get_variant
from repro.engine.backends import make_matmul_backend
from repro.engine.cache import (
    DerivedGraphCache,
    PhaseNumerics,
    config_fingerprint,
)
from repro.engine.store import TieredPhaseStore, open_phase_store
from repro.engine.results import SampleResult
from repro.errors import ConfigError, GraphError, SamplingError
from repro.graphs.core import WeightedGraph
from repro.graphs.spanning import is_spanning_tree, tree_key
from repro.linalg.backend import resolve_linalg_backend
from repro.linalg.matpow import PowerLadder
from repro.linalg.shortcut import first_visit_edge_distribution

__all__ = ["SamplerEngine"]


class SamplerEngine:
    """Executes full draws of the Theorem 1 / Appendix 5 sampler.

    Parameters
    ----------
    graph:
        Connected input graph (validated here, so every caller inherits
        the checks).
    config:
        Algorithm knobs; see :class:`~repro.core.config.SamplerConfig`.
    variant:
        Any engine-driven name from the :mod:`repro.core.variants`
        registry: ``"approximate"`` (Theorem 1), ``"exact"``
        (Appendix 5), or ``"broadcast"`` (the Anari-Haqi Broadcast
        Congested Clique sampler).
    cache:
        Optional externally owned cache: a :class:`DerivedGraphCache`
        or a :class:`~repro.engine.store.TieredPhaseStore` (both expose
        ``lookup``/``store``/``stats``). ``None`` opens one per the
        config via :func:`~repro.engine.store.open_phase_store` (or
        disables caching when ``config.derived_cache`` is false).
    """

    def __init__(
        self,
        graph: WeightedGraph,
        config: SamplerConfig | None = None,
        *,
        variant: str = "approximate",
        cache: DerivedGraphCache | TieredPhaseStore | None = None,
    ) -> None:
        graph.require_connected()
        if graph.n < 2:
            raise GraphError("sampling needs at least 2 vertices")
        # The registry is the single source of truth for what a variant
        # name means (rho policy, placement discipline, communication
        # model); the engine only accepts specs it can drive. Unknown
        # names keep the engine's historical GraphError contract;
        # ConfigError stays the registry/request-layer type.
        try:
            spec = get_variant(variant)
        except ConfigError as exc:
            raise GraphError(str(exc)) from None
        if not spec.engine_driven:
            raise GraphError(
                f"variant {variant!r} has a standalone driver and is not "
                "run by SamplerEngine (see repro.core.fastcover)"
            )
        self.graph = graph
        self.config = config if config is not None else SamplerConfig()
        self.variant = variant
        self.spec = spec
        if spec.comm_model == "broadcast" and (
            self.config.matmul_backend != "analytic"
        ):
            raise ConfigError(
                "the broadcast variant bills rounds in the Broadcast "
                "Congested Clique; the unicast matmul protocol "
                f"{self.config.matmul_backend!r} cannot realize it "
                "(use matmul_backend='analytic')"
            )
        if not (0 <= self.config.start_vertex < graph.n):
            raise GraphError(
                f"start vertex {self.config.start_vertex} out of range"
            )
        if cache is None:
            # Per the config: in-memory LRU, a tiered store over
            # config.cache_dir (how separately spawned ensemble workers
            # warm-start from each other), or None when disabled.
            cache = open_phase_store(self.config)
        self.cache = cache
        # Numerics realization (dense numpy vs scipy CSR), resolved once
        # per engine: "auto" decides from the graph's size and density.
        self.linalg = resolve_linalg_backend(self.config, graph)
        # Cache entries are deterministic functions of (graph, config,
        # resolved numerics backend); key them under a fingerprint over
        # the *complete* configuration so an externally shared cache can
        # never serve numerics computed for another graph or any
        # differing configuration (a partial field list silently went
        # stale whenever a numerics-affecting knob was added). The
        # variant is excluded on purpose: it changes rho, never the
        # derived graphs -- which is what lets a session's approximate
        # and exact engines warm each other.
        digest = hashlib.sha1()
        digest.update(np.ascontiguousarray(graph.weights).tobytes())
        digest.update(
            config_fingerprint(
                self.config,
                resolved_ell=self.config.resolve_ell(graph.n),
                linalg_backend=self.linalg.name,
            ).encode()
        )
        self._cache_token = digest.hexdigest()

    # ------------------------------------------------------------------

    def run(self, rng: np.random.Generator | None = None) -> SampleResult:
        """One full draw: phase loop, validation, diagnostics."""
        rng = np.random.default_rng(rng)
        graph = self.graph
        n = graph.n
        config = self.config
        clique = CongestedClique(n)
        ledger = clique.ledger
        rho = config.resolve_rho(n, variant=self.variant)
        ell = config.resolve_ell(n)

        # The unvisited set is maintained incrementally as a boolean mask:
        # each phase reads it in O(n) (no per-phase set rebuild or sort --
        # np.flatnonzero already yields ascending order).
        unvisited = np.ones(n, dtype=bool)
        unvisited[config.start_vertex] = False
        num_visited = 1
        current = config.start_vertex
        tree_edges: list[tuple[int, int]] = []
        phase_stats: list[PhaseStats] = []
        max_phases = 4 * n + 8

        phase_index = 0
        while num_visited < n:
            phase_index += 1
            if phase_index > max_phases:
                raise SamplingError(
                    f"exceeded {max_phases} phases; sampler is stuck"
                )
            others = np.flatnonzero(unvisited)
            # `current` is always already visited, so insert it at its
            # sorted position to form S = unvisited + {current}.
            position = int(np.searchsorted(others, current))
            subset = [int(v) for v in np.insert(others, position, current)]
            with ledger.section(f"phase-{phase_index}"):
                new_edges, walk_orig, stats = self._run_phase(
                    subset, current, rho, ell, rng, clique
                )
            tree_edges.extend(new_edges)
            for v in walk_orig:
                if unvisited[v]:
                    unvisited[v] = False
                    num_visited += 1
            current = walk_orig[-1]
            phase_stats.append(stats)

        if len(tree_edges) != n - 1 or not is_spanning_tree(graph, tree_edges):
            raise SamplingError(
                "sampler produced an invalid spanning tree; this is a bug"
            )  # pragma: no cover
        return SampleResult(
            tree=tree_key(tree_edges),
            rounds=ledger.total_rounds(),
            phases=phase_index,
            ledger=ledger,
            phase_stats=phase_stats,
            clique_stats=clique.stats(),
        )

    # ------------------------------------------------------------------

    def _run_phase(
        self,
        subset: list[int],
        start: int,
        rho: int,
        ell: int,
        rng: np.random.Generator,
        clique: CongestedClique,
    ) -> tuple[list[tuple[int, int]], list[int], PhaseStats]:
        """Execute one phase; returns (first-visit edges, walk, stats)."""
        graph = self.graph
        n = graph.n
        config = self.config
        ledger = clique.ledger
        is_phase_one = len(subset) == n

        # --- Steps 2-3 of Outline 3: derived graphs + power ladder,
        #     through the cache (numerics) and backend (charges). --------
        numerics = self._phase_numerics(subset, is_phase_one, ell)
        self._charge_phase_numerics(ledger, len(subset), is_phase_one, ell)
        shortcut = numerics.shortcut
        transition = numerics.transition
        order = numerics.order
        index_of = {v: i for i, v in enumerate(order)}

        # --- Steps 4-5: distributed truncated walk. ---------------------
        # Broadcast variant: the walk machinery consumes the identical
        # RNG stream but issues no unicast charges (clique=None); the
        # phase's Broadcast-CC bill is charged analytically below from
        # the realized walk statistics, which are seed-deterministic --
        # so cached, cold, and cross-host runs bill identically.
        broadcast = self.spec.comm_model == "broadcast"
        rho_eff = min(rho, len(subset))
        stats = PhaseStats(subset_size=len(subset), rho_eff=rho_eff)
        local_walk = run_phase_walk(
            transition,
            index_of[start],
            rho_eff,
            config,
            rng,
            clique=None if broadcast else clique,
            ladder=numerics.ladder,
            exact_placement=self.spec.exact_placement,
            stats=stats,
        )
        walk_orig = [order[i] for i in local_walk]

        # --- Step 6: first-visit edges via ShortCut(G, S) (Algorithm 4).
        # S's membership mask and into-S weights are functions of (G, S)
        # alone; hoist them out of the per-new-vertex loop (same per-row
        # pairwise sums, so the sampled law is unchanged). Each
        # distribution is computed for this phase and kept nowhere.
        s_mask = np.zeros(n, dtype=bool)
        s_mask[subset] = True
        weight_into_s = graph.weights[:, s_mask].sum(axis=1)
        edges: list[tuple[int, int]] = []
        seen = {walk_orig[0]}
        steps: list[tuple[int, int]] = []
        for position in range(1, len(walk_orig)):
            v = walk_orig[position]
            if v in seen:
                continue
            seen.add(v)
            steps.append((walk_orig[position - 1], v))
        # The phase's first-visit edges share one uniform vector, each
        # resolved against the cumulative distribution of its (prev, v)
        # step.
        uniforms = rng.random(len(steps)) if steps else ()
        for (prev, v), uniform in zip(steps, uniforms):
            neighbors, probabilities = first_visit_edge_distribution(
                graph, subset, shortcut, prev, v,
                weight_into_s=weight_into_s, s_mask=s_mask,
            )
            cdf = np.cumsum(probabilities)
            pick = int(cdf.searchsorted(uniform * cdf[-1], "right"))
            pick = min(pick, len(cdf) - 1)
            edges.append((int(neighbors[pick]), v))
            stats.new_vertices.append(v)
        if broadcast:
            self._charge_broadcast_phase(ledger, n, stats, len(edges))
        else:
            # Algorithm 4's communication: O(1) rounds for the whole phase
            # (each new vertex's machine gathers its neighbors' Q-entries).
            clique.charge_step(
                "first-visit-edges",
                n,
                n,
                total_words=len(edges) * 2 + n,
            )
        return edges, walk_orig, stats

    def _charge_broadcast_phase(
        self,
        ledger: RoundLedger,
        n: int,
        stats: PhaseStats,
        num_edges: int,
    ) -> None:
        """One phase's Broadcast-CC walk-layer bill (Anari-Haqi, Sec. 3).

        Everything here is a closed form of the realized walk statistics
        (segment count, level count, fallback count, edge count), which
        are functions of the RNG stream alone -- never of cache state --
        so warm and cold runs charge byte-identical ledgers. The ladder
        squarings are billed separately through the
        broadcast-collective matmul backend.
        """
        category = self.spec.bandwidth_category
        log_n = max(1, math.ceil(math.log2(max(n, 2))))
        # Each fill segment's leader announces its end-law draw: one
        # word per segment (1 nominal + one per Las-Vegas extension).
        ledger.charge(
            category,
            broadcast_cc_rounds(1 + stats.extensions, n),
            note="segment end draws",
        )
        # Per doubling level, machines publish their midpoint sketches
        # and the leader announces the truncation index: O(log n)
        # broadcast rounds per level in the Anari-Haqi accounting.
        if stats.levels:
            ledger.charge(
                category, stats.levels * log_n, note="level sketches"
            )
        # Section 5.2 precision fallback: the leader collects the whole
        # network -- n^2 words through the aggregate n-words-per-round
        # broadcast budget.
        if stats.brute_force_fallbacks:
            ledger.charge(
                category,
                stats.brute_force_fallbacks * broadcast_cc_rounds(n * n, n),
                note="precision fallback (collect network)",
            )
        # Algorithm 4's first-visit edges, announced to everyone.
        ledger.charge(
            category,
            broadcast_cc_rounds(2 * num_edges + n, n),
            note="first-visit edges",
        )

    # ------------------------------------------------------------------

    def _phase_numerics(
        self, subset: list[int], is_phase_one: bool, ell: int
    ) -> PhaseNumerics:
        """This phase's numerics: a cache hit or a cold build.

        Charges nothing; :meth:`_charge_phase_numerics` bills the phase
        the same either way. A cold build is offered to the cache with
        its phase-one flag; a tiered store keeps a later phase's build
        only on its volume's second sighting
        (:meth:`~repro.engine.store.TieredPhaseStore.store`).
        """
        key = (self._cache_token, tuple(subset))
        cached = self.cache.lookup(key) if self.cache is not None else None
        if cached is not None:
            return cached
        graph = self.graph
        shortcut = self.linalg.shortcut_matrix(graph, subset)
        if is_phase_one:
            transition = self.linalg.transition_matrix(graph)
            order = list(range(graph.n))
        else:
            transition, order = self.linalg.schur_transition(graph, subset)
        numerics = PhaseNumerics(
            shortcut=shortcut,
            transition=transition,
            order=order,
            ladder=PowerLadder(
                transition, ell, bits=self.config.precision_bits
            ),
        )
        if self.cache is not None:
            self.cache.store(key, numerics, phase_one=is_phase_one)
        return numerics

    def _charge_phase_numerics(
        self,
        ledger: RoundLedger,
        size: int,
        is_phase_one: bool,
        ell: int,
    ) -> None:
        """Bill one phase's derived graphs and power ladder.

        Every charge is a closed form of ``(n, |S|, phase, ell,
        precision_bits)`` -- never of the numerics or of cache state --
        so a cache hit and a cold build bill byte-identical entries.
        Derived-graph products are analytic in unicast variants and
        sketch rounds in the broadcast-bandwidth category in broadcast
        variants (those only arise when an explicit ``rho`` override
        forces later phases -- the default full-cover policy never
        builds a Schur phase). The ladder goes through the matmul
        backend the config names.
        """
        n = self.graph.n
        broadcast = self.spec.comm_model == "broadcast"
        if not is_phase_one:
            derived = make_matmul_backend(
                "broadcast-collective" if broadcast else "analytic", n, ledger
            )
            beta = self.config.normalizer_floor(n)
            # Corollary 2: log(k) squarings of the 2n x 2n auxiliary chain.
            squarings = max(
                1, math.ceil(math.log2(max(2.0, n ** 3 * math.log(1.0 / beta))))
            )
            derived.charge(2 * n, count=squarings, note="shortcut graph")
            # Corollary 3: one extra product (QR) on top of the shortcut work.
            derived.charge(n, note="schur graph")
        # Lemma 7: log2(ell) squarings of the |S| x |S| phase chain, with
        # entries of `precision_bits` bits shipped as that many words.
        bits = self.config.precision_bits
        entry_words = (
            None if bits is None else max(1, math.ceil(bits / math.log2(max(size, 2))))
        )
        ladder_backend = make_matmul_backend(
            "broadcast-collective" if broadcast else self.config.matmul_backend,
            size,
            ledger,
        )
        ladder_backend.charge(
            size,
            count=ell.bit_length() - 1,
            entry_words=entry_words,
            note="phase ladder",
        )
