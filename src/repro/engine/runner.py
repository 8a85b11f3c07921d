"""Single-draw execution engine (the algorithmic core of Theorem 1).

:class:`SamplerEngine` owns everything one draw of the sampler needs --
phase iteration, derived-graph construction (through the
:class:`~repro.engine.cache.DerivedGraphCache`), matmul backend
resolution (:mod:`repro.engine.backends`), the distributed walk
(:func:`repro.core.phase.run_phase_walk`), and Algorithm 4's first-visit
edges. The public :class:`repro.core.sampler.CongestedCliqueTreeSampler`
is a thin facade over this class; batch workloads drive it through
:class:`repro.engine.ensemble.EnsembleEngine`.

Charging discipline: every run charges its full analytic (or measured)
round bill to its own per-run ledger, whether or not the numerics came
from the cache -- the model counts rounds per execution. Cache hits
replay the recorded charge recipe (see
:class:`~repro.engine.cache.PhaseNumerics`), so cached and uncached runs
produce identical trees *and* identical round totals.
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
from repro.engine.backends import MatmulBackend, make_matmul_backend
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
        Connected input graph (validated here, so facades inherit the
        checks).
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
        numerics = self._phase_numerics(subset, is_phase_one, ell, ledger)
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
        self,
        subset: list[int],
        is_phase_one: bool,
        ell: int,
        ledger: RoundLedger,
    ) -> PhaseNumerics:
        """This phase's numerics: cache-replayed or built cold.

        Either way the per-run ledger receives the full charges of a cold
        build.
        """
        # The communication model picks the charging backend: broadcast
        # variants bill every product as polylog sketch rounds in the
        # broadcast-bandwidth category; unicast variants use whichever
        # protocol the config names. Numerics are identical either way,
        # which is what lets all engine variants share cache entries.
        backend_name = (
            "broadcast-collective"
            if self.spec.comm_model == "broadcast"
            else self.config.matmul_backend
        )
        backend = make_matmul_backend(backend_name, len(subset), ledger)
        key = (self._cache_token, tuple(subset))
        cached = self.cache.lookup(key) if self.cache is not None else None
        if cached is not None:
            self._replay_charges(cached, ledger, backend)
            return cached
        numerics = self._build_numerics(
            subset, is_phase_one, ell, ledger, backend
        )
        if self.cache is not None:
            self.cache.store(key, numerics)
        return numerics

    def _build_numerics(
        self,
        subset: list[int],
        is_phase_one: bool,
        ell: int,
        ledger: RoundLedger,
        backend: MatmulBackend,
    ) -> PhaseNumerics:
        """Cold path: compute shortcut/Schur/ladder and charge as we go."""
        graph = self.graph
        config = self.config
        shortcut, shortcut_squarings = self._compute_shortcut(
            subset, is_phase_one, ledger
        )
        if is_phase_one:
            transition = self.linalg.transition_matrix(graph)
            order = list(range(graph.n))
        else:
            transition, order = self._compute_schur(subset, ledger)
        ladder = PowerLadder(
            transition,
            ell,
            bits=config.precision_bits,
            ledger=ledger,
            matmul=backend,
            note="phase ladder",
        )
        return PhaseNumerics(
            shortcut=shortcut,
            transition=transition,
            order=order,
            ladder=ladder,
            is_phase_one=is_phase_one,
            ladder_size=transition.shape[0],
            ladder_squarings=ladder.squarings,
            ladder_entry_words=ladder.entry_words,
            shortcut_squarings=shortcut_squarings,
        )

    def _replay_charges(
        self,
        numerics: PhaseNumerics,
        ledger: RoundLedger,
        backend: MatmulBackend,
    ) -> None:
        """Charge a cache hit exactly what a cold build would have charged."""
        n = self.graph.n
        if numerics.shortcut_squarings:
            self._charge_derived_matmul(
                ledger,
                2 * n,
                count=numerics.shortcut_squarings,
                note="shortcut graph (cached numerics)",
            )
        if not numerics.is_phase_one:
            self._charge_derived_matmul(
                ledger, n, count=1, note="schur graph (cached numerics)"
            )
        backend.charge_replay(
            numerics.ladder_size,
            count=numerics.ladder_squarings,
            entry_words=numerics.ladder_entry_words,
            note="phase ladder (cached numerics)",
        )

    def _compute_shortcut(
        self, subset: list[int], is_phase_one: bool, ledger: RoundLedger
    ) -> tuple[np.ndarray, int]:
        """ShortCut(G, S) matrix + its Corollary 2 round charge.

        Returns ``(matrix, squarings)`` with ``squarings`` the charged
        count (0 in phase 1), recorded for cache replay.
        """
        shortcut = self.linalg.shortcut_matrix(self.graph, subset)
        squarings = 0
        if not is_phase_one:
            beta = self.config.normalizer_floor(self.graph.n)
            # Corollary 2: log(k) squarings of the 2n x 2n auxiliary chain.
            squarings = max(
                1,
                math.ceil(
                    math.log2(
                        max(2.0, self.graph.n ** 3 * math.log(1.0 / beta))
                    )
                ),
            )
            self._charge_derived_matmul(
                ledger, 2 * self.graph.n, count=squarings, note="shortcut graph"
            )
        return shortcut, squarings

    def _charge_derived_matmul(
        self, ledger: RoundLedger, size: int, *, count: int, note: str
    ) -> None:
        """Bill derived-graph products in the variant's comm model.

        Unicast variants keep the analytic matmul charge they always
        had; broadcast variants bill the same product count as sketch
        rounds in the broadcast-bandwidth category (these only arise
        when an explicit ``rho`` override forces later phases -- the
        default full-cover policy never builds a Schur phase).
        """
        if self.spec.comm_model == "broadcast":
            rounds = ledger.model.broadcast_matmul_rounds(size) * count
            ledger.charge(self.spec.bandwidth_category, rounds, note)
        else:
            ledger.charge_matmul(size, count=count, note=note)

    def _compute_schur(
        self, subset: list[int], ledger: RoundLedger
    ) -> tuple[np.ndarray, list[int]]:
        """Schur(G, S) transition matrix + its Corollary 3 round charge."""
        transition, order = self.linalg.schur_transition(self.graph, subset)
        # Corollary 3: one extra product (QR) on top of the shortcut work.
        self._charge_derived_matmul(
            ledger, self.graph.n, count=1, note="schur graph"
        )
        return transition, order
