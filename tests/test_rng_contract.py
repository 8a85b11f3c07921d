"""The walk layer's block-draw RNG contract: accounting, determinism, hygiene.

The walk layer draws one uniform block per level (and per first-visit
group) and resolves every decision by ``searchsorted`` against
precomputed CDFs; no per-decision ``rng.choice(p=...)`` or
``rng.permutation`` call survives, and midpoint placement draws nothing
at all (it reads the bank's sequences). The contract (the "v3" that
responses report) is the only one; its load-bearing properties:

1. **Stream accounting** -- a draw makes O(levels) generator
   invocations, not O(pairs + columns), none of them is a per-decision
   ``choice`` / ``permutation``, and none comes from placement. Counted
   with an instrumented ``Generator`` subclass.
2. **Determinism** -- draws are byte-identical across ensemble
   job counts, cache tiers (cold / warm-memory / warm-disk), linalg
   backends, and plan warmth. The bits consumed depend only on the
   (seed, config numerics) pair, never on how the plan was populated.
3. **Cumsum-once** -- plan-served laws are cumsummed exactly once and
   memoized; no per-draw renormalization runs on the hot path.
4. **Restart identity** -- a plan restored from plan.npz draws the
   same trees as a freshly built one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import graphs
from repro.core.config import SamplerConfig
from repro.core.placement_plan import PlacementPlan
from repro.engine.runner import SamplerEngine
from repro.errors import ConfigError


class CountingGenerator(np.random.Generator):
    """A Generator that counts its own invocations, in total and per
    drawing method."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = 0
        self.by_method: dict[str, int] = {}

    def _count(self, method: str) -> None:
        self.calls += 1
        self.by_method[method] = self.by_method.get(method, 0) + 1

    def random(self, *args, **kwargs):
        self._count("random")
        return super().random(*args, **kwargs)

    def choice(self, *args, **kwargs):
        self._count("choice")
        return super().choice(*args, **kwargs)

    def permutation(self, *args, **kwargs):
        self._count("permutation")
        return super().permutation(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self._count("integers")
        return super().integers(*args, **kwargs)


class TestConfigSurface:
    def test_default_is_v2(self):
        """The block-draw contract ("v2", "v3" since placement reads the
        bank) is the only one: no config field selects another
        (responses report it; see
        test_meta_reports_contract_not_placement_mode)."""
        from dataclasses import fields

        assert "rng_contract" not in {f.name for f in fields(SamplerConfig)}

    def test_unknown_contract_rejected(self):
        """rng_contract is retired: naming it, with any value, fails
        loudly instead of being silently ignored."""
        from repro.api import preset_config

        for value in ("v1", "v2", "v3"):
            with pytest.raises(
                ConfigError, match=r"unknown config field\(s\).*rng_contract"
            ):
                preset_config("fast-audit", rng_contract=value)
        with pytest.raises(TypeError):
            SamplerConfig(rng_contract="v1")


class TestStreamAccounting:
    """Invocation counts scale with levels, not pairs or columns."""

    def _count(self, variant: str) -> tuple[CountingGenerator, int]:
        graph = graphs.complete_graph(16)
        config = SamplerConfig(ell=1 << 8)
        engine = SamplerEngine(graph, config, variant=variant)
        engine.run(np.random.default_rng(0))  # warm the plan first
        rng = CountingGenerator(1)
        result = engine.run(rng)
        return rng, result.phases

    @pytest.mark.parametrize("variant", ["approximate", "exact"])
    def test_block_scaled_with_no_per_decision_draws(self, variant):
        rng, phases = self._count(variant)
        # Structural ceiling: per phase, the walk layer draws one block
        # per level for the midpoint bank, one end-vertex uniform, and
        # one first-visit block; placement draws none (measured 50
        # calls against a 240 ceiling for the approximate variant).
        levels = int(math.log2(1 << 8)) + 2
        assert rng.calls <= phases * (4 * levels + 8)
        # No decision is drawn on its own: every call is a uniform block.
        assert rng.by_method.get("choice", 0) == 0
        assert rng.by_method.get("permutation", 0) == 0

    @pytest.mark.parametrize("variant", ["approximate", "exact"])
    def test_placement_draws_no_uniforms(self, variant, monkeypatch):
        """Both placement fronts read the bank: the generator's call
        count is the same before and after every placement."""
        from repro.core import phase

        rng = CountingGenerator(3)
        placements = []
        for name in ("place_midpoints", "place_by_pair_multisets"):
            front = getattr(phase, name)

            def counted(*args, front=front, **kwargs):
                before = rng.calls
                walk = front(*args, **kwargs)
                placements.append(rng.calls - before)
                return walk

            monkeypatch.setattr(phase, name, counted)
        engine = SamplerEngine(
            graphs.complete_graph(16), SamplerConfig(ell=1 << 8),
            variant=variant,
        )
        engine.run(rng)
        assert placements and set(placements) == {0}

    def test_v2_counts_stable_across_warm_draws(self):
        """Plan warmth changes invocation counts by nothing at all."""
        graph = graphs.complete_graph(16)
        engine = SamplerEngine(graph, SamplerConfig(ell=1 << 8))
        counts = []
        for seed in range(3):
            rng = CountingGenerator(seed)
            engine.run(rng)
            counts.append(rng.calls)
        # Trajectories differ, so totals may wobble by the per-phase
        # constants -- but never by a per-pair/per-column factor.
        assert max(counts) - min(counts) <= 4 * len(counts) * 16


class TestV2Determinism:
    """Same seed => same bytes, whatever produced the numerics."""

    def test_identical_across_jobs(self, tmp_path):
        from repro.api import EnsembleRequest, Session, preset_config

        graph = graphs.complete_graph(16)
        config = preset_config(
            "fast-bench", ell=1 << 8, cache_dir=str(tmp_path)
        )
        parallel = Session(graph, config, seed=0).run(
            EnsembleRequest(count=4, seed=5, jobs=2)
        )
        serial = Session(graph, config, seed=0).run(
            EnsembleRequest(count=4, seed=5, jobs=1)
        )
        assert parallel.result.trees == serial.result.trees
        assert [r.rounds for r in parallel.result.results] == [
            r.rounds for r in serial.result.results
        ]

    def test_identical_across_cache_tiers(self, tmp_path):
        from repro.api import EnsembleRequest, Session, preset_config

        graph = graphs.complete_graph(16)
        tiered = preset_config(
            "fast-bench", ell=1 << 8, cache_dir=str(tmp_path)
        )
        cacheless = preset_config("fast-bench", ell=1 << 8, cache_dir=None)
        request = EnsembleRequest(count=3, seed=5, jobs=1)
        cold = Session(graph, tiered, seed=0).run(request)
        warm_disk = Session(graph, tiered, seed=0).run(request)
        no_cache = Session(graph, cacheless, seed=0).run(request)
        assert cold.result.trees == warm_disk.result.trees
        assert cold.result.trees == no_cache.result.trees
        assert [r.rounds for r in cold.result.results] == [
            r.rounds for r in warm_disk.result.results
        ]

    @pytest.mark.parametrize("family", ["cycle", "complete", "gnp"])
    def test_identical_across_linalg_backends(self, family):
        from repro.graphs.families import build_family

        graph, __ = build_family(family, 20, np.random.default_rng(5))
        trees = {}
        for backend in ("dense", "sparse"):
            config = SamplerConfig(ell=1 << 8, linalg_backend=backend)
            engine = SamplerEngine(graph, config)
            rng = np.random.default_rng(11)
            results = [engine.run(rng) for __ in range(3)]
            trees[backend] = [r.tree for r in results]
            if backend == "dense":
                rounds = [r.rounds for r in results]
            else:
                assert [r.rounds for r in results] == rounds
        assert trees["dense"] == trees["sparse"]


class TestNormalizeOnce:
    """Plan laws are cumsummed exactly once, ever."""

    @staticmethod
    def _half(n=6, seed=3):
        return np.random.default_rng(seed).uniform(0.01, 1.0, size=(n, n))

    def test_cdf_memoized_and_unnormalized(self):
        plan = PlacementPlan()
        half = self._half()
        first, total = plan.cdf(3, 0, 1, half)
        second, __ = plan.cdf(3, 0, 1, half)
        assert second is first  # the cumsum ran exactly once
        law, law_total = plan.law(3, 0, 1, half)
        np.testing.assert_array_equal(first, np.cumsum(law))
        assert total == law_total  # the Section 5.2 floor sees the law's sum

    def test_derived_memos_evict_with_their_law(self):
        plan = PlacementPlan(max_laws=1)
        half = self._half()
        plan.cdf(1, 0, 1, half)
        plan.law(1, 0, 2, half)  # evicts (1, 0, 1)
        assert (1, 0, 1) not in plan._cdfs


class TestDpSeedPersistence:
    """Plans ride plan.npz across process restarts. (The name is from
    the retired contingency-DP seed columns; kept for stable test ids.)"""

    def _sessions(self, tmp_path):
        from repro.api import EnsembleRequest, Session, preset_config

        graph = graphs.complete_graph(24)
        config = preset_config(
            "fast-bench", ell=1 << 8, cache_dir=str(tmp_path)
        )
        request = EnsembleRequest(count=2, seed=5, jobs=1)
        return graph, config, request, Session

    def test_seeded_draws_match_built_draws(self, tmp_path):
        """A session seeded from the spilled plans draws byte-identical
        trees and bills to a freshly built one -- restart warmth never
        changes outputs."""
        graph, config, request, Session = self._sessions(tmp_path)
        cold = Session(graph, config, seed=0).run(request)
        warm = Session(graph, config, seed=0).run(request)
        assert warm.result.trees == cold.result.trees
        assert [r.rounds for r in warm.result.results] == [
            r.rounds for r in cold.result.results
        ]
