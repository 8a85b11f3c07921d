"""The walk layer's block-draw RNG contract: accounting, determinism, hygiene.

The walk layer draws one uniform block per level (and per DP table,
expansion and first-visit group) and resolves every decision by
``searchsorted`` against precomputed CDFs; no per-decision
``rng.choice(p=...)`` or ``rng.permutation`` call survives. The
contract (the "v2" that responses still report) is the only one; its
load-bearing properties:

1. **Stream accounting** -- a draw makes O(levels + DP layers)
   generator invocations, not O(pairs + columns), and none of them is a
   per-decision ``choice`` / ``permutation``. Counted with an
   instrumented ``Generator`` subclass.
2. **Determinism** -- draws are byte-identical across ensemble
   job counts, cache tiers (cold / warm-memory / warm-disk), linalg
   backends, and plan warmth. The bits consumed depend only on the
   (seed, config numerics) pair, never on how the plan was populated.
3. **Cumsum-once** -- plan-served laws are cumsummed exactly once and
   memoized; no per-draw renormalization runs on the hot path.
4. **DP-seed persistence** -- the hottest prepared-DP CDF tables ride
   plan.npz to disk, and a restarted process serves its first block
   draws from the seeded memo without rebuilding the DP.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import graphs
from repro.core.config import SamplerConfig
from repro.core.placement_plan import PLAN_MEMBERS, PlacementPlan
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
        """The block-draw ("v2") contract is the only one: no config
        field selects another (responses still report it; see
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
        # per level for the midpoint bank, at most three blocks per
        # level for placement (DP table + expansion + multiset shuffle),
        # one end-vertex uniform, and one first-visit block (measured
        # 87 calls against a 240 ceiling for the approximate variant).
        levels = int(math.log2(1 << 8)) + 2
        assert rng.calls <= phases * (4 * levels + 8)
        # No decision is drawn on its own: every call is a uniform block.
        assert rng.by_method.get("choice", 0) == 0
        assert rng.by_method.get("permutation", 0) == 0

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
    """Prepared-DP CDF tables ride plan.npz across process restarts."""

    def _sessions(self, tmp_path):
        from repro.api import EnsembleRequest, Session, preset_config

        graph = graphs.complete_graph(24)
        config = preset_config(
            "fast-bench", ell=1 << 8, cache_dir=str(tmp_path)
        )
        request = EnsembleRequest(count=2, seed=5, jobs=1)
        return graph, config, request, Session

    def test_plan_blob_carries_dp_seeds(self, tmp_path):
        from repro.engine.store import PLAN_BLOB

        graph, config, request, Session = self._sessions(tmp_path)
        Session(graph, config, seed=0).run(request)
        seeded = 0
        for blob in tmp_path.glob(f"blobs/*/{PLAN_BLOB}"):
            with np.load(blob) as arrays:
                assert set(arrays.keys()) == set(PLAN_MEMBERS)
                digests = arrays["dp_digests"]
                key_counts = arrays["dp_key_counts"]
                keys = arrays["dp_keys"]
                counts = arrays["dp_counts"]
                cdfs = arrays["dp_cdfs"]
            if digests.shape[0]:
                # A complete record: every digest's keys, every key's
                # option count, the cdf values those counts tile.
                assert key_counts.shape == digests.shape
                assert int(key_counts.sum()) == keys.shape[0]
                assert int(counts.sum()) == cdfs.shape[0]
                seeded += 1
        assert seeded > 0, "the hot phase-1 entry must spill DP seeds"

    def test_warm_restart_serves_first_draw_from_seed(self, tmp_path):
        from repro.engine.store import PLAN_BLOB

        graph, config, request, Session = self._sessions(tmp_path)
        cold = Session(graph, config, seed=0).run(request)

        # The spilled blobs restore their seeds through from_arrays (the
        # vectorized-DP phases export; trivially small phases don't).
        seeded_blobs = 0
        for blob in tmp_path.glob(f"blobs/*/{PLAN_BLOB}"):
            with np.load(blob) as arrays:
                if not arrays["dp_digests"].shape[0]:
                    continue
                plan = PlacementPlan.from_arrays(arrays)
            assert plan._dp_seeds, "a seed-bearing blob must restore seeds"
            seeded_blobs += 1
        assert seeded_blobs > 0

        warm = Session(graph, config, seed=0)
        second = warm.run(request)
        assert second.result.trees == cold.result.trees
        # At least one evaluator in the warm run was restored from its
        # seeded CDF memo and served every draw without running the
        # forward/backward build (the first-draw-after-restart floor
        # this removes).
        restored = [
            prepared
            for entry in warm._cache.memory._entries.values()
            if entry.plan is not None
            for prepared in entry.plan._dps.values()
            if getattr(prepared, "_built", True) is False
        ]
        assert restored
        assert all(prepared._cdf_memo for prepared in restored)

    def test_seeded_draws_match_built_draws(self, tmp_path):
        """Restored-from-seed evaluators draw byte-identical tables to
        freshly built ones -- restart warmth never changes outputs."""
        graph, config, request, Session = self._sessions(tmp_path)
        cold = Session(graph, config, seed=0).run(request)
        warm = Session(graph, config, seed=0).run(request)
        assert warm.result.trees == cold.result.trees
        assert [r.rounds for r in warm.result.results] == [
            r.rounds for r in cold.result.results
        ]
