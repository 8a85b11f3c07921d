"""The v2 batched-randomness contract: accounting, determinism, hygiene.

The v2 contract replaces per-decision ``rng.choice(p=...)`` calls with
one uniform block per level (and per DP layer) resolved by
``searchsorted`` against precomputed CDFs. Its load-bearing properties:

1. **Stream accounting** -- a v2 draw makes O(levels + DP layers)
   generator invocations, not O(pairs + columns): the whole point of the
   contract. Counted with an instrumented ``Generator`` subclass.
2. **Determinism** -- v2 draws are byte-identical across ensemble
   job counts, cache tiers (cold / warm-memory / warm-disk), linalg
   backends, and plan warmth. The bits consumed depend only on the
   (seed, config numerics) pair, never on how the plan was populated.
3. **Normalize-once** -- plan-served laws are divided (v1) or cumsummed
   (v2) exactly once and memoized; the old per-draw renormalization on
   the hot path is pinned out.
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
    """A Generator that counts its own invocations (any drawing method)."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return super().random(*args, **kwargs)

    def choice(self, *args, **kwargs):
        self.calls += 1
        return super().choice(*args, **kwargs)

    def permutation(self, *args, **kwargs):
        self.calls += 1
        return super().permutation(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.calls += 1
        return super().integers(*args, **kwargs)


class TestConfigSurface:
    def test_default_is_v2(self):
        assert SamplerConfig().rng_contract == "v2"
        assert SamplerConfig().effective_rng_contract == "v2"

    def test_reference_mode_downgrades_to_v1(self):
        """v2 block draws hang off the PlacementPlan; reference mode has
        no plan, so its effective contract is always v1."""
        config = SamplerConfig(placement_mode="reference", rng_contract="v2")
        assert config.effective_rng_contract == "v1"

    def test_explicit_v1_stays_v1(self):
        config = SamplerConfig(rng_contract="v1")
        assert config.effective_rng_contract == "v1"

    def test_unknown_contract_rejected(self):
        with pytest.raises(ConfigError, match="rng contract"):
            SamplerConfig(rng_contract="v3")

    def test_contract_excluded_from_numerics_fingerprint(self):
        """v1 and v2 sessions share numerics cache entries: the contract
        changes which bits the walk layer consumes, never the derived
        graphs (same exclusion set as placement_mode)."""
        from repro.engine.cache import NON_NUMERICS_FIELDS, config_fingerprint

        assert "rng_contract" in NON_NUMERICS_FIELDS
        v1 = config_fingerprint(
            SamplerConfig(rng_contract="v1"),
            resolved_ell=1 << 8,
            linalg_backend="dense",
        )
        v2 = config_fingerprint(
            SamplerConfig(rng_contract="v2"),
            resolved_ell=1 << 8,
            linalg_backend="dense",
        )
        assert v1 == v2


class TestStreamAccounting:
    """v2 invocation counts scale with levels, not pairs or columns."""

    def _count(self, contract: str) -> tuple[int, int]:
        graph = graphs.complete_graph(16)
        config = SamplerConfig(ell=1 << 8, rng_contract=contract)
        engine = SamplerEngine(graph, config)
        engine.run(np.random.default_rng(0))  # warm the plan first
        rng = CountingGenerator(1)
        result = engine.run(rng)
        return rng.calls, result.phases

    def test_v2_is_block_scaled_v1_is_decision_scaled(self):
        v1_calls, __ = self._count("v1")
        v2_calls, phases = self._count("v2")
        # Structural ceiling: per phase, the v2 walk layer draws one
        # block per level for the midpoint bank, at most three blocks
        # per level for placement (DP table + expansion + multiset
        # shuffle), one end-vertex uniform, and one first-visit block
        # (measured 87 calls against a 240 ceiling at these sizes).
        levels = int(math.log2(1 << 8)) + 2
        assert v2_calls <= phases * (4 * levels + 8)
        # ...and the old contract pays per decision: the gap is the
        # speedup's source, so pin it wide (measured ~4.5x here).
        assert 3 * v2_calls < v1_calls

    def test_v2_counts_stable_across_warm_draws(self):
        """Plan warmth changes invocation counts by nothing at all."""
        graph = graphs.complete_graph(16)
        engine = SamplerEngine(
            graph, SamplerConfig(ell=1 << 8, rng_contract="v2")
        )
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
        assert config.effective_rng_contract == "v2"
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
            config = SamplerConfig(
                ell=1 << 8, rng_contract="v2", linalg_backend=backend
            )
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
    """Plan laws normalize (v1) or cumsum (v2) exactly once, ever."""

    @staticmethod
    def _half(n=6, seed=3):
        return np.random.default_rng(seed).uniform(0.01, 1.0, size=(n, n))

    def test_probabilities_memoized(self):
        plan = PlacementPlan()
        half = self._half()
        first, total1 = plan.probabilities(3, 0, 1, half)
        second, total2 = plan.probabilities(3, 0, 1, half)
        assert second is first  # the divide ran exactly once
        assert total1 == total2
        law, total = plan.law(3, 0, 1, half)
        np.testing.assert_array_equal(first, law / total)

    def test_cdf_memoized_and_unnormalized(self):
        plan = PlacementPlan()
        half = self._half()
        first, total = plan.cdf(3, 0, 1, half)
        second, __ = plan.cdf(3, 0, 1, half)
        assert second is first  # the cumsum ran exactly once
        law, law_total = plan.law(3, 0, 1, half)
        np.testing.assert_array_equal(first, np.cumsum(law))
        assert total == law_total  # the Section 5.2 floor sees v1's float

    def test_derived_memos_evict_with_their_law(self):
        plan = PlacementPlan(max_laws=1)
        half = self._half()
        plan.probabilities(1, 0, 1, half)
        plan.cdf(1, 0, 1, half)
        plan.law(1, 0, 2, half)  # evicts (1, 0, 1)
        assert (1, 0, 1) not in plan._probabilities
        assert (1, 0, 1) not in plan._cdfs

    def test_sample_midpoint_shares_one_normalization(self):
        """The fill hot path (sampler draw after draw over one plan)
        reuses the single cached normalized vector -- the per-draw
        renormalization regression this pins out."""
        from repro.walks.fill import sample_midpoint

        plan = PlacementPlan()
        half = self._half()
        rng = np.random.default_rng(0)
        sample_midpoint(half, 0, 1, rng, count=3, plan=plan, level=2)
        cached = plan._probabilities[(2, 0, 1)]
        sample_midpoint(half, 0, 1, rng, count=3, plan=plan, level=2)
        assert plan._probabilities[(2, 0, 1)] is cached
        assert plan.law_hits >= 1

    def test_unnormalized_input_normalizes_exactly_once(self):
        """An unnormalized law (sum far from 1) yields correctly scaled
        probabilities from the memo -- not a double divide, not none."""
        plan = PlacementPlan()
        half = self._half() * 37.0  # wildly unnormalized
        probabilities, total = plan.probabilities(2, 1, 4, half)
        assert abs(probabilities.sum() - 1.0) < 1e-12
        again, __ = plan.probabilities(2, 1, 4, half)
        assert again is probabilities
        assert abs(again.sum() - 1.0) < 1e-12  # a second divide would shrink it


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
