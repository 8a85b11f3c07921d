"""Tests for the parallel ensemble driver (engine layer 3)."""

from __future__ import annotations

import json
import multiprocessing
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import graphs
from repro.core import SamplerConfig
from repro.engine import (
    EnsembleEngine,
    EnsembleResult,
    SamplerEngine,
    sample_tree_ensemble,
)
from repro.errors import GraphError
from repro.graphs import is_spanning_tree

FAST = SamplerConfig(ell=1 << 10)


class TestSampleEnsemble:
    def test_count_and_validity(self):
        g = graphs.erdos_renyi_graph(16, rng=np.random.default_rng(1))
        result = sample_tree_ensemble(g, 6, config=FAST, seed=0, jobs=1)
        assert result.count == 6
        for tree in result.trees:
            assert is_spanning_tree(g, tree)

    def test_jobs_do_not_change_outputs(self):
        """Single- and multi-process runs are byte-identical per seed."""
        g = graphs.erdos_renyi_graph(16, rng=np.random.default_rng(2))
        single = sample_tree_ensemble(g, 8, config=FAST, seed=123, jobs=1)
        multi = sample_tree_ensemble(g, 8, config=FAST, seed=123, jobs=3)
        assert single.trees == multi.trees
        assert [r.rounds for r in single.results] == [
            r.rounds for r in multi.results
        ]

    def test_seed_reproducibility(self):
        g = graphs.cycle_with_chord(10)
        a = sample_tree_ensemble(g, 5, config=FAST, seed=9, jobs=1)
        b = sample_tree_ensemble(g, 5, config=FAST, seed=9, jobs=1)
        assert a.trees == b.trees
        assert a.entropy == b.entropy == 9

    def test_seed_shapes_accepted(self):
        g = graphs.cycle_graph(8)
        engine = EnsembleEngine(g, FAST)
        by_int = engine.sample_ensemble(3, seed=7, jobs=1)
        by_seq = engine.sample_ensemble(
            3, seed=np.random.SeedSequence(7), jobs=1
        )
        assert by_int.trees == by_seq.trees
        by_gen = engine.sample_ensemble(
            3, seed=np.random.default_rng(7), jobs=1
        )
        assert len(by_gen.trees) == 3
        # SeedSequence entropy may be a list; only scalar entropy is
        # reported back, but sampling must succeed either way.
        by_list = engine.sample_ensemble(
            3, seed=np.random.SeedSequence([1, 2]), jobs=1
        )
        assert len(by_list.trees) == 3
        assert by_list.entropy is None

    def test_draws_are_independent(self):
        g = graphs.complete_graph(7)
        result = sample_tree_ensemble(g, 16, config=FAST, seed=0, jobs=1)
        assert len(set(result.trees)) > 1

    def test_count_validation(self):
        g = graphs.path_graph(4)
        engine = EnsembleEngine(g, FAST)
        with pytest.raises(GraphError):
            engine.sample_ensemble(0)
        with pytest.raises(GraphError):
            engine.sample_ensemble(2, jobs=0)

    def test_variant_forwarded(self):
        g = graphs.cycle_with_chord(9)
        result = sample_tree_ensemble(
            g, 3, config=FAST, variant="exact", seed=1, jobs=1
        )
        for tree in result.trees:
            assert is_spanning_tree(g, tree)


class TestEnsembleResult:
    def test_diagnostics(self):
        g = graphs.complete_graph(8)
        result = sample_tree_ensemble(g, 4, config=FAST, seed=0, jobs=1)
        assert result.seconds > 0
        assert result.trees_per_second() > 0
        assert result.total_rounds() == sum(r.rounds for r in result.results)
        assert result.mean_rounds() == pytest.approx(
            result.total_rounds() / 4
        )
        assert result.jobs == 1
        assert result.cache_stats.get("hits", 0) >= 1  # warm phase-1 entry

    def test_empty_helpers_guarded(self):
        result = EnsembleResult(results=[], seconds=0.0, jobs=1)
        assert result.count == 0
        assert result.mean_rounds() == 0.0


class TestEnsembleEngineConstruction:
    def test_conflicting_overrides_rejected(self):
        g = graphs.path_graph(5)
        engine = SamplerEngine(g, FAST, variant="exact")
        with pytest.raises(GraphError):
            EnsembleEngine(engine, FAST)
        with pytest.raises(GraphError):
            EnsembleEngine(engine, variant="approximate")
        # Matching or omitted variant is fine.
        assert EnsembleEngine(engine).engine is engine
        assert EnsembleEngine(engine, variant="exact").engine is engine


class TestMultiprocessCacheStats:
    """Regression: jobs > 1 used to drop worker cache counters entirely."""

    def test_jobs2_stats_nonempty_and_sum_to_jobs1(self):
        """Per-worker counters come back and aggregate to the jobs=1 tally.

        Fresh engines on both sides so every run starts from a cold
        memory tier: total lookups (hits + misses) depend only on the
        draws, never on how they were sharded.
        """
        g = graphs.erdos_renyi_graph(16, rng=np.random.default_rng(5))
        single = EnsembleEngine(g, FAST).sample_ensemble(8, seed=3, jobs=1)
        multi = EnsembleEngine(g, FAST).sample_ensemble(8, seed=3, jobs=2)
        assert multi.trees == single.trees
        assert not multi.degraded
        assert multi.cache_stats, "jobs=2 must ship worker cache stats"
        for key in ("hits", "misses"):
            assert key in multi.cache_stats
        assert (
            multi.cache_stats["hits"] + multi.cache_stats["misses"]
            == single.cache_stats["hits"] + single.cache_stats["misses"]
        )

    def test_aggregate_counter_vs_gauge_split(self):
        from repro.engine.ensemble import aggregate_cache_stats

        merged = aggregate_cache_stats([
            {"hits": 2, "misses": 1, "entries": 7, "disk_bytes": 100},
            {"hits": 3, "misses": 0, "entries": 4, "disk_bytes": 250},
        ])
        # Counters sum; gauges (current footprint) take the max, since
        # every worker over one shared disk tier reports the same store.
        assert merged == {
            "hits": 5, "misses": 1, "entries": 7, "disk_bytes": 250
        }

    def test_iter_ensemble_fills_caller_stats(self):
        g = graphs.cycle_with_chord(10)
        for jobs in (1, 2):
            stats: dict = {}
            results = list(
                EnsembleEngine(g, FAST).iter_ensemble(
                    6, seed=4, jobs=jobs, stats=stats
                )
            )
            assert len(results) == 6
            assert stats["degraded"] is False
            assert stats.get("hits", 0) + stats.get("misses", 0) > 0


class TestPoolDegradation:
    """Regression: pool failures used to be swallowed silently."""

    @staticmethod
    def _broken_pool(monkeypatch):
        import repro.engine.ensemble as ensemble_module

        class _BrokenPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no process spawning here")

        monkeypatch.setattr(
            ensemble_module, "ProcessPoolExecutor", _BrokenPool
        )

    def test_batch_degrades_loudly_with_identical_trees(
        self, monkeypatch, caplog
    ):
        g = graphs.erdos_renyi_graph(14, rng=np.random.default_rng(8))
        healthy = EnsembleEngine(g, FAST).sample_ensemble(5, seed=2, jobs=1)
        self._broken_pool(monkeypatch)
        with caplog.at_level("WARNING", logger="repro.engine.ensemble"):
            degraded = EnsembleEngine(g, FAST).sample_ensemble(
                5, seed=2, jobs=2
            )
        assert degraded.trees == healthy.trees
        assert degraded.degraded is True
        assert all(result.degraded for result in degraded.results)
        assert degraded.cache_stats  # local engine's counters, not {}
        assert any(
            "degraded to sequential" in record.message
            for record in caplog.records
        )

    def test_stream_degrades_loudly_and_flags_results(
        self, monkeypatch, caplog
    ):
        g = graphs.cycle_with_chord(9)
        healthy = list(
            EnsembleEngine(g, FAST).iter_ensemble(4, seed=6, jobs=1)
        )
        self._broken_pool(monkeypatch)
        stats: dict = {}
        with caplog.at_level("WARNING", logger="repro.engine.ensemble"):
            streamed = list(
                EnsembleEngine(g, FAST).iter_ensemble(
                    4, seed=6, jobs=2, stats=stats
                )
            )
        assert [r.tree for r in streamed] == [r.tree for r in healthy]
        assert stats["degraded"] is True
        assert all(result.degraded for result in streamed)
        assert any(
            "ensemble stream degraded" in record.message
            for record in caplog.records
        )

    def test_degraded_key_absent_from_healthy_wire_form(self):
        """Healthy results keep their exact pre-flag wire form."""
        g = graphs.path_graph(6)
        result = EnsembleEngine(g, FAST).sample_ensemble(
            1, seed=0, jobs=1
        ).results[0]
        assert "degraded" not in result.to_dict()
        result.degraded = True
        payload = result.to_dict()
        assert payload["degraded"] is True
        from repro.engine.results import SampleResult

        assert SampleResult.from_dict(payload).degraded is True
        del payload["degraded"]
        assert SampleResult.from_dict(payload).degraded is False


def _bill(results):
    """Everything a draw delivers: tree, rounds, full ledger, flag."""
    return [
        (
            result.tree,
            result.rounds,
            json.dumps(result.ledger.to_dict(), sort_keys=True),
            result.degraded,
        )
        for result in results
    ]


class _PoolBreakingOnSecondChunk:
    """Runs the first chunk in-process; every later chunk's pool broke."""

    def __init__(self):
        self.submitted = 0
        self.shutdowns = []

    def submit(self, fn, payload):
        self.submitted += 1
        future = Future()
        if self.submitted == 1:
            future.set_result(fn(payload))
        else:
            future.set_exception(BrokenProcessPool("worker died"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))


class TestOneFanOut:
    """``sample_ensemble`` is ``iter_ensemble`` collected: one fan-out."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_equals_collected_stream(self, jobs):
        g = graphs.erdos_renyi_graph(14, rng=np.random.default_rng(11))
        batch = EnsembleEngine(g, FAST).sample_ensemble(6, seed=5, jobs=jobs)
        streamed = list(
            EnsembleEngine(g, FAST).iter_ensemble(6, seed=5, jobs=jobs)
        )
        assert _bill(batch.results) == _bill(streamed)
        assert batch.degraded is False
        assert not any(result.degraded for result in streamed)

    def test_pool_breaking_mid_batch_keeps_the_delivered_prefix(
        self, monkeypatch, caplog
    ):
        g = graphs.erdos_renyi_graph(14, rng=np.random.default_rng(12))
        healthy = EnsembleEngine(g, FAST).sample_ensemble(16, seed=4, jobs=1)
        pool = _PoolBreakingOnSecondChunk()
        monkeypatch.setattr(
            EnsembleEngine, "_pool", staticmethod(lambda jobs: pool)
        )
        with caplog.at_level("WARNING", logger="repro.engine.ensemble"):
            broken = EnsembleEngine(g, FAST).sample_ensemble(
                16, seed=4, jobs=2
            )
        # ceil(16 / (4 * 2)) = 2 draws per chunk: chunk 1 was delivered.
        prefix = 2
        assert broken.trees == healthy.trees
        assert broken.degraded is True
        assert [result.degraded for result in broken.results] == (
            [False] * prefix + [True] * (16 - prefix)
        )
        for result in broken.results:
            result.degraded = False
        assert _bill(broken.results) == _bill(healthy.results)
        assert broken.cache_stats  # prefix worker + local suffix counters
        warnings = [
            record for record in caplog.records
            if record.levelname == "WARNING"
        ]
        assert len(warnings) == 1
        assert "delivered=2" in warnings[0].getMessage()
        assert pool.shutdowns == [(False, True)]


class TestPoolTeardown:
    """Delivered streams join their workers; abandoned ones do not wait."""

    @staticmethod
    def _graph():
        return graphs.erdos_renyi_graph(16, rng=np.random.default_rng(13))

    def test_batch_joins_its_workers(self):
        before = set(multiprocessing.active_children())
        EnsembleEngine(self._graph(), FAST).sample_ensemble(4, seed=1, jobs=2)
        assert set(multiprocessing.active_children()) <= before

    def test_drained_stream_joins_its_workers(self):
        before = set(multiprocessing.active_children())
        list(
            EnsembleEngine(self._graph(), FAST).iter_ensemble(
                4, seed=1, jobs=2
            )
        )
        assert set(multiprocessing.active_children()) <= before

    def test_close_after_first_result_returns_promptly(self):
        g = graphs.complete_graph(32)
        stream = EnsembleEngine(g, FAST).iter_ensemble(80, seed=1, jobs=2)
        next(stream)  # chunk 1 of 8 (10 draws each) has landed
        start = time.perf_counter()
        stream.close()
        # Joining would wait out the chunks already running in both
        # workers (10 draws each); cancelling returns at once.
        assert time.perf_counter() - start < 0.5
