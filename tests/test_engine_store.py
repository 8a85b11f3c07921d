"""Tests for the tiered persistent derived-graph store (engine.store).

The load-bearing properties:

1. Reproducibility -- the disk tier cold, warm, or disabled never changes
   sampled trees or round ledgers (extends the in-memory cache's
   transparency contract across process "restarts").
2. Robustness -- corrupt blobs, corrupt indexes, and crashes mid-write
   degrade to cache misses, never to wrong numerics or exceptions.
3. Accounting -- byte budgets bound both tiers, and the per-tier
   counters surface end-to-end.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import graphs
from repro.core import SamplerConfig
from repro.engine import (
    DerivedGraphCache,
    DiskTier,
    SamplerEngine,
    TieredPhaseStore,
    open_phase_store,
    resolve_cache_root,
    sample_tree_ensemble,
)
from repro.engine.store import key_digest
from repro.errors import ConfigError


def _config(tmp_path=None, **overrides):
    base = dict(ell=1 << 9)
    if tmp_path is not None:
        base["cache_dir"] = str(tmp_path)
    base.update(overrides)
    return SamplerConfig(**base)


def _run(graph, config, seed, variant="approximate"):
    engine = SamplerEngine(graph, config, variant=variant)
    result = engine.run(np.random.default_rng(seed))
    return result, engine


# ---------------------------------------------------------------------------
# Reproducibility: cold / warm-memory / warm-disk / disabled
# ---------------------------------------------------------------------------


class TestTieredTransparency:
    @pytest.mark.parametrize("family", ["cycle", "complete", "grid", "gnp"])
    @pytest.mark.parametrize("variant", ["approximate", "exact"])
    def test_cold_warm_disk_disabled_identical(self, tmp_path, family, variant):
        """Byte-identical trees + identical ledgers across all cache modes."""
        from repro.graphs.families import build_family

        graph, __ = build_family(family, 16, np.random.default_rng(2))
        disabled, __ = _run(
            graph, _config(derived_cache=False), 9, variant
        )
        memory_only, __ = _run(graph, _config(), 9, variant)
        cold_disk, cold_engine = _run(graph, _config(tmp_path), 9, variant)
        _run(graph, _config(tmp_path), 9, variant)  # admits later phases
        warm_disk, warm_engine = _run(graph, _config(tmp_path), 9, variant)

        results = [disabled, memory_only, cold_disk, warm_disk]
        assert len({r.tree for r in results}) == 1
        assert len({r.rounds for r in results}) == 1
        reference = disabled.rounds_by_category()
        for result in results[1:]:
            assert result.rounds_by_category() == reference
        # The warm engine really did serve from disk, not recompute.
        assert cold_engine.cache.stats()["spills"] > 0
        assert warm_engine.cache.stats()["disk_hits"] > 0
        assert warm_engine.cache.stats()["misses"] == 0

    def test_sparse_numerics_roundtrip_identical(self, tmp_path):
        """CSR entries survive the .npz round trip bit-for-bit."""
        graph = graphs.cycle_graph(36)
        config = _config(tmp_path, linalg_backend="sparse")
        cold, __ = _run(graph, config, 4)
        warm, warm_engine = _run(graph, config, 4)
        assert cold.tree == warm.tree
        assert cold.rounds == warm.rounds
        assert warm_engine.cache.stats()["disk_hits"] > 0

    def test_precision_bits_survive_restart(self, tmp_path):
        """Lemma 7 charge recipes (entry words) replay from disk."""
        graph = graphs.complete_graph(10)
        config = _config(tmp_path, precision_bits=48)
        cold, __ = _run(graph, config, 1)
        warm, __ = _run(graph, config, 1)
        assert cold.tree == warm.tree
        assert cold.rounds_by_category() == warm.rounds_by_category()

    def test_simulated_3d_charges_replay_from_disk(self, tmp_path):
        """Measured (3D protocol) round bills replay across restarts."""
        graph = graphs.cycle_with_chord(12)
        config = _config(tmp_path, matmul_backend="simulated-3d")
        cold, __ = _run(graph, config, 3)
        warm, __ = _run(graph, config, 3)
        assert cold.tree == warm.tree
        assert cold.rounds_by_category() == warm.rounds_by_category()


# ---------------------------------------------------------------------------
# Multiprocess warm starts (satellite: ensemble workers share the disk tier)
# ---------------------------------------------------------------------------


class TestMultiprocessWarmStart:
    def test_jobs_and_cache_modes_agree(self, tmp_path):
        """jobs>1 over a shared cache_dir == jobs=1 == cold cacheless run."""
        graph = graphs.cycle_graph(14)
        shared = _config(tmp_path)
        cold = sample_tree_ensemble(
            graph, 6, config=_config(derived_cache=False), seed=5, jobs=1
        )
        serial = sample_tree_ensemble(graph, 6, config=shared, seed=5, jobs=1)
        parallel = sample_tree_ensemble(graph, 6, config=shared, seed=5, jobs=2)
        assert cold.trees == serial.trees == parallel.trees
        assert [r.rounds for r in cold.results] == [
            r.rounds for r in serial.results
        ] == [r.rounds for r in parallel.results]
        # The shared directory holds the spilled numerics afterwards.
        assert DiskTier(tmp_path).entry_count() > 0

    def test_restarted_ensemble_hits_disk(self, tmp_path):
        """A same-seed rerun in a fresh 'process' serves from the disk tier."""
        graph = graphs.cycle_graph(14)
        config = _config(tmp_path)
        first = sample_tree_ensemble(graph, 4, config=config, seed=8, jobs=1)
        engine = SamplerEngine(graph, config)
        driver_result = sample_tree_ensemble(
            graph, 4, config=config, seed=8, jobs=1
        )
        assert first.trees == driver_result.trees
        warm_engine = SamplerEngine(graph, config)
        warm_engine.run(np.random.default_rng(0))
        assert warm_engine.cache.stats()["disk_hits"] > 0
        assert engine.cache.stats()["disk_entries"] > 0


# ---------------------------------------------------------------------------
# DiskTier robustness: corruption, crashes, races
# ---------------------------------------------------------------------------


def _make_numerics(graph=None, n=8, subset=None):
    """A real PhaseNumerics via a cold engine build."""
    graph = graph if graph is not None else graphs.complete_graph(n)
    engine = SamplerEngine(graph, SamplerConfig(ell=1 << 8))
    engine.run(np.random.default_rng(0))
    cache = engine.cache
    key, numerics = next(iter(cache._entries.items()))
    return key, numerics


class TestDiskTierRobustness:
    def test_roundtrip(self, tmp_path):
        key, numerics = _make_numerics()
        tier = DiskTier(tmp_path)
        assert tier.store(key, numerics) is True
        loaded = tier.lookup(key)
        assert loaded is not None
        np.testing.assert_array_equal(
            np.asarray(loaded.shortcut), np.asarray(numerics.shortcut)
        )
        np.testing.assert_array_equal(
            np.asarray(loaded.transition), np.asarray(numerics.transition)
        )
        assert loaded.order == numerics.order
        assert loaded.ladder.exponents == numerics.ladder.exponents
        for k in numerics.ladder.exponents:
            np.testing.assert_array_equal(
                np.asarray(loaded.ladder.power(k)),
                np.asarray(numerics.ladder.power(k)),
            )

    def test_duplicate_store_is_noop(self, tmp_path):
        key, numerics = _make_numerics()
        tier = DiskTier(tmp_path)
        assert tier.store(key, numerics) is True
        assert tier.store(key, numerics) is False
        assert tier.entry_count() == 1

    def test_missing_entry_is_miss(self, tmp_path):
        tier = DiskTier(tmp_path)
        assert tier.lookup(("nope", (1, 2, 3))) is None
        assert tier.misses == 1

    def test_truncated_blob_is_miss_not_crash(self, tmp_path):
        key, numerics = _make_numerics()
        tier = DiskTier(tmp_path)
        tier.store(key, numerics)
        entry_dir = tier.blobs / key_digest(key)
        blob = next(p for p in entry_dir.iterdir() if p.suffix == ".npy")
        blob.write_bytes(blob.read_bytes()[:16])  # truncate mid-header
        assert tier.lookup(key) is None
        # The broken entry was dropped; a fresh store repairs it.
        assert tier.store(key, numerics) is True
        assert tier.lookup(key) is not None

    def test_corrupt_meta_is_miss(self, tmp_path):
        key, numerics = _make_numerics()
        tier = DiskTier(tmp_path)
        tier.store(key, numerics)
        (tier.blobs / key_digest(key) / "meta.json").write_text("{not json")
        assert tier.lookup(key) is None

    def test_unknown_version_is_miss(self, tmp_path):
        key, numerics = _make_numerics()
        tier = DiskTier(tmp_path)
        tier.store(key, numerics)
        meta_path = tier.blobs / key_digest(key) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 99
        meta_path.write_text(json.dumps(meta))
        assert tier.lookup(key) is None

    def test_corrupt_index_rebuilt_from_blobs(self, tmp_path):
        key, numerics = _make_numerics()
        tier = DiskTier(tmp_path)
        tier.store(key, numerics)
        (tmp_path / "index.json").write_text("][ definitely not json")
        assert tier.total_bytes() > 0  # rebuilt by scanning
        assert tier.lookup(key) is not None

    def test_crash_mid_write_leaves_consistent_store(self, tmp_path, monkeypatch):
        """A writer dying before the atomic rename publishes nothing."""
        key, numerics = _make_numerics()
        tier = DiskTier(tmp_path)

        def crash(src, dst):
            raise OSError("injected crash before rename")

        monkeypatch.setattr(os, "rename", crash)
        assert tier.store(key, numerics) is False
        monkeypatch.undo()
        # Nothing half-written is visible; index stays consistent.
        assert tier.lookup(key) is None
        assert tier.entry_count() == 0
        assert tier.total_bytes() == 0
        # Recovery needs no cleanup step.
        assert tier.store(key, numerics) is True
        assert tier.lookup(key) is not None

    def test_orphaned_blob_dir_does_not_wedge_the_digest(self, tmp_path):
        """A blob dir that lost its meta.json must be repairable.

        Regression: store() used to rename onto the non-empty debris
        directory, fail with ENOTEMPTY forever, and the key recomputed
        on every run with no way to heal.
        """
        key, numerics = _make_numerics()
        tier = DiskTier(tmp_path)
        tier.store(key, numerics)
        entry_dir = tier.blobs / key_digest(key)
        (entry_dir / "meta.json").unlink()  # half-deleted entry
        assert tier.lookup(key) is None
        assert tier.store(key, numerics) is True  # debris cleared, republished
        assert tier.lookup(key) is not None

    def test_corruption_cleanup_drops_index_record(self, tmp_path):
        """No phantom bytes: a discarded blob leaves the ledger too."""
        key, numerics = _make_numerics()
        tier = DiskTier(tmp_path)
        tier.store(key, numerics)
        assert tier.total_bytes() > 0
        (tier.blobs / key_digest(key) / "meta.json").write_text("{broken")
        assert tier.lookup(key) is None  # triggers discard
        assert tier.total_bytes() == 0
        assert tier.entry_count() == 0

    def test_hits_do_not_rewrite_the_index(self, tmp_path):
        """The hot read path touches meta.json mtimes, never index.json."""
        key, numerics = _make_numerics()
        tier = DiskTier(tmp_path)
        tier.store(key, numerics)
        index_path = tmp_path / "index.json"
        before = index_path.stat().st_mtime_ns
        for _ in range(3):
            assert tier.lookup(key) is not None
        assert index_path.stat().st_mtime_ns == before

    def test_leftover_tmp_dir_is_invisible(self, tmp_path):
        """Crash leftovers are not entries and don't break the index."""
        tier = DiskTier(tmp_path)
        leftover = tier.blobs / ".tmp-deadbeef-1-1"
        leftover.mkdir()
        (leftover / "shortcut.npy").write_bytes(b"partial")
        assert tier.entry_count() == 0
        assert tier.total_bytes() == 0
        key, numerics = _make_numerics()
        assert tier.store(key, numerics) is True

    def test_csr_blob_without_scipy_is_miss_not_deletion(self, tmp_path, monkeypatch):
        """A scipy-less reader must not destroy a peer's valid CSR blobs."""
        engine = SamplerEngine(
            graphs.cycle_graph(24),
            SamplerConfig(ell=1 << 8, linalg_backend="sparse"),
        )
        engine.run(np.random.default_rng(0))
        key, numerics = next(iter(engine.cache._entries.items()))
        tier = DiskTier(tmp_path)
        assert tier.store(key, numerics) is True
        import repro.engine.store as store_module

        monkeypatch.setattr(store_module, "HAVE_SCIPY", False)
        assert tier.lookup(key) is None  # plain miss...
        monkeypatch.undo()
        assert tier.lookup(key) is not None  # ...entry left for scipy readers

    def test_rename_race_loser_discards_tmp(self, tmp_path):
        """Two workers publishing the same digest: one wins, no debris."""
        key, numerics = _make_numerics()
        a = DiskTier(tmp_path)
        b = DiskTier(tmp_path)
        assert a.store(key, numerics) is True
        assert b.store(key, numerics) is False  # sees the published entry
        assert a.entry_count() == 1
        assert not any(
            p.name.startswith(".tmp-") for p in a.blobs.iterdir()
        )

    def test_disk_byte_budget_evicts_lru(self, tmp_path):
        graph = graphs.complete_graph(8)
        engine = SamplerEngine(graph, SamplerConfig(ell=1 << 8))
        engine.run(np.random.default_rng(0))
        entries = list(engine.cache._entries.items())[:3]
        assert len(entries) == 3
        probe = DiskTier(tmp_path / "probe")
        for key, numerics in entries:
            probe.store(key, numerics)
        total = probe.total_bytes()
        assert total > 0
        budget = total - 1  # can't hold all three
        tier = DiskTier(tmp_path / "real", max_bytes=budget)
        for key, numerics in entries:
            tier.store(key, numerics)
        assert tier.evictions >= 1
        assert tier.total_bytes() <= budget
        # LRU: the first-stored entry went first.
        assert tier.lookup(entries[0][0]) is None

    def test_oversized_entry_refused_keeps_working_set(self, tmp_path):
        """Mirror of the RAM tier: a blob bigger than the whole budget
        must not flush every resident blob on its way through."""
        key, numerics = _make_numerics()
        probe = DiskTier(tmp_path / "probe")
        probe.store(key, numerics)
        entry_bytes = probe.total_bytes()
        tier = DiskTier(tmp_path / "real", max_bytes=entry_bytes - 1)
        assert tier.store(key, numerics) is False
        assert tier.entry_count() == 0
        assert tier.evictions == 0
        assert not any(
            p.name.startswith(".tmp-") for p in tier.blobs.iterdir()
        )

    def test_lost_index_record_heals_on_touch(self, tmp_path):
        """Concurrent index races (last write wins) must self-heal.

        A record dropped from index.json while its blob stays published
        would otherwise be invisible to byte accounting and eviction
        forever; a lookup hit or duplicate store re-registers it.
        """
        key, numerics = _make_numerics()
        tier = DiskTier(tmp_path)
        tier.store(key, numerics)
        recorded = tier.total_bytes()
        (tmp_path / "index.json").write_text("{}")  # simulated lost write
        assert tier.total_bytes() == 0
        assert tier.lookup(key) is not None  # hit heals the ledger
        assert tier.total_bytes() == recorded
        (tmp_path / "index.json").write_text("{}")
        assert tier.store(key, numerics) is False  # duplicate store heals too
        assert tier.total_bytes() == recorded

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            DiskTier(tmp_path, max_bytes=0)


# ---------------------------------------------------------------------------
# TTL expiry (cache --prune-expired)
# ---------------------------------------------------------------------------


class TestPruneExpired:
    @staticmethod
    def _populate(tmp_path, n=8):
        """Two published entries (phase 1 + a later phase) via a real run."""
        graph = graphs.complete_graph(n)
        engine = SamplerEngine(graph, _config(tmp_path))
        engine.run(np.random.default_rng(0))
        return DiskTier(tmp_path)

    @staticmethod
    def _backdate(tier, digest, age_seconds):
        clock = os.stat(tier.blobs / digest / "meta.json").st_mtime
        stamp = clock - age_seconds
        os.utime(tier.blobs / digest / "meta.json", (stamp, stamp))

    def test_expired_entries_go_fresh_entries_stay(self, tmp_path):
        self._populate(tmp_path)  # first sighting of the later phases
        tier = self._populate(tmp_path)
        digests = sorted(d.name for d in tier.blobs.iterdir())
        assert len(digests) >= 2
        self._backdate(tier, digests[0], 10 * 86400)
        removed = tier.prune_expired(7 * 86400.0)
        assert removed == 1
        assert digests[0] not in {d.name for d in tier.blobs.iterdir()}
        assert tier.entry_count() == len(digests) - 1
        # Nothing else is within the window: a second sweep is a no-op.
        assert tier.prune_expired(7 * 86400.0) == 0

    def test_hit_refreshes_the_clock(self, tmp_path):
        """An entry read after backdating is no longer expired: the TTL
        clock is recency of *use*, not creation time."""
        key, numerics = _make_numerics()
        tier = DiskTier(tmp_path)
        tier.store(key, numerics)
        digest = key_digest(key)
        self._backdate(tier, digest, 10 * 86400)
        assert tier.lookup(key) is not None  # touches meta.json
        assert tier.prune_expired(7 * 86400.0) == 0
        assert tier.entry_count() == 1

    def test_phantom_records_are_expired(self, tmp_path):
        """A ledger record whose directory vanished counts as expired and
        is dropped without disturbing live entries."""
        import shutil

        tier = self._populate(tmp_path)
        digests = sorted(d.name for d in tier.blobs.iterdir())
        shutil.rmtree(tier.blobs / digests[0])
        assert digests[0] in tier._read_index()  # ledger remembers it
        removed = tier.prune_expired(365 * 86400.0)
        assert removed == 1
        assert digests[0] not in tier._read_index()
        assert tier.entry_count() == len(digests) - 1

    def test_corrupt_index_rebuilds_before_expiry(self, tmp_path):
        tier = self._populate(tmp_path)
        entries = tier.entry_count()
        (tmp_path / "index.json").write_text("{{{ not json")
        assert tier.prune_expired(7 * 86400.0) == 0
        assert tier.entry_count() == entries

    def test_zero_ttl_expires_everything_stale(self, tmp_path):
        tier = self._populate(tmp_path)
        entries = tier.entry_count()
        # All clocks are in the past (if only by microseconds).
        assert tier.prune_expired(0.0) == entries
        assert tier.entry_count() == 0

    def test_invalid_ttl_rejected(self, tmp_path):
        tier = DiskTier(tmp_path)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                tier.prune_expired(bad)


# ---------------------------------------------------------------------------
# TieredPhaseStore composition
# ---------------------------------------------------------------------------


class TestTieredPhaseStore:
    def test_promote_and_write_through(self, tmp_path):
        key, numerics = _make_numerics()
        store = TieredPhaseStore(
            DerivedGraphCache(max_entries=4), DiskTier(tmp_path)
        )
        store.store(key, numerics)
        assert store.stats()["spills"] == 1
        # Memory hit: no disk traffic.
        assert store.lookup(key) is not None
        assert store.stats()["hits"] == 1
        assert store.stats()["disk_hits"] == 0
        # Drop RAM (simulated restart): next lookup promotes from disk.
        store.clear()
        assert store.lookup(key) is not None
        stats = store.stats()
        assert stats["disk_hits"] == 1
        assert stats["promotes"] == 1
        assert stats["misses"] == 0
        # Promoted entry is resident again.
        assert len(store) == 1

    def test_full_miss_counts_once(self, tmp_path):
        store = TieredPhaseStore(DerivedGraphCache(), DiskTier(tmp_path))
        assert store.lookup(("absent", (0,))) is None
        stats = store.stats()
        assert stats["misses"] == 1
        assert stats["disk_hits"] == 0

    def test_memory_eviction_keeps_disk_copy(self, tmp_path):
        graph = graphs.complete_graph(8)
        engine = SamplerEngine(graph, SamplerConfig(ell=1 << 8))
        engine.run(np.random.default_rng(0))
        entries = list(engine.cache._entries.items())[:3]
        store = TieredPhaseStore(
            DerivedGraphCache(max_entries=1), DiskTier(tmp_path)
        )
        for key, numerics in entries:
            store.store(key, numerics)
        assert len(store) == 1  # RAM holds only the most recent
        # Everything is still served (from disk, via promote).
        for key, __ in entries:
            assert store.lookup(key) is not None

    def test_open_phase_store_shapes(self, tmp_path):
        assert open_phase_store(SamplerConfig(derived_cache=False)) is None
        memory = open_phase_store(SamplerConfig())
        assert isinstance(memory, DerivedGraphCache)
        tiered = open_phase_store(SamplerConfig(cache_dir=str(tmp_path)))
        assert isinstance(tiered, TieredPhaseStore)
        assert tiered.disk.root == tmp_path

    def test_budgets_flow_from_config(self, tmp_path):
        store = open_phase_store(
            SamplerConfig(
                cache_dir=str(tmp_path),
                cache_memory_bytes=12345,
                cache_disk_bytes=67890,
                derived_cache_entries=7,
            )
        )
        assert store.memory.max_bytes == 12345
        assert store.memory.max_entries == 7
        assert store.disk.max_bytes == 67890


# ---------------------------------------------------------------------------
# cache_dir resolution + config validation
# ---------------------------------------------------------------------------


class TestCacheDirConfig:
    def test_resolve_explicit_path(self, tmp_path):
        assert resolve_cache_root(str(tmp_path)) == tmp_path

    def test_resolve_auto_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envroot"))
        assert resolve_cache_root("auto") == tmp_path / "envroot"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        default = resolve_cache_root("auto")
        assert default.name == "repro-spanning-trees"

    def test_cache_dir_requires_derived_cache(self, tmp_path):
        with pytest.raises(ConfigError):
            SamplerConfig(cache_dir=str(tmp_path), derived_cache=False)

    def test_disk_budget_requires_cache_dir(self):
        with pytest.raises(ConfigError):
            SamplerConfig(cache_disk_bytes=1 << 20)

    def test_invalid_budgets_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            SamplerConfig(cache_memory_bytes=0)
        with pytest.raises(ConfigError):
            SamplerConfig(cache_dir=str(tmp_path), cache_disk_bytes=0)
        with pytest.raises(ConfigError):
            SamplerConfig(cache_dir="  ")
