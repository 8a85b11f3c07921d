"""Tests for the cross-sample derived-graph cache (engine layer 2).

The load-bearing property: the cache may only change wall-clock, never
outputs or round bills. Same-seed runs with and without the cache must
produce byte-identical trees and identical round charges, for both
sampler variants and both matmul backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.core import CongestedCliqueTreeSampler, SamplerConfig
from repro.engine import DerivedGraphCache, SamplerEngine
from repro.errors import ConfigError


class Sized:
    """Byte-sized stub entry for exercising the cache's byte accounting."""

    def __init__(self, size):
        self._size = size

    def nbytes(self):
        return self._size


def _draws(graph, config, variant, seed, count=4):
    sampler = CongestedCliqueTreeSampler(graph, config, variant=variant)
    return sampler.sample_many(count, np.random.default_rng(seed))


class TestCacheTransparency:
    @pytest.mark.parametrize("variant", ["approximate", "exact"])
    def test_same_trees_and_rounds_with_and_without_cache(self, variant):
        g = graphs.erdos_renyi_graph(20, rng=np.random.default_rng(7))
        cached = _draws(g, SamplerConfig(ell=1 << 10), variant, seed=5)
        uncached = _draws(
            g, SamplerConfig(ell=1 << 10, derived_cache=False), variant, seed=5
        )
        assert [r.tree for r in cached] == [r.tree for r in uncached]
        assert [r.rounds for r in cached] == [r.rounds for r in uncached]
        assert [r.rounds_by_category() for r in cached] == [
            r.rounds_by_category() for r in uncached
        ]

    @pytest.mark.parametrize("variant", ["approximate", "exact"])
    def test_transparency_with_simulated_backend(self, variant):
        """Measured (3D protocol) charges replay exactly on cache hits."""
        g = graphs.cycle_with_chord(12)
        base = dict(ell=1 << 9, matmul_backend="simulated-3d")
        cached = _draws(g, SamplerConfig(**base), variant, seed=3)
        uncached = _draws(
            g, SamplerConfig(**base, derived_cache=False), variant, seed=3
        )
        assert [r.tree for r in cached] == [r.tree for r in uncached]
        assert [r.rounds_by_category() for r in cached] == [
            r.rounds_by_category() for r in uncached
        ]

    def test_transparency_with_precision_bits(self):
        """Lemma 7 entry widths survive the replay charge recipe."""
        g = graphs.complete_graph(10)
        cached = _draws(
            g, SamplerConfig(ell=1 << 9, precision_bits=48), "approximate", 1
        )
        uncached = _draws(
            g,
            SamplerConfig(
                ell=1 << 9, precision_bits=48, derived_cache=False
            ),
            "approximate",
            1,
        )
        assert [r.tree for r in cached] == [r.tree for r in uncached]
        assert [r.rounds for r in cached] == [r.rounds for r in uncached]


class TestCacheBehavior:
    def test_phase_one_hits_across_draws(self):
        g = graphs.complete_graph(12)
        sampler = CongestedCliqueTreeSampler(g, SamplerConfig(ell=1 << 9))
        sampler.sample_many(5, np.random.default_rng(0))
        stats = sampler.engine.cache.stats()
        # Phase 1 runs on S = V every draw: at least draws-1 hits.
        assert stats["hits"] >= 4
        assert stats["misses"] >= 1

    def test_disabled_cache_is_none(self):
        g = graphs.path_graph(5)
        engine = SamplerEngine(g, SamplerConfig(ell=1 << 9, derived_cache=False))
        assert engine.cache is None
        engine.run(np.random.default_rng(0))  # still samples fine

    def test_external_cache_shared_between_engines(self):
        g = graphs.complete_graph(9)
        cache = DerivedGraphCache(max_entries=32)
        config = SamplerConfig(ell=1 << 9)
        a = SamplerEngine(g, config, cache=cache)
        b = SamplerEngine(g, config, cache=cache)
        a.run(np.random.default_rng(1))
        misses_after_a = cache.misses
        b.run(np.random.default_rng(2))
        # Engine b's phase 1 reuses engine a's entry.
        assert cache.hits >= 1
        assert cache.misses >= misses_after_a

    def test_shared_cache_isolates_different_graphs(self):
        """A shared cache must never serve another graph's numerics."""
        cache = DerivedGraphCache(max_entries=32)
        config = SamplerConfig(ell=1 << 9)
        g_a = graphs.complete_graph(9)
        g_b = graphs.wheel_graph(9)
        a = SamplerEngine(g_a, config, cache=cache)
        b = SamplerEngine(g_b, config, cache=cache)
        result_a = a.run(np.random.default_rng(1))
        hits_after_a = cache.hits
        result_b = b.run(np.random.default_rng(1))
        # Same n, same subsets -- but b must miss a's entries entirely.
        assert cache.hits == hits_after_a
        from repro.graphs import is_spanning_tree

        assert is_spanning_tree(g_a, result_a.tree)
        assert is_spanning_tree(g_b, result_b.tree)

    def test_shared_cache_isolates_different_configs(self):
        """Numerics-relevant config changes partition the shared cache."""
        cache = DerivedGraphCache(max_entries=32)
        g = graphs.complete_graph(9)
        a = SamplerEngine(g, SamplerConfig(ell=1 << 9), cache=cache)
        b = SamplerEngine(g, SamplerConfig(ell=1 << 10), cache=cache)
        a.run(np.random.default_rng(1))
        hits_after_a = cache.hits
        b.run(np.random.default_rng(1))
        assert cache.hits == hits_after_a  # different ell => no sharing

    @pytest.mark.parametrize(
        "override",
        [
            {"precision_bits": 48},
            {"normalizer_floor_exponent": 20.0},
            {"linalg_backend": "sparse"},
            {"extra": {"experiment": "A"}},
        ],
    )
    def test_fingerprint_covers_every_config_field(self, override):
        """Regression: the key is a *complete* config fingerprint.

        The old key hashed a hand-picked field list, so two sessions
        sharing a cache with configs differing in an unlisted
        numerics-affecting knob (precision/truncation, the linalg
        backend, user extras) exchanged stale PhaseNumerics. Any field
        difference must now partition the cache.
        """
        cache = DerivedGraphCache(max_entries=32)
        g = graphs.cycle_graph(9)
        base = SamplerEngine(g, SamplerConfig(ell=1 << 9), cache=cache)
        other = SamplerEngine(
            g, SamplerConfig(ell=1 << 9, **override), cache=cache
        )
        base.run(np.random.default_rng(1))
        hits_before = cache.hits
        other.run(np.random.default_rng(1))
        assert cache.hits == hits_before, override

    def test_identical_configs_still_share(self):
        """The complete fingerprint must not break legitimate sharing."""
        cache = DerivedGraphCache(max_entries=32)
        g = graphs.cycle_graph(9)
        config = SamplerConfig(ell=1 << 9, extra={"experiment": "A"})
        a = SamplerEngine(g, config, cache=cache)
        b = SamplerEngine(
            g, SamplerConfig(ell=1 << 9, extra={"experiment": "A"}),
            cache=cache,
        )
        a.run(np.random.default_rng(1))
        b.run(np.random.default_rng(2))
        assert cache.hits >= 1  # b reuses a's phase-1 entry

    @pytest.mark.parametrize(
        "override",
        [
            {"cache_dir": "ignored-dir"},
            {"cache_memory_bytes": 1 << 20},
            {"derived_cache_entries": 7},
        ],
    )
    def test_cache_behavior_fields_do_not_partition(self, override, tmp_path):
        """Regression: cache location/sizing must NOT partition the key.

        Two sessions pointed at one shared store with different byte
        budgets (or different cache_dir spellings) compute identical
        numerics; keying on those fields would make them unable to share
        a single entry -- defeating the disk tier entirely.
        """
        if "cache_dir" in override:
            override = {"cache_dir": str(tmp_path)}
        cache = DerivedGraphCache(max_entries=32)
        g = graphs.cycle_graph(9)
        base = SamplerEngine(g, SamplerConfig(ell=1 << 9), cache=cache)
        other = SamplerEngine(
            g, SamplerConfig(ell=1 << 9, **override), cache=cache
        )
        base.run(np.random.default_rng(1))
        hits_before = cache.hits
        other.run(np.random.default_rng(2))
        assert cache.hits > hits_before, override  # phase-1 entry shared

    def test_fingerprint_excludes_exactly_the_non_numerics_fields(self):
        """Every config field is either fingerprinted or non-numerics.

        The exclusion set is exactly the cache sizing/location knobs:
        they change which entries are kept, never the bytes inside them.
        """
        from dataclasses import fields

        from repro.engine.cache import CACHE_BEHAVIOR_FIELDS, config_fingerprint

        config = SamplerConfig(ell=1 << 9)
        fingerprint = config_fingerprint(
            config, resolved_ell=1 << 9, linalg_backend="dense"
        )
        for field in fields(config):
            appears = f"'{field.name}'" in fingerprint
            if field.name in CACHE_BEHAVIOR_FIELDS:
                assert not appears, field.name
            else:
                assert appears, field.name

    def test_fingerprint_is_pinned_for_existing_cache_volumes(self):
        """The fingerprint string keys every persisted entry, so it may
        only change with a deliberate cache-format break. This value
        predates the retirement of placement_mode (always excluded from
        the fingerprint): volumes written before it stay warm."""
        from repro.engine.cache import config_fingerprint

        assert config_fingerprint(
            SamplerConfig(ell=1 << 9), resolved_ell=512, linalg_backend="dense"
        ) == (
            "[('epsilon', '0.001'), ('rho', 'None'), ('ell', '512'), "
            "('on_failure', \"'extend'\"), "
            "('matching_method', \"'exact-dp'\"), "
            "('mcmc_steps', 'None'), ('precision_bits', 'None'), "
            "('matmul_backend', \"'analytic'\"), "
            "('linalg_backend', \"'auto'\"), "
            "('sparse_auto_min_n', '192'), "
            "('sparse_auto_density', '0.25'), "
            "('normalizer_floor_exponent', '40.0'), "
            "('start_vertex', '0'), ('max_extensions', '64'), "
            "('extra', '[]'), ('resolved_ell', '512'), "
            "('resolved_linalg', \"'dense'\")]"
        )

    def test_byte_budget_evicts_lru(self):
        cache = DerivedGraphCache(max_entries=64, max_bytes=100)
        cache.store(("a",), Sized(40))
        cache.store(("b",), Sized(40))
        assert cache.bytes_used == 80
        cache.lookup(("a",))  # refresh a: b becomes LRU
        cache.store(("c",), Sized(40))
        assert cache.evictions == 1
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) is not None
        assert cache.lookup(("c",)) is not None
        assert cache.bytes_used == 80
        assert cache.stats()["bytes"] == 80

    def test_oversized_entry_cannot_blow_past_budget(self):
        """One entry bigger than the whole budget never stays resident --
        and is refused at the door, so it cannot flush the resident
        working set on its way through either."""

        cache = DerivedGraphCache(max_entries=64, max_bytes=100)
        cache.store(("small",), Sized(60))
        cache.store(("huge",), Sized(1000))
        assert cache.bytes_used <= 100
        assert cache.lookup(("huge",)) is None
        assert cache.lookup(("small",)) is not None  # working set intact
        assert cache.evictions == 1
        # Re-storing an existing key with an oversized payload drops it.
        cache.store(("small",), Sized(1000))
        assert cache.lookup(("small",)) is None
        assert cache.bytes_used == 0

    def test_restore_same_key_reaccounts_bytes(self):
        cache = DerivedGraphCache(max_bytes=1000)
        cache.store(("k",), Sized(400))
        cache.store(("k",), Sized(100))
        assert cache.bytes_used == 100
        assert len(cache) == 1

    def test_phase_numerics_nbytes_counts_matrices_once(self):
        g = graphs.complete_graph(8)
        engine = SamplerEngine(g, SamplerConfig(ell=1 << 8))
        engine.run(np.random.default_rng(0))
        for numerics in engine.cache._entries.values():
            total = numerics.nbytes()
            assert total > 0
            # With bits=None the ladder's base power IS the transition
            # matrix; identity dedup must not double-count it.
            if numerics.ladder.power(1) is numerics.transition:
                from repro.linalg.backend import matrix_nbytes

                individual = matrix_nbytes(numerics.shortcut) + sum(
                    matrix_nbytes(numerics.ladder.power(k))
                    for k in numerics.ladder.exponents
                ) + matrix_nbytes(numerics.transition)
                assert total == individual - matrix_nbytes(
                    numerics.transition
                )

    def test_lru_eviction_bounds_entries(self):
        cache = DerivedGraphCache(max_entries=2)
        for key in [(1,), (2,), (3,)]:
            cache.store(key, object())
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.lookup((1,)) is None  # evicted (oldest)
        assert cache.lookup((3,)) is not None

    def test_clear_and_stats(self):
        cache = DerivedGraphCache()
        cache.store((0, 1), object())
        assert cache.stats()["entries"] == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup((0, 1)) is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigError):
            DerivedGraphCache(max_entries=0)
        with pytest.raises(ConfigError):
            SamplerConfig(derived_cache_entries=0)
