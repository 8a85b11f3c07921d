"""Session API tests: lifecycle, streaming identity, presets, dispatch.

The acceptance bar for the session layer: every request kind executes
through one `Session`, streaming yields byte-identical trees and round
bills to the batch path for the same seed, and the shared derived-graph
cache/RNG lineage behave as documented.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.api import (
    AuditRequest,
    EnsembleRequest,
    PageRankRequest,
    PRESETS,
    RoundBillRequest,
    SampleRequest,
    Session,
    get_preset,
    preset_config,
    request_from_dict,
    resolve_config,
)
from repro.core import SamplerConfig
from repro.errors import ConfigError, ReproError

CONFIG = "fast-audit"


@pytest.fixture
def session() -> Session:
    return Session(graphs.cycle_graph(6), CONFIG, seed=11)


class TestSessionLifecycle:
    def test_run_sample(self, session):
        response = session.run(SampleRequest(seed=5))
        assert response.kind == "sample"
        assert len(response.result.tree) == 5
        assert response.result.rounds > 0
        assert response.meta["n"] == 6
        assert response.meta["seconds"] >= 0

    def test_exact_and_approximate_share_one_cache(self, session):
        session.run(SampleRequest(variant="approximate", seed=1))
        assert session.cache_stats()["misses"] > 0
        before = session.cache_stats()["hits"]
        # Phase 1 numerics (S = V) are variant-independent; the exact
        # engine must warm-start from the approximate engine's entries.
        session.run(SampleRequest(variant="exact", seed=2))
        assert session.cache_stats()["hits"] > before

    def test_seedless_requests_consume_lineage(self, session):
        first = session.run(SampleRequest())
        second = session.run(SampleRequest())
        # Lineage children differ, and sessions opened with the same root
        # seed replay the same lineage.
        replay = Session(graphs.cycle_graph(6), CONFIG, seed=11)
        assert replay.run(SampleRequest()).result.tree == first.result.tree
        assert replay.run(SampleRequest()).result.tree == second.result.tree

    def test_explicit_seed_is_history_independent(self, session):
        session.run(SampleRequest())  # advance the lineage
        pinned = session.run(SampleRequest(seed=42))
        fresh = Session(graphs.cycle_graph(6), CONFIG).run(
            SampleRequest(seed=42)
        )
        assert pinned.result.tree == fresh.result.tree
        assert pinned.result.rounds == fresh.result.rounds

    def test_fastcover_variant(self, session):
        response = session.run(SampleRequest(variant="fastcover", seed=3))
        assert response.kind == "sample"
        assert len(response.result.tree) == 5
        assert response.result.walk_length > 0

    def test_roundbill(self, session):
        response = session.run(RoundBillRequest(seed=0))
        bill = response.result
        assert bill.approximate_rounds > 0
        assert bill.exact_rounds > 0
        assert bill.fastcover_rounds > 0
        assert response.meta["m"] == 6

    @pytest.mark.parametrize(
        "family,n,matmul,expected",
        [
            ("wheel", 12, "analytic", dict(
                approximate_rounds=1933, approximate_phases=6,
                exact_rounds=3491, exact_phases=11,
                fastcover_rounds=1411, fastcover_walk_length=256,
                broadcast_rounds=684, broadcast_phases=1,
            )),
            # Broadcast cannot run under simulated-3d: its columns stay 0.
            ("cycle", 8, "simulated-3d", dict(
                approximate_rounds=1928, approximate_phases=7,
                exact_rounds=2009, exact_phases=7,
                fastcover_rounds=1514, fastcover_walk_length=256,
                broadcast_rounds=0, broadcast_phases=0,
            )),
        ],
        ids=["wheel-analytic", "cycle-simulated-3d"],
    )
    def test_roundbill_golden(self, family, n, matmul, expected):
        """A pinned-seed bill: every registry variant draws from one
        stream in registry order, so the columns depend on that order.
        Regenerated once per RNG-contract break, last for "v3" (see
        tests/README.md)."""
        from repro.api.responses import RoundBillReport
        from repro.graphs.families import build_family

        graph, __ = build_family(family, n, np.random.default_rng(7))
        config = preset_config(CONFIG, matmul_backend=matmul)
        report = Session(graph, config, seed=0).run(
            RoundBillRequest(seed=7)
        ).result
        assert report == RoundBillReport(**expected)

    def test_audit_uniform_on_cycle(self, session):
        response = session.run(AuditRequest(samples=100, seed=2))
        assert response.result.spanning_trees == 6
        assert response.result.verdict in ("UNIFORM", "BIASED")
        assert response.result.noise_floor > 0

    def test_audit_refuses_huge_enumeration(self):
        session = Session(graphs.complete_graph(16), CONFIG)
        with pytest.raises(ReproError, match="smaller instance"):
            session.run(AuditRequest(samples=10))

    def test_pagerank(self, session):
        response = session.run(
            PageRankRequest(walks_per_vertex=8, seed=1)
        )
        assert len(response.result.scores) == 6
        assert response.result.l1_error >= 0

    def test_unknown_request_type_rejected(self, session):
        with pytest.raises(ConfigError, match="unsupported request"):
            session.run(object())

    def test_session_meta_merged_into_responses(self):
        session = Session(
            graphs.cycle_graph(6), CONFIG, meta={"family": "cycle"}
        )
        response = session.run(SampleRequest(seed=0))
        assert response.meta["family"] == "cycle"


class TestStreaming:
    def test_stream_matches_batch_trees_and_round_bills(self, session):
        request = EnsembleRequest(count=8, seed=7, jobs=2)
        batch = session.run(request)
        streamed = list(session.stream(request))
        assert [r.tree for r in streamed] == batch.result.trees
        assert [r.rounds for r in streamed] == [
            r.rounds for r in batch.result.results
        ]

    def test_stream_sequential_matches_parallel(self, session):
        request_seq = EnsembleRequest(count=6, seed=9, jobs=1)
        request_par = EnsembleRequest(count=6, seed=9, jobs=3)
        assert [r.tree for r in session.stream(request_seq)] == [
            r.tree for r in session.stream(request_par)
        ]

    def test_stream_is_incremental(self, session):
        iterator = session.stream(EnsembleRequest(count=4, seed=1, jobs=1))
        first = next(iterator)
        assert len(first.tree) == 5
        assert len(list(iterator)) == 3

    def test_stream_rejects_non_streamable_requests(self, session):
        """Only kinds the workload registry marks streamable stream."""
        with pytest.raises(ConfigError, match="streamable"):
            next(session.stream(SampleRequest()))

    def test_stream_rejects_leverage_audit(self, session):
        """The audit is batch-level; stream() must refuse rather than
        silently drop it."""
        request = EnsembleRequest(count=4, seed=1, leverage_audit=True)
        with pytest.raises(ConfigError, match="leverage_audit"):
            next(session.stream(request))

    def test_ensemble_leverage_audit_attached(self, session):
        response = session.run(
            EnsembleRequest(count=10, seed=4, jobs=1, leverage_audit=True)
        )
        leverage = response.meta["leverage"]
        assert leverage["num_trees"] == 10
        assert 0 <= leverage["max_abs_deviation"] <= 1


class TestPresets:
    def test_registry_names(self):
        assert {"paper-approximate", "paper-exact", "fast-bench",
                "fast-audit"} <= set(PRESETS)

    def test_paper_presets_use_paper_defaults(self):
        assert get_preset("paper-approximate").config == SamplerConfig()
        assert get_preset("paper-exact").variant == "exact"

    def test_preset_config_overrides(self):
        config = preset_config("fast-bench", ell=1 << 10)
        assert config.ell == 1 << 10
        # the base recipe is untouched
        assert get_preset("fast-bench").config.ell == 1 << 12

    def test_preset_config_unknown_field_is_config_error(self):
        # schur_method was a SamplerConfig field before the one-kernel
        # linalg layer retired it; old callers get a named ConfigError.
        with pytest.raises(ConfigError, match="schur_method"):
            preset_config("fast-bench", schur_method="qr-product")

    def test_resolve_config_accepts_all_shapes(self):
        assert resolve_config(None) == SamplerConfig()
        assert resolve_config("fast-audit").ell == 1 << 10
        custom = SamplerConfig(ell=1 << 8)
        assert resolve_config(custom) is custom

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            get_preset("warp-speed")

    def test_session_accepts_preset_names(self):
        session = Session(graphs.cycle_graph(5), "fast-audit")
        assert session.config.ell == 1 << 10

    def test_preset_variant_is_session_default(self):
        """Regression: Session(graph, "paper-exact") must run the exact
        sampler for requests that don't pin a variant."""
        session = Session(graphs.cycle_graph(5), "paper-exact", seed=1)
        assert session.default_variant == "exact"
        response = session.run(SampleRequest(seed=2))
        assert response.meta["variant"] == "exact"
        # an explicit request variant still wins
        pinned = session.run(SampleRequest(variant="approximate", seed=2))
        assert pinned.meta["variant"] == "approximate"
        # and the no-arg engine accessor agrees with the default
        assert session.engine().variant == "exact"


class TestRequestValidation:
    def test_sample_variant_validated(self):
        with pytest.raises(ConfigError):
            SampleRequest(variant="quantum")

    def test_ensemble_bounds_validated(self):
        with pytest.raises(ConfigError):
            EnsembleRequest(count=0)
        with pytest.raises(ConfigError):
            EnsembleRequest(jobs=0)
        with pytest.raises(ConfigError):
            EnsembleRequest(variant="fastcover")

    def test_pagerank_bounds_validated(self):
        with pytest.raises(ConfigError):
            PageRankRequest(damping=1.5)

    def test_request_wire_round_trip(self):
        for request in (
            SampleRequest(variant="exact", seed=3),
            EnsembleRequest(count=7, jobs=2, leverage_audit=True),
            AuditRequest(samples=9, seed=1),
            RoundBillRequest(seed=5),
            PageRankRequest(damping=0.5, walks_per_vertex=4),
        ):
            assert request_from_dict(request.to_dict()) == request

    def test_unknown_request_tag_rejected(self):
        with pytest.raises(ConfigError, match="unknown request tag"):
            request_from_dict({"request": "teleport"})

    def test_unknown_request_field_rejected(self):
        """Regression: a misspelled field must fail loudly, not silently
        run a default-valued workload."""
        with pytest.raises(ConfigError, match="unknown field"):
            request_from_dict({"request": "ensemble", "cout": 5000})

    def test_stream_can_be_abandoned_early(self, session):
        """Closing the stream mid-way must not hang on queued work."""
        iterator = session.stream(EnsembleRequest(count=12, seed=2, jobs=2))
        first = next(iterator)
        assert len(first.tree) == 5
        iterator.close()  # must return promptly, cancelling queued chunks


class TestLegacyShims:
    """The one-call entry points still work over the same engines."""

    def test_sample_spanning_tree(self):
        from repro import sample_spanning_tree

        tree = sample_spanning_tree(graphs.cycle_graph(5), rng=0)
        assert len(tree) == 4

    def test_sample_tree_ensemble(self):
        from repro.engine import sample_tree_ensemble

        result = sample_tree_ensemble(
            graphs.cycle_graph(5), 4,
            config=preset_config("fast-audit"), seed=2, jobs=1,
        )
        assert result.count == 4


class TestSessionCacheMeta:
    """Cache statistics surface on every response envelope (satellite)."""

    def test_every_request_kind_carries_cache_meta(self, session):
        for request in [
            SampleRequest(seed=1),
            EnsembleRequest(count=2, seed=2, jobs=1),
            RoundBillRequest(seed=3),
            PageRankRequest(seed=4),
        ]:
            response = session.run(request)
            cache = response.meta["cache"]
            assert isinstance(cache, dict), request.kind
            for key in ("hits", "misses", "evictions", "entries", "bytes"):
                assert isinstance(cache[key], int), (request.kind, key)

    def test_counters_accumulate_across_requests(self, session):
        first = session.run(SampleRequest(seed=1)).meta["cache"]
        second = session.run(SampleRequest(seed=2)).meta["cache"]
        assert second["hits"] >= first["hits"]
        assert second["hits"] > 0  # phase-1 entry reused across draws

    def test_disabled_cache_reports_empty(self):
        from repro.api import preset_config as _pc

        session = Session(
            graphs.cycle_graph(6),
            _pc("fast-audit", derived_cache=False),
            seed=1,
        )
        response = session.run(SampleRequest(seed=1))
        assert response.meta["cache"] == {}

    def test_tiered_session_reports_disk_counters(self, tmp_path):
        from repro.api import preset_config as _pc

        config = _pc("fast-audit", cache_dir=str(tmp_path))
        cold = Session(graphs.cycle_graph(6), config, seed=1)
        cold_meta = cold.run(SampleRequest(seed=1)).meta["cache"]
        assert cold_meta["spills"] > 0
        # Second sighting in a fresh session admits the later phases.
        Session(graphs.cycle_graph(6), config, seed=1).run(SampleRequest(seed=1))
        warm = Session(graphs.cycle_graph(6), config, seed=1)
        warm_meta = warm.run(SampleRequest(seed=1)).meta["cache"]
        assert warm_meta["disk_hits"] > 0
        assert warm_meta["misses"] == 0

    def test_warm_service_preset_is_registered(self):
        preset = get_preset("warm-service")
        assert preset.config.cache_dir == "auto"
        assert preset.config.cache_memory_bytes > 0
        assert preset.config.cache_disk_bytes > 0

    def test_meta_cache_survives_json_round_trip(self, tmp_path):
        import json as json_module

        from repro.api import preset_config as _pc, response_from_dict

        config = _pc("fast-audit", cache_dir=str(tmp_path))
        session = Session(graphs.cycle_graph(6), config, seed=1)
        response = session.run(SampleRequest(seed=1))
        decoded = response_from_dict(json_module.loads(response.to_json()))
        assert decoded.meta["cache"] == response.meta["cache"]
