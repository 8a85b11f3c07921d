"""The Broadcast Congested Clique variant: driver, billing, invariance.

The broadcast sampler (Anari-Haqi) runs one full-cover phase -- rho = n
makes the walk's first-visit edges a complete Aldous-Broder tree -- and
bills every round to the dedicated broadcast-bandwidth ledger category:
an analytic recipe over seed-deterministic walk statistics, never
measured message loads, so warm/cold caches, job counts, and hosts all
produce identical bills. These tests pin the driver shape (single phase
at the default rho), the charging discipline (category set, replay
equality, polylog scale), the model primitives
(:func:`broadcast_cc_rounds`, ``CostModel.broadcast_matmul_rounds``,
the ``broadcast-collective`` backend), and the rejection paths.
Distributional correctness lives in ``test_statistical_uniformity.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import graphs
from repro.api import SampleRequest, Session
from repro.clique.cost import CostModel, RoundLedger
from repro.clique.routing import broadcast_cc_rounds
from repro.core.config import SamplerConfig
from repro.core.rounds import broadcast_variant_rounds
from repro.core.variants import BROADCAST_BANDWIDTH
from repro.engine.backends import (
    BroadcastCollectiveMatmul,
    make_matmul_backend,
)
from repro.engine.runner import SamplerEngine
from repro.errors import BandwidthError, ConfigError, GraphError, ModelError
from repro.graphs.spanning import is_spanning_tree

CONFIG = SamplerConfig(ell=1 << 6)


def run_broadcast(graph, seed=0, config=CONFIG, **engine_kwargs):
    engine = SamplerEngine(
        graph, config, variant="broadcast", **engine_kwargs
    )
    return engine.run(np.random.default_rng(seed))


class TestBroadcastDriver:
    def test_single_phase_full_cover(self):
        graph = graphs.complete_graph(8)
        result = run_broadcast(graph)
        assert result.phases == 1
        assert is_spanning_tree(graph, result.tree)
        assert len(result.tree) == graph.n - 1

    def test_all_rounds_in_broadcast_category(self):
        result = run_broadcast(graphs.complete_graph(8))
        categories = result.rounds_by_category()
        assert set(categories) == {BROADCAST_BANDWIDTH}
        assert categories[BROADCAST_BANDWIDTH] == result.rounds > 0

    def test_explicit_rho_override_multi_phase_stays_broadcast(self):
        """Forcing rho < n exercises shortcut/schur charging too."""
        graph = graphs.complete_graph(9)
        result = run_broadcast(
            graph, config=SamplerConfig(ell=1 << 6, rho=3)
        )
        assert result.phases > 1
        assert set(result.rounds_by_category()) == {BROADCAST_BANDWIDTH}
        assert is_spanning_tree(graph, result.tree)

    def test_session_sample_request(self):
        graph = graphs.complete_graph(6)
        session = Session(graph, CONFIG, seed=3)
        response = session.run(SampleRequest(variant="broadcast", seed=3))
        assert response.meta["variant"] == "broadcast"
        assert is_spanning_tree(graph, response.result.tree)


class TestBroadcastInvariance:
    def test_warm_cold_category_totals_identical(self, tmp_path):
        """A warm engine replays the same broadcast bill it computed."""
        graph = graphs.complete_graph(8)
        config = SamplerConfig(ell=1 << 6, cache_dir=str(tmp_path))
        cold = run_broadcast(graph, seed=11, config=config)
        warm = run_broadcast(graph, seed=11, config=config)
        assert warm.tree == cold.tree
        assert warm.rounds == cold.rounds
        assert warm.rounds_by_category() == cold.rounds_by_category()

    def test_jobs_invariance(self):
        """Process fan-out never changes trees or broadcast bills."""
        from repro.engine.ensemble import EnsembleEngine

        graph = graphs.cycle_graph(8)
        serial = EnsembleEngine(
            graph, CONFIG, variant="broadcast"
        ).sample_ensemble(4, seed=7, jobs=1)
        fanned = EnsembleEngine(
            graph, CONFIG, variant="broadcast"
        ).sample_ensemble(4, seed=7, jobs=2)
        assert serial.trees == fanned.trees
        assert [r.rounds_by_category() for r in serial.results] == [
            r.rounds_by_category() for r in fanned.results
        ]

    def test_polylog_scale_vs_unicast(self):
        """Broadcast bills polylog rounds where unicast bills polynomial."""
        graph = graphs.complete_graph(32)
        broadcast = run_broadcast(graph, seed=2)
        approximate = SamplerEngine(graph, CONFIG).run(
            np.random.default_rng(2)
        )
        assert broadcast.rounds < approximate.rounds
        # The headline budget: within a small constant of log^4 n once
        # the per-phase walk traffic (O(n/n) = O(1) rounds per batch) is
        # folded in.
        assert broadcast.rounds < 8 * broadcast_variant_rounds(graph.n)


class TestBroadcastRejections:
    def test_requires_analytic_backend(self):
        with pytest.raises(ConfigError, match="broadcast"):
            SamplerEngine(
                graphs.complete_graph(6),
                SamplerConfig(ell=1 << 6, matmul_backend="simulated-3d"),
                variant="broadcast",
            )

    def test_fastcover_not_engine_driven(self):
        with pytest.raises(GraphError, match="standalone driver"):
            SamplerEngine(graphs.complete_graph(6), variant="fastcover")

    def test_unknown_variant(self):
        # The engine keeps its historical GraphError contract for unknown
        # names; ConfigError is the registry/request-layer type.
        with pytest.raises(GraphError, match="unknown variant"):
            SamplerEngine(graphs.complete_graph(6), variant="warp")


class TestBroadcastPrimitives:
    def test_broadcast_cc_rounds_aggregates_over_n(self):
        assert broadcast_cc_rounds(0, 8) == 0
        assert broadcast_cc_rounds(1, 8) == 1
        assert broadcast_cc_rounds(8, 8) == 1
        assert broadcast_cc_rounds(9, 8) == 2
        assert broadcast_cc_rounds(64, 8, max_machine_words=20) == 20

    def test_broadcast_cc_rounds_rejects_bad_inputs(self):
        with pytest.raises(BandwidthError):
            broadcast_cc_rounds(4, 0)
        with pytest.raises(BandwidthError):
            broadcast_cc_rounds(-1, 8)

    def test_cost_model_broadcast_matmul_rounds(self):
        model = CostModel()
        log_n = math.ceil(math.log2(64))
        assert model.broadcast_matmul_rounds(64) == log_n**2 * log_n
        assert model.broadcast_matmul_rounds(64, entry_words=1) == log_n**2
        with pytest.raises(ModelError):
            model.broadcast_matmul_rounds(0)

    def test_broadcast_variant_rounds_formula(self):
        assert broadcast_variant_rounds(16) == 4.0**4
        assert broadcast_variant_rounds(16, polylog=2) == 16.0
        # Polylog in n: doubling n multiplies the bound by a constant,
        # not by a power of n.
        assert (
            broadcast_variant_rounds(1 << 10)
            / broadcast_variant_rounds(1 << 5)
            == 2.0**4
        )

    def test_collective_backend_charges_category(self):
        ledger = RoundLedger(CostModel())
        backend = BroadcastCollectiveMatmul(ledger)
        backend.charge(4, count=2)
        assert set(ledger.rounds_by_category()) == {BROADCAST_BANDWIDTH}
        assert ledger.total_rounds() == 2 * CostModel().broadcast_matmul_rounds(4)

    def test_make_matmul_backend_dispatch(self):
        ledger = RoundLedger(CostModel())
        backend = make_matmul_backend("broadcast-collective", 4, ledger)
        assert backend.name == "broadcast-collective"
