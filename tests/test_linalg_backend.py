"""Tests for the sparse/dense dual-backend numerics layer.

The load-bearing property mirrors the cache's: the linalg backend may
only change wall-clock and memory, never outputs. Dense and sparse
engines must produce byte-identical trees and identical round ledgers
for the same seed across every registered graph family, and the
format-agnostic accessors must behave identically over ndarray and CSR
storage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.core import SamplerConfig
from repro.engine import SamplerEngine
from repro.engine.ensemble import EnsembleEngine
from repro.errors import ConfigError, GraphError
from repro.graphs.families import FAMILY_REGISTRY, build_family
from repro.linalg import (
    DenseLinalg,
    PowerLadder,
    SparseLinalg,
    auto_linalg_name,
    is_sparse_matrix,
    matrix_col,
    matrix_density,
    matrix_entry,
    matrix_row,
    maybe_densify,
    resolve_linalg_backend,
    round_matrix_down,
    to_dense,
)
from repro.linalg.schur import schur_transition_matrix, schur_via_qr_product
from repro.linalg.shortcut import (
    shortcut_transition_matrix,
    shortcut_via_power_iteration,
)

# repro.linalg gates scipy, so the imports above succeed without it; the
# tests themselves need the real thing.
sparse = pytest.importorskip("scipy.sparse")


def _dense_and_csr():
    dense = np.array([[0.0, 0.5, 0.5], [0.25, 0.0, 0.75], [1.0, 0.0, 0.0]])
    return dense, sparse.csr_array(dense)


class TestAccessors:
    def test_row_col_entry_match_across_formats(self):
        dense, csr = _dense_and_csr()
        for i in range(3):
            assert np.array_equal(matrix_row(dense, i), matrix_row(csr, i))
            assert np.array_equal(matrix_col(dense, i), matrix_col(csr, i))
            for j in range(3):
                assert matrix_entry(dense, i, j) == matrix_entry(csr, i, j)

    @pytest.mark.parametrize("family", ["expander", "cycle"])
    def test_csr_rows_bit_equal_to_toarray(self, family):
        """Every row of SparseLinalg's ShortCut, Schur and ladder matrices."""
        graph, __ = build_family(family, 64, np.random.default_rng(0))
        subset = sorted(
            np.random.default_rng(1).choice(64, 33, replace=False).tolist()
        )
        linalg = SparseLinalg()
        transition, __ = linalg.schur_transition(graph, subset)
        ladder = PowerLadder(transition, 8)
        matrices = [linalg.shortcut_matrix(graph, subset), transition]
        matrices += [ladder.power(k) for k in ladder.exponents]
        csr = [m for m in matrices if is_sparse_matrix(m)]
        assert len(csr) >= 2
        for matrix in csr:
            dense = matrix.toarray()
            for i in range(matrix.shape[0]):
                row = matrix_row(matrix, i)
                assert row.dtype == dense.dtype
                assert row.tobytes() == dense[i].tobytes()

    def test_non_canonical_csr_row_sums_duplicates(self):
        # Row 0 stores column 2 twice and out of order.
        csr = sparse.csr_array(
            (
                np.array([0.1, 0.2, 0.3, 0.7]),
                np.array([2, 0, 2, 1]),
                np.array([0, 3, 4, 4]),
            ),
            shape=(3, 3),
        )
        assert not csr.has_canonical_format
        dense = csr.toarray()
        for i in range(3):
            assert matrix_row(csr, i).tobytes() == dense[i].tobytes()

    def test_to_dense_and_density(self):
        dense, csr = _dense_and_csr()
        assert np.array_equal(to_dense(csr), dense)
        assert to_dense(dense) is np.asarray(dense)
        assert matrix_density(dense) == pytest.approx(5 / 9)
        assert matrix_density(csr) == pytest.approx(5 / 9)
        assert is_sparse_matrix(csr) and not is_sparse_matrix(dense)

    def test_maybe_densify_thresholds(self):
        __, csr = _dense_and_csr()
        assert isinstance(maybe_densify(csr, threshold=0.1), np.ndarray)
        assert is_sparse_matrix(maybe_densify(csr, threshold=0.9))
        arr = np.zeros((2, 2))
        assert maybe_densify(arr, threshold=0.0) is arr


class TestSparseKernelsAgreeWithDense:
    """The CSR backend matches the dense Definition-level oracles.

    ``test_eliminate.py`` checks the kernel on every family and both
    storages; these cells keep the CSR adapter's own entry points pinned.
    """

    @pytest.fixture(params=["cycle", "grid", "lollipop", "gnp"])
    def instance(self, request):
        g, __ = build_family(request.param, 18, np.random.default_rng(2))
        rng = np.random.default_rng(7)
        size = int(rng.integers(3, g.n - 1))
        subset = sorted(rng.choice(g.n, size=size, replace=False).tolist())
        return g, subset

    def test_shortcut(self, instance):
        g, subset = instance
        expected = shortcut_transition_matrix(g, subset)
        got = SparseLinalg().shortcut_matrix(g, subset)
        assert np.allclose(expected, got.toarray(), atol=1e-10)

    def test_shortcut_full_vertex_set_is_identity(self, instance):
        g, __ = instance
        got = SparseLinalg().shortcut_matrix(g, list(range(g.n))).toarray()
        assert np.array_equal(got, np.eye(g.n))

    def test_shortcut_power_iteration(self, instance):
        g, subset = instance
        expected = shortcut_via_power_iteration(g, subset, beta=1e-12)
        got = SparseLinalg().shortcut_matrix(g, subset)
        assert np.allclose(expected, got.toarray(), atol=1e-9)

    def test_schur_block(self, instance):
        g, subset = instance
        expected, order = schur_transition_matrix(g, subset)
        got, got_order = SparseLinalg().schur_transition(g, subset)
        assert order == got_order
        assert np.allclose(expected, got.toarray(), atol=1e-9)

    def test_schur_qr_product(self, instance):
        g, subset = instance
        expected, __ = schur_via_qr_product(g, subset)
        got, __ = SparseLinalg().schur_transition(g, subset)
        assert np.allclose(expected, got.toarray(), atol=1e-8)

    def test_disconnected_elimination_raises(self):
        from repro.graphs.core import WeightedGraph

        # Eliminating a component cut off from S has a singular block,
        # mirroring the dense constructions' GraphError.
        two_components = WeightedGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            SparseLinalg().schur_transition(two_components, [0, 1])
        with pytest.raises(GraphError):
            SparseLinalg().shortcut_matrix(graphs.path_graph(3), [])


class TestSparsePowerLadder:
    def test_powers_match_dense(self):
        g = graphs.cycle_graph(12)
        dense = PowerLadder(g.transition_matrix(), 16)
        csr = PowerLadder(sparse.csr_array(g.transition_matrix()), 16)
        for k in dense.exponents:
            assert np.allclose(
                to_dense(dense.power(k)), to_dense(csr.power(k)), atol=1e-12
            )

    def test_ladder_densifies_on_fill_in(self):
        g = graphs.complete_graph(8)
        ladder = PowerLadder(sparse.csr_array(g.transition_matrix()), 8)
        # P of K_8 is already ~88% dense: every squared power densifies.
        assert isinstance(ladder.power(8), np.ndarray)

    def test_round_matrix_down_sparse_matches_dense(self):
        dense, csr = _dense_and_csr()
        rounded = round_matrix_down(csr, 2)
        assert np.array_equal(round_matrix_down(dense, 2), rounded.toarray())
        # entries truncated to zero leave the sparse structure
        assert rounded.nnz <= csr.nnz

    def test_power_any_mixed_formats(self):
        g = graphs.wheel_graph(9)
        dense = PowerLadder(g.transition_matrix(), 8)
        csr = PowerLadder(sparse.csr_array(g.transition_matrix()), 8)
        assert np.allclose(
            to_dense(dense.power_any(5)), to_dense(csr.power_any(5)),
            atol=1e-12,
        )


class TestBackendSelection:
    def test_explicit_names(self):
        g = graphs.cycle_graph(8)
        assert isinstance(
            resolve_linalg_backend(SamplerConfig(linalg_backend="dense"), g),
            DenseLinalg,
        )
        assert isinstance(
            resolve_linalg_backend(SamplerConfig(linalg_backend="sparse"), g),
            SparseLinalg,
        )

    def test_auto_picks_sparse_only_past_crossover(self):
        config = SamplerConfig(sparse_auto_min_n=8)
        assert auto_linalg_name(config, graphs.cycle_graph(16)) == "sparse"
        assert auto_linalg_name(config, graphs.complete_graph(16)) == "dense"
        # below the size floor even a sparse family stays dense
        assert auto_linalg_name(SamplerConfig(), graphs.cycle_graph(16)) == "dense"

    def test_simulated_3d_forces_dense_auto(self):
        config = SamplerConfig(
            matmul_backend="simulated-3d", sparse_auto_min_n=8
        )
        assert auto_linalg_name(config, graphs.cycle_graph(16)) == "dense"

    def test_sparse_with_simulated_3d_rejected(self):
        with pytest.raises(ConfigError):
            SamplerConfig(linalg_backend="sparse", matmul_backend="simulated-3d")

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigError):
            SamplerConfig(linalg_backend="gpu")
        with pytest.raises(ConfigError):
            SamplerConfig(sparse_auto_min_n=1)
        with pytest.raises(ConfigError):
            SamplerConfig(sparse_auto_density=0.0)

    def test_engine_resolves_auto_per_graph(self):
        config = SamplerConfig(ell=1 << 9, sparse_auto_min_n=8)
        assert SamplerEngine(graphs.cycle_graph(16), config).linalg.name == "sparse"
        assert (
            SamplerEngine(graphs.complete_graph(16), config).linalg.name
            == "dense"
        )


def _run(graph, variant, backend, seed, ell=1 << 9):
    engine = SamplerEngine(
        graph,
        SamplerConfig(ell=ell, linalg_backend=backend),
        variant=variant,
    )
    result = engine.run(np.random.default_rng(seed))
    return result, engine


class TestCrossBackendIdentity:
    """Dense and sparse engines are output-identical, per family."""

    @pytest.mark.parametrize("family", sorted(FAMILY_REGISTRY))
    def test_trees_ledgers_and_cache_stats_identical(self, family):
        graph, __ = build_family(family, 20, np.random.default_rng(11))
        dense_result, dense_engine = _run(graph, "approximate", "dense", 42)
        sparse_result, sparse_engine = _run(graph, "approximate", "sparse", 42)
        assert dense_result.tree == sparse_result.tree
        assert dense_result.rounds == sparse_result.rounds
        assert dense_result.ledger == sparse_result.ledger
        assert dense_result.phases == sparse_result.phases
        assert [s.to_dict() for s in dense_result.phase_stats] == [
            s.to_dict() for s in sparse_result.phase_stats
        ]
        # Hit/miss/eviction behavior is backend-independent; resident
        # *bytes* are not (CSR stores the same numbers more compactly).
        dense_stats = dense_engine.cache.stats()
        sparse_stats = sparse_engine.cache.stats()
        dense_stats.pop("bytes")
        sparse_stats.pop("bytes")
        assert dense_stats == sparse_stats

    @pytest.mark.parametrize("family", ["cycle", "grid", "expander"])
    def test_exact_variant_identical_on_sparse_families(self, family):
        graph, __ = build_family(family, 18, np.random.default_rng(3))
        dense_result, __ = _run(graph, "exact", "dense", 7)
        sparse_result, __ = _run(graph, "exact", "sparse", 7)
        assert dense_result.tree == sparse_result.tree
        assert dense_result.ledger == sparse_result.ledger

    def test_ensemble_jobs_invariance_under_sparse_backend(self):
        graph = graphs.cycle_graph(12)
        config = SamplerConfig(ell=1 << 9, linalg_backend="sparse")
        driver = EnsembleEngine(graph, config)
        serial = driver.sample_ensemble(4, seed=99, jobs=1)
        fanned = EnsembleEngine(graph, config).sample_ensemble(
            4, seed=99, jobs=2
        )
        assert serial.trees == fanned.trees
        assert [r.rounds for r in serial.results] == [
            r.rounds for r in fanned.results
        ]

    def test_sequential_shortcutting_sampler_identical(self):
        from repro.walks.shortcutting import ShortcuttingSampler

        graph = graphs.grid_graph(4, 5)
        dense_result = ShortcuttingSampler(
            graph, linalg_backend="dense"
        ).sample(np.random.default_rng(13))
        sparse_result = ShortcuttingSampler(
            graph, linalg_backend="sparse"
        ).sample(np.random.default_rng(13))
        assert dense_result.tree == sparse_result.tree
        assert dense_result.steps_per_phase == sparse_result.steps_per_phase

    def test_doubling_accepts_backend_matrix(self):
        from repro.walks.doubling import doubling_random_walk

        graph = graphs.wheel_graph(10)
        csr = sparse.csr_array(graph.transition_matrix())
        dense_walks = doubling_random_walk(
            graph, 8, np.random.default_rng(21)
        )
        sparse_walks = doubling_random_walk(
            graph, 8, np.random.default_rng(21), transition=csr
        )
        assert np.array_equal(dense_walks.walks, sparse_walks.walks)
        assert dense_walks.rounds == sparse_walks.rounds


class TestSessionSurfacesBackend:
    def test_meta_reports_resolved_backend(self):
        from repro.api import SampleRequest, Session

        session = Session(
            graphs.cycle_graph(8),
            SamplerConfig(ell=1 << 9, linalg_backend="sparse"),
            seed=0,
        )
        response = session.run(SampleRequest(seed=1))
        assert response.meta["linalg_backend"] == "sparse"

    def test_sparse_scale_preset(self):
        from repro.api import get_preset

        preset = get_preset("sparse-scale")
        assert preset.config.linalg_backend == "sparse"
