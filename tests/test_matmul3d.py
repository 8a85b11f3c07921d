"""Tests for the simulated 3D CongestedClique matrix multiplication."""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.analysis import loglog_fit
from repro.clique import RoundLedger
from repro.clique.matmul3d import SimulatedMatmul, semiring_matmul_rounds
from repro.errors import ModelError
from repro.linalg import PowerLadder


class TestNumerics:
    def test_product_exact(self, rng):
        for n in (4, 9, 16, 27):
            backend = SimulatedMatmul(n)
            a = rng.random((n, n))
            b = rng.random((n, n))
            assert np.allclose(backend.multiply(a, b), a @ b)

    def test_shape_validation(self):
        backend = SimulatedMatmul(4)
        with pytest.raises(ModelError):
            backend.multiply(np.ones((3, 3)), np.ones((3, 3)))

    def test_n_validation(self):
        with pytest.raises(ModelError):
            SimulatedMatmul(0)
        with pytest.raises(ModelError):
            semiring_matmul_rounds(0)


class TestRoundAccounting:
    def test_rounds_near_closed_form(self, rng):
        for n in (8, 27, 64):
            backend = SimulatedMatmul(n)
            a = rng.random((n, n))
            backend.multiply(a, a)
            measured = backend.total_rounds
            assert measured <= backend.measured_rounds_last_call_bound()
            assert measured >= semiring_matmul_rounds(n) // 3

    def test_rounds_scale_cube_root(self, rng):
        ns = [8, 27, 64, 125]
        rounds = []
        for n in ns:
            backend = SimulatedMatmul(n)
            a = rng.random((n, n))
            backend.multiply(a, a)
            rounds.append(backend.total_rounds)
        exponent, _ = loglog_fit(ns, rounds)
        assert 0.15 < exponent < 0.6  # ~1/3 with blocking noise

    def test_ledger_integration(self, rng):
        ledger = RoundLedger()
        backend = SimulatedMatmul(8, ledger=ledger)
        a = rng.random((8, 8))
        backend.multiply(a, a)
        assert ledger.rounds_by_category().get("matmul-simulated", 0) > 0

    def test_calls_counted(self, rng):
        backend = SimulatedMatmul(4)
        a = rng.random((4, 4))
        backend.multiply(a, a)
        backend.multiply(a, a)
        assert backend.calls == 2


class TestPowerLadderBackend:
    def test_ladder_with_simulated_backend_matches_exact(self, rng):
        """The ladder is pure numerics; under ``simulated-3d`` the engine
        bills its squarings as measured 3D products only."""
        from repro.core import SamplerConfig
        from repro.engine import SamplerEngine

        g = graphs.cycle_with_chord(8)
        p = g.transition_matrix()
        ladder = PowerLadder(p, 16)
        assert np.allclose(ladder.power(16), np.linalg.matrix_power(p, 16))
        engine = SamplerEngine(
            g, SamplerConfig(ell=16, matmul_backend="simulated-3d")
        )
        ledger = RoundLedger()
        engine._charge_phase_numerics(ledger, 8, True, 16)
        categories = ledger.rounds_by_category()
        # Only the simulated charge appears -- no analytic double count.
        assert categories == {
            "matmul-simulated": 4 * SimulatedMatmul(8).round_cost()
        }


class TestMatmulBackendProtocol:
    """Both realizations behave consistently through the shared interface."""

    def test_both_backends_satisfy_protocol(self):
        from repro.engine.backends import (
            AnalyticMatmul,
            MatmulBackend,
            make_matmul_backend,
        )

        assert isinstance(AnalyticMatmul(), MatmulBackend)
        assert isinstance(SimulatedMatmul(4), MatmulBackend)
        assert make_matmul_backend("analytic", 4).name == "analytic"
        assert make_matmul_backend("simulated-3d", 4).name == "simulated-3d"

    def test_unknown_backend_rejected(self):
        from repro.engine.backends import make_matmul_backend
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            make_matmul_backend("quantum", 4)

    def test_analytic_backend_charges_match_inline_ladder(self):
        """The engine's ladder charge == one analytic matmul per squaring."""
        from repro.core import SamplerConfig
        from repro.engine import SamplerEngine

        g = graphs.cycle_with_chord(8)
        ledger = RoundLedger()
        SamplerEngine(g, SamplerConfig(ell=16))._charge_phase_numerics(
            ledger, 8, True, 16
        )
        per_squaring = RoundLedger()
        for _ in range(4):
            per_squaring.charge_matmul(8, note="phase ladder")
        assert ledger.rounds_by_category() == per_squaring.rounds_by_category()

    def test_replay_matches_live_charges_analytic(self):
        """One aggregated charge bills what per-product charges would."""
        from repro.engine.backends import AnalyticMatmul

        live_ledger = RoundLedger()
        live = AnalyticMatmul(live_ledger)
        for _ in range(3):
            live.charge(9, entry_words=2)
        aggregated_ledger = RoundLedger()
        AnalyticMatmul(aggregated_ledger).charge(9, count=3, entry_words=2)
        assert live_ledger.total_rounds() == aggregated_ledger.total_rounds()

    def test_replay_matches_live_charges_simulated(self, rng):
        """Charging without multiplying bills the measured product cost."""
        live_ledger = RoundLedger()
        live = SimulatedMatmul(8, ledger=live_ledger)
        a = rng.random((8, 8))
        for _ in range(3):
            live.multiply(a, a)
        charged_ledger = RoundLedger()
        charged = SimulatedMatmul(8, ledger=charged_ledger)
        charged.charge(8, count=3)
        assert live_ledger.total_rounds() == charged_ledger.total_rounds()
        assert charged.total_rounds == live.total_rounds
        assert charged.calls == 0  # charges are not multiplications

    def test_simulated_replay_size_mismatch_rejected(self):
        with pytest.raises(ModelError):
            SimulatedMatmul(8).charge(9)

    def test_round_cost_deterministic_and_consistent(self, rng):
        backend = SimulatedMatmul(27)
        cost = backend.round_cost()
        a = rng.random((27, 27))
        backend.multiply(a, a)
        assert backend.total_rounds == cost
        assert backend.round_cost() == cost

    def test_sampler_consistent_across_shared_interface(self, rng):
        """The full sampler charges each backend's own category, and the
        ladder charges agree with the backend's closed-form recipe."""
        from repro.core import SamplerConfig
        from repro.engine import SamplerEngine

        g = graphs.cycle_with_chord(9)
        trees = {}
        for name in ("analytic", "simulated-3d"):
            config = SamplerConfig(ell=1 << 9, matmul_backend=name)
            result = SamplerEngine(g, config).run(
                np.random.default_rng(13)
            )
            categories = result.rounds_by_category()
            if name == "analytic":
                assert "matmul-simulated" not in categories
            else:
                assert categories.get("matmul-simulated", 0) > 0
            trees[name] = result.tree
        # Identical rng stream and numerics => identical trees; only the
        # round accounting differs between backends.
        assert trees["analytic"] == trees["simulated-3d"]
