"""Tests for the matrix power ladder and Lemma 7 rounding."""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.clique import RoundLedger
from repro.core import SamplerConfig
from repro.engine import SamplerEngine
from repro.errors import GraphError, PrecisionError
from repro.linalg import PowerLadder, lemma7_error_bound, round_matrix_down


class TestRounding:
    def test_subtractive(self):
        m = np.array([[0.7, 0.3], [0.5, 0.5]])
        rounded = round_matrix_down(m, 4)
        assert np.all(rounded <= m + 1e-15)
        assert np.all(m - rounded < 2.0**-4)

    def test_high_precision_identity(self):
        m = np.array([[0.5, 0.5], [0.25, 0.75]])
        assert np.allclose(round_matrix_down(m, 52), m, atol=1e-15)

    def test_bits_validation(self):
        with pytest.raises(PrecisionError):
            round_matrix_down(np.eye(2), 0)


class TestLemma7Bound:
    def test_unrolled_recurrence(self):
        # E(1) <= delta; E(2) <= (n+1) E(1) + delta; E(4) <= (n+1) E(2) + d.
        assert lemma7_error_bound(3, 1, 0.5) == pytest.approx(0.5)
        assert lemma7_error_bound(3, 2, 0.5) == pytest.approx(0.5 * (1 + 4))
        assert lemma7_error_bound(3, 4, 0.5) == pytest.approx(0.5 * (1 + 4 + 16))

    def test_monotone_in_k(self):
        assert lemma7_error_bound(4, 16, 1e-9) >= lemma7_error_bound(4, 4, 1e-9)

    def test_invalid_k(self):
        with pytest.raises(GraphError):
            lemma7_error_bound(4, 0, 1e-9)


class TestPowerLadder:
    def test_exact_powers(self):
        g = graphs.cycle_with_chord(5)
        p = g.transition_matrix()
        ladder = PowerLadder(p, 8)
        assert np.allclose(ladder.power(1), p)
        assert np.allclose(ladder.power(2), p @ p)
        assert np.allclose(ladder.power(8), np.linalg.matrix_power(p, 8))
        assert ladder.exponents == (1, 2, 4, 8)

    def test_missing_power_raises(self):
        p = graphs.path_graph(3).transition_matrix()
        ladder = PowerLadder(p, 4)
        with pytest.raises(GraphError):
            ladder.power(3)
        with pytest.raises(GraphError):
            ladder.power(8)

    def test_power_any_binary_decomposition(self):
        p = graphs.cycle_with_chord(5).transition_matrix()
        ladder = PowerLadder(p, 16)
        for k in (1, 3, 5, 7, 11, 16):
            assert np.allclose(
                ladder.power_any(k), np.linalg.matrix_power(p, k), atol=1e-12
            )
        with pytest.raises(GraphError):
            ladder.power_any(0)
        with pytest.raises(GraphError):
            ladder.power_any(17)

    def test_non_power_of_two_ell_rejected(self):
        p = graphs.path_graph(3).transition_matrix()
        with pytest.raises(GraphError):
            PowerLadder(p, 6)

    def test_nonsquare_rejected(self):
        with pytest.raises(GraphError):
            PowerLadder(np.zeros((2, 3)), 4)

    def test_rounded_ladder_error_within_lemma7(self):
        g = graphs.complete_graph(6)
        p = g.transition_matrix()
        bits = 30
        ladder = PowerLadder(p, 16, bits=bits)
        exact = np.linalg.matrix_power(p, 16)
        observed = np.max(np.abs(exact - ladder.power(16)))
        assert observed <= ladder.max_subtractive_error_bound()
        # Rounded entries never exceed the exact ones (subtractive).
        assert np.all(ladder.power(16) <= exact + 1e-12)

    def test_exact_ladder_reports_zero_error(self):
        p = graphs.path_graph(3).transition_matrix()
        assert PowerLadder(p, 4).max_subtractive_error_bound() == 0.0

    def test_ledger_charged_per_squaring(self):
        """A phase's ladder bills one matmul per squaring.

        The ladder itself is pure numerics; the engine's one charge
        function bills it as a closed form of ``(|S|, ell, bits)``.
        """
        g = graphs.cycle_graph(6)
        engine = SamplerEngine(g, SamplerConfig(ell=16))
        ledger = RoundLedger()
        engine._charge_phase_numerics(ledger, 6, True, 16)
        # 4 squarings, each one matmul.
        per = ledger.model.matmul_rounds(6)
        assert ledger.total_rounds() == 4 * per
        assert [e.note for e in ledger.entries] == ["phase ladder"]

    def test_rounded_ladder_entry_words_cheaper(self):
        g = graphs.cycle_graph(64)
        exact_ledger, rounded_ledger = RoundLedger(), RoundLedger()
        SamplerEngine(g, SamplerConfig(ell=4))._charge_phase_numerics(
            exact_ledger, 64, True, 4
        )
        SamplerEngine(
            g, SamplerConfig(ell=4, precision_bits=8)
        )._charge_phase_numerics(rounded_ledger, 64, True, 4)
        # 8-bit entries (2 words at n = 64) are cheaper than the default
        # O(log n)-word estimate used for full-precision entries.
        assert rounded_ledger.total_rounds() < exact_ledger.total_rounds()
        assert rounded_ledger.total_rounds() == 2 * RoundLedger().model.matmul_rounds(
            64, entry_words=2
        )

    def test_stationary_convergence(self):
        """Huge powers converge to the stationary distribution (the regime
        the sampler's Theta~(n^3)-length ladders operate in)."""
        g = graphs.cycle_with_chord(5)  # aperiodic thanks to the chord
        p = g.transition_matrix()
        ladder = PowerLadder(p, 1 << 16)
        top = ladder.power(1 << 16)
        degrees = g.degrees()
        stationary = degrees / degrees.sum()
        for row in top:
            assert np.allclose(row, stationary, atol=1e-8)
