"""Tests for SamplerConfig resolution and validation."""

from __future__ import annotations

import math

import pytest

from repro.core import SamplerConfig
from repro.errors import ConfigError


class TestValidation:
    def test_defaults_valid(self):
        SamplerConfig()

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, 2.0])
    def test_bad_epsilon(self, epsilon):
        with pytest.raises(ConfigError):
            SamplerConfig(epsilon=epsilon)

    def test_bad_rho(self):
        with pytest.raises(ConfigError):
            SamplerConfig(rho=1)

    @pytest.mark.parametrize("ell", [3, 6, 1])
    def test_non_power_of_two_ell(self, ell):
        with pytest.raises(ConfigError):
            SamplerConfig(ell=ell)

    def test_bad_policies(self):
        with pytest.raises(ConfigError):
            SamplerConfig(on_failure="retry")
        with pytest.raises(ConfigError):
            SamplerConfig(matching_method="jsv")

    def test_bad_precision(self):
        with pytest.raises(ConfigError):
            SamplerConfig(precision_bits=4)

    def test_bad_max_extensions(self):
        with pytest.raises(ConfigError):
            SamplerConfig(max_extensions=0)

    def test_frozen(self):
        config = SamplerConfig()
        with pytest.raises(AttributeError):
            config.epsilon = 0.5


class TestResolution:
    def test_rho_sqrt_default(self):
        config = SamplerConfig()
        assert config.resolve_rho(100) == 10
        assert config.resolve_rho(101) == 10
        assert config.resolve_rho(4) == 2

    def test_rho_cbrt_for_exact(self):
        config = SamplerConfig()
        assert config.resolve_rho(64, variant="exact") == 4
        assert config.resolve_rho(1000, variant="exact") == 10

    def test_rho_never_below_two(self):
        config = SamplerConfig()
        assert config.resolve_rho(2) == 2
        assert config.resolve_rho(3, variant="exact") == 2

    def test_rho_override(self):
        assert SamplerConfig(rho=7).resolve_rho(1000) == 7

    def test_ell_paper_default(self):
        config = SamplerConfig(epsilon=1e-3)
        ell = config.resolve_ell(16)
        assert ell & (ell - 1) == 0
        assert ell >= 16**3

    def test_ell_override(self):
        assert SamplerConfig(ell=1 << 10).resolve_ell(100) == 1 << 10

    def test_matching_tv_budget(self):
        config = SamplerConfig(epsilon=0.01)
        budget = config.matching_tv_budget(16, 1 << 12)
        assert budget == pytest.approx(0.01 / (4 * 4 * 12))

    def test_normalizer_floor(self):
        config = SamplerConfig(normalizer_floor_exponent=3.0)
        assert config.normalizer_floor(10) == pytest.approx(1e-3)
        assert SamplerConfig().normalizer_floor(10) == pytest.approx(
            10.0 ** -40
        )
