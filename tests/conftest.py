"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic per-test randomness."""
    return np.random.default_rng(0xC11C0)


@pytest.fixture
def small_graphs() -> dict:
    """A zoo of small connected graphs exercising different structures."""
    return {
        "path4": graphs.path_graph(4),
        "cycle5": graphs.cycle_graph(5),
        "k4": graphs.complete_graph(4),
        "star6": graphs.star_graph(6),
        "chord5": graphs.cycle_with_chord(5),
        "theta": graphs.theta_graph(2, 2, 3),
        "grid23": graphs.grid_graph(2, 3),
        "fig2": graphs.figure2_graph(),
        "lollipop8": graphs.lollipop_graph(8),
        "wheel6": graphs.wheel_graph(6),
    }


@pytest.fixture
def weighted_triangle() -> "graphs.WeightedGraph":
    """Triangle with weights 1, 2, 3 -- tree law proportional to weights."""
    return graphs.WeightedGraph.from_edges(
        3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]
    )


@pytest.fixture
def oracle_placement(monkeypatch):
    """Route the phase walk's placement through the resampling oracle.

    ``oracle_placement(method, seed=0, **kwargs)`` swaps the Section
    2.1.3 front for :func:`repro.core.placement.resample_placement` with
    its own generator, so end-to-end tests can run the matching samplers
    the production path no longer calls.
    """
    from repro.core import phase
    from repro.core.placement import resample_placement

    def install(method: str, seed: int = 0, **kwargs) -> None:
        rng = np.random.default_rng(seed)

        def resample(view, t_star, *, clique=None):
            return resample_placement(
                view, t_star, view.bank.half_power, rng,
                method=method, clique=clique, **kwargs,
            )

        monkeypatch.setattr(phase, "place_midpoints", resample)

    return install
