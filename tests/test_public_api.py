"""Public-API surface tests: imports, __all__ hygiene, docstrings.

A downstream user's first contact with the library is ``import repro``
and tab completion; these tests pin that surface so refactors cannot
silently break it.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.analysis",
    "repro.api",
    "repro.clique",
    "repro.core",
    "repro.engine",
    "repro.graphs",
    "repro.linalg",
    "repro.matching",
    "repro.walks",
]


class TestImports:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", []):
            assert hasattr(module, attr), f"{name}.{attr}"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestDocstrings:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_public_callables_documented(self, name):
        """Every public function/class exported by a subpackage has a
        docstring (deliverable (e): doc comments on every public item)."""
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", []):
            obj = getattr(module, attr)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__doc__, f"{name}.{attr} lacks a docstring"

    def test_public_methods_documented(self):
        """Spot check: key classes document their public methods."""
        from repro.clique import CongestedClique, RoundLedger
        from repro.engine import SamplerEngine
        from repro.graphs import WeightedGraph

        for cls in (CongestedClique, RoundLedger, SamplerEngine,
                    WeightedGraph):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                assert member.__doc__, f"{cls.__name__}.{name}"


class TestConvenienceEntryPoints:
    def test_sample_spanning_tree_is_importable_from_top(self):
        from repro import sample_spanning_tree  # noqa: F401
        from repro import sample_tree_fast_cover  # noqa: F401

    def test_error_base_importable(self):
        from repro import ReproError

        assert issubclass(ReproError, Exception)
