"""The perfbench tracer's patch targets all resolve in this tree.

``perfbench/tracing.py`` wraps 25 functions by module and attribute
name; one that is renamed or deleted makes ``perfbench/run.py --trace 1``
exit non-zero. The module is loaded read-only from its file (nothing is
patched), so a missing target fails here in tier-1 instead of only in
the separate perfbench smoke job.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing_under_test", TRACING
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their module through sys.modules while the
    # class body runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def test_every_tracer_target_resolves(tracing):
    resolved = tracing.current_targets()
    assert len(resolved) == len(
        {(module, path) for module, path, __, __ in tracing.TARGETS}
    )
    for (module, path), target in resolved.items():
        assert callable(target), f"{module}.{path} is not callable"
    assert not tracing.leaked_wrappers()


def test_kept_shims_are_inert():
    """The tracer-only shims left by the retired placement plan change
    nothing: they pass through or do nothing."""
    from repro.core.placement_plan import PlacementPlan
    from repro.engine.cache import DerivedGraphCache
    from repro.matching.sampler import ClassifiedBipartite

    plan = PlacementPlan()
    assert plan.first_visit(0, 1, lambda: ("neighbors", "law")) == (
        "neighbors", "law"
    )
    instance = ClassifiedBipartite(
        row_labels=(0, 1),
        row_counts=(1, 1),
        col_labels=("a", "b"),
        col_counts=(1, 1),
        class_weights=np.array([[1.0, 0.5], [0.5, 1.0]]),
    )
    table = plan.prepared_dp(instance).sample(np.random.default_rng(0))
    assert table.sum() == 2

    memory = DerivedGraphCache()
    memory.store(("k",), object())
    before = memory.stats()
    memory.refresh(("k",))
    assert memory.stats() == before


def test_store_shims_write_nothing(tmp_path):
    from repro.engine.cache import DerivedGraphCache
    from repro.engine.store import DiskTier, TieredPhaseStore

    store = TieredPhaseStore(DerivedGraphCache(), DiskTier(tmp_path))
    assert store.store_plan(("k",), object()) is False
    store.refresh(("k",))
    assert not [p for p in (tmp_path / "blobs").iterdir()]
