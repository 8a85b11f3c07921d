"""The full round ledger never depends on cache state.

The model bills every execution in full, so a phase's numerics cost the
same entries whether they were built cold, served from the RAM tier, or
loaded from the disk tier by a fresh session. These tests compare the
canonical JSON of the whole ledger -- every entry, section and note, not
just totals -- across the three ways of drawing one pinned seed, for
every matmul backend and numerics backend the configuration allows.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import SampleRequest, Session
from repro.core import SamplerConfig
from repro.graphs.families import build_family

SEEDS = (0, 1, 2)

# (variant, config overrides); sparse + simulated-3d is a ConfigError and
# the broadcast variant only runs with the analytic matmul backend.
CELLS = {
    "analytic-dense": ("approximate", dict(linalg_backend="dense")),
    "analytic-sparse": ("approximate", dict(linalg_backend="sparse")),
    "analytic-dense-exact": ("exact", dict(linalg_backend="dense")),
    "analytic-dense-bits": (
        "approximate", dict(linalg_backend="dense", precision_bits=40)
    ),
    "simulated-3d-dense": (
        "approximate",
        dict(linalg_backend="dense", matmul_backend="simulated-3d"),
    ),
    "broadcast-dense": ("broadcast", dict(linalg_backend="dense")),
    "broadcast-sparse": ("broadcast", dict(linalg_backend="sparse")),
    # An explicit rho forces Schur phases, whose derived-graph products
    # the broadcast variant bills as sketch rounds.
    "broadcast-dense-schur": ("broadcast", dict(linalg_backend="dense", rho=6)),
}


@pytest.fixture(scope="module")
def graph():
    graph, __ = build_family("gnp", 20, np.random.default_rng(3))
    return graph


def _config(cache_dir=None, **overrides):
    if cache_dir is None:
        return SamplerConfig(ell=1 << 9, derived_cache=False, **overrides)
    return SamplerConfig(ell=1 << 9, cache_dir=str(cache_dir), **overrides)


def _ledger_bytes(result) -> str:
    return json.dumps(result.ledger.to_dict(), sort_keys=True)


def _draw(session, variant, seed):
    return session.run(SampleRequest(variant=variant, seed=seed)).result


def _draw_three_ways(graph, tmp_path, variant, overrides, seed):
    """(cold, RAM hit, disk hit) draws of one pinned seed."""
    cold = _draw(Session(graph, _config(**overrides)), variant, seed)
    # First sighting: later phases are built and dropped, so the warm
    # session's building draw below is the admitting one.
    _draw(Session(graph, _config(tmp_path, **overrides)), variant, seed)

    warm = Session(graph, _config(tmp_path, **overrides))
    building = _draw(warm, variant, seed)
    misses = warm.cache_stats()["misses"]
    ram_hit = _draw(warm, variant, seed)
    assert warm.cache_stats()["misses"] == misses  # every phase hit RAM

    fresh = Session(graph, _config(tmp_path, **overrides))
    disk_hit = _draw(fresh, variant, seed)
    stats = fresh.cache_stats()
    assert stats["misses"] == 0 and stats["disk_hits"] > 0
    return cold, building, ram_hit, disk_hit


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cold_ram_and_disk_ledgers_byte_identical(graph, tmp_path, cell):
    variant, overrides = CELLS[cell]
    for seed in SEEDS:
        draws = _draw_three_ways(
            graph, tmp_path / str(seed), variant, overrides, seed
        )
        assert len({draw.tree for draw in draws}) == 1
        assert len({_ledger_bytes(draw) for draw in draws}) == 1
        notes = {entry.note for entry in draws[0].ledger.entries}
        assert "phase ladder" in notes
        assert not any("cached" in note for note in notes)


def test_old_volume_recipe_keys_load_as_plain_hits(graph, tmp_path):
    """Entries written with the retired charge-recipe keys still hit."""
    variant, overrides = CELLS["analytic-dense"]
    seed = SEEDS[0]
    cold = _draw(Session(graph, _config(**overrides)), variant, seed)
    _draw(Session(graph, _config(tmp_path, **overrides)), variant, seed)
    # Second sighting admits the later phases.
    _draw(Session(graph, _config(tmp_path, **overrides)), variant, seed)

    metas = sorted(tmp_path.rglob("meta.json"))
    assert metas
    for path in metas:
        meta = json.loads(path.read_text())
        assert "ladder_squarings" not in meta
        is_phase_one = len(meta["order"]) == graph.n
        meta.update(
            is_phase_one=is_phase_one,
            ladder_size=len(meta["order"]),
            ladder_squarings=int(meta["ladder_ell"]).bit_length() - 1,
            ladder_entry_words=None,
            shortcut_squarings=0 if is_phase_one else 17,
        )
        path.write_text(json.dumps(meta))

    fresh = Session(graph, _config(tmp_path, **overrides))
    old_volume = _draw(fresh, variant, seed)
    stats = fresh.cache_stats()
    assert stats["misses"] == 0 and stats["disk_hits"] == len(metas)
    assert old_volume.tree == cold.tree
    assert _ledger_bytes(old_volume) == _ledger_bytes(cold)
