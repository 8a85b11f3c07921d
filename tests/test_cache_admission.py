"""Cache admission by reuse: a later phase persists on its second sighting.

Phase 1's ``S = V`` recurs on every draw and is kept the first time it is
built. A later phase's subset almost never recurs across seeds, so the
tiered store keeps its numerics only once the volume's sighting table
(``sightings.bin``) has seen the key before. These tests pin that:

1. fresh seeds leave exactly the ``S = V`` entry in both tiers, and a
   long fresh-seed soak holds disk and RAM bytes flat after draw 1;
2. a pinned seed stores nothing on its first sighting, admits on its
   second, and hits on its third -- across separate sessions on one
   volume -- with trees and full ledgers equal to a cacheless run;
3. the table is fixed-size, tolerates damage, and ``cache --clear``
   resets it.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.api import SampleRequest, Session
from repro.cli import main
from repro.core import SamplerConfig
from repro.engine import DiskTier
from repro.engine.store import SIGHTING_SLOTS
from repro.graphs.families import build_family

TABLE_BYTES = SIGHTING_SLOTS * 8


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


def _volume_bytes(root) -> int:
    return sum(
        os.stat(os.path.join(directory, name)).st_size
        for directory, __, files in os.walk(root)
        for name in files
    )


def _entry_orders(root) -> list[int]:
    return sorted(
        len(json.loads(meta.read_text())["order"])
        for meta in root.glob("blobs/*/meta.json")
    )


@pytest.fixture(scope="module")
def wide():
    # Complete n=96: every later subset keeps >= 8 of 96 vertices, so
    # fresh seeds do not revisit one. (On a 20-vertex graph small
    # subsets do recur across seeds, and are then kept as reuse.)
    graph, __ = build_family("complete", 96, np.random.default_rng(0))
    return graph


def test_fresh_seeds_keep_only_the_phase_one_entry(wide, tmp_path):
    graph = wide
    session = Session(graph, _config(tmp_path), seed=5)
    for __ in range(4):
        result = session.run(SampleRequest()).result
        assert result.phases > 1
    stats = session.cache_stats()
    assert stats["entries"] == stats["disk_entries"] == stats["spills"] == 1
    assert stats["transient"] == stats["misses"] - 1 > 0
    assert _entry_orders(tmp_path) == [graph.n]


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_pinned_seed_admits_on_second_sighting(graph, tmp_path, backend):
    cold = Session(graph, _config(linalg_backend=backend))
    reference = cold.run(SampleRequest(seed=0)).result
    # Another seed puts S = V on the volume, so seed 0's first draw
    # below meets only later-phase keys.
    Session(graph, _config(tmp_path, linalg_backend=backend)).run(
        SampleRequest(seed=7)
    )
    assert _entry_orders(tmp_path) == [graph.n]

    draws, stats = [], []
    for __ in range(3):
        session = Session(graph, _config(tmp_path, linalg_backend=backend))
        draws.append(session.run(SampleRequest(seed=0)).result)
        stats.append(session.cache_stats())
    first, second, third = stats
    assert first["spills"] == 0 and first["transient"] == first["misses"] > 0
    assert first["disk_entries"] == 1
    assert second["transient"] == 0
    assert second["spills"] == second["misses"] == first["misses"]
    assert third["misses"] == 0 and third["disk_hits"] == reference.phases
    for draw in draws:
        assert draw.tree == reference.tree
        assert _ledger_bytes(draw) == _ledger_bytes(reference)


def test_fresh_seed_soak_holds_disk_and_ram_flat(wide, tmp_path):
    session = Session(wide, _config(tmp_path), seed=11)
    footprints = []
    for __ in range(50):
        session.run(SampleRequest())
        footprints.append(
            (_volume_bytes(tmp_path), session.cache_stats()["bytes"])
        )
    assert len(set(footprints)) == 1, footprints[:3]
    assert session.cache_stats()["transient"] > 0


class TestSightingTable:
    def test_size_is_constant_under_many_digests(self, tmp_path):
        tier = DiskTier(tmp_path)
        path = tmp_path / "sightings.bin"
        assert not any(tier.sighted(("key", i)) for i in range(10_000))
        assert path.stat().st_size == TABLE_BYTES
        assert tier.sighted(("key", 9_999))
        assert path.stat().st_size == TABLE_BYTES

    @pytest.mark.parametrize(
        "damage",
        [b"", b"\x01\x02\x03", b"\xa5" * TABLE_BYTES, b"garbage" * TABLE_BYTES],
        ids=["empty", "short", "garbage", "oversized-garbage"],
    )
    def test_damaged_table_reads_as_empty(self, tmp_path, damage):
        tier = DiskTier(tmp_path)
        key = ("fingerprint", (0, 2, 5))
        assert tier.sighted(key) is False
        (tmp_path / "sightings.bin").write_bytes(damage)
        assert tier.sighted(key) is False
        assert tier.sighted(key) is True
        assert (tmp_path / "sightings.bin").stat().st_size == TABLE_BYTES

    def test_cache_clear_resets_the_table(self, tmp_path, capsys):
        tier = DiskTier(tmp_path)
        key = ("fingerprint", (1, 3))
        tier.sighted(key)
        assert main(["cache", "--cache-dir", str(tmp_path), "--clear"]) == 0
        capsys.readouterr()
        assert tier.sighted(key) is False
