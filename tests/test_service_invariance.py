"""Host-invariance: any worker on any host serves byte-identical draws.

The serving layer's core reproducibility claim: because every ensemble
draw is keyed to its own spawned child of the request's pinned master
seed (PR 2), and the tiered cache stores only *deterministic* derived
numerics (PR 4), the same request answered by two different server
processes -- stand-ins for two hosts mounting one shared ``cache_dir``
volume -- returns byte-identical trees and round ledgers, equal to a
direct in-process Session. One server is cold and populates the shared
disk tier; the other warm-starts from it; invariance holding *across*
that asymmetry is precisely the cache-correctness property.

Swept over every engine variant (approximate, exact, broadcast), batch
and streamed delivery. For the broadcast variant the invariant
additionally covers ``rounds_by_category()`` carrying the
broadcast-bandwidth category: its charges are an analytic recipe over
seed-deterministic walk statistics, so warm and cold workers on any
host bill identical category totals.

The MST workload gets the same grid: both registered recipes, two
servers over one cache volume, batch == stream ==
direct local Session with byte-identical forests and identical round
bills, plus its own kill-a-worker-mid-request chaos cell -- the
workload registry's promise that a second workload inherits the
serving substrate (and its invariants) wholesale.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import EnsembleRequest, MSTRequest, Session
from repro.api.presets import preset_config
from repro.core.workloads import workload_recipe_names
from repro.service.client import (
    ServiceClient,
    ServiceUnavailable,
    wait_until_ready,
)
from repro.service.protocol import ServiceLimits, parse_service_envelope

from tests.chaosutil import fault_env, tokens_fired
from tests.test_service import start_server, stop_server

GRAPH = {"family": "cycle", "n": 8, "seed": 0}
# The ids keep the "-v2" suffix of the retired RNG-contract axis, so
# test ids stay stable.
CELLS = [
    pytest.param(variant, id=f"{variant}-v2")
    for variant in ("approximate", "exact", "broadcast")
]
MST_CELLS = [
    pytest.param(recipe, id=f"{recipe}-v2")
    for recipe in workload_recipe_names("mst")
]


@pytest.fixture(scope="module")
def server_pair(tmp_path_factory):
    """Two servers sharing one cache volume via $REPRO_CACHE_DIR."""
    shared = tmp_path_factory.mktemp("shared-cache-volume")
    env = {"REPRO_CACHE_DIR": str(shared)}
    servers = []
    try:
        for _ in range(2):
            proc, port = start_server(
                "--workers", "2", "--cache-dir", "auto", env_extra=env
            )
            client = ServiceClient(port=port)
            wait_until_ready(client)
            servers.append((proc, client))
        yield [client for _, client in servers]
    finally:
        for proc, _ in servers:
            stop_server(proc, expect_code=None)


def local_draws(variant: str):
    task = parse_service_envelope(
        {"graph": GRAPH, "request": {"request": "sample"}}, ServiceLimits()
    )
    graph, meta = task.build_graph()
    config = preset_config("fast-bench", ell=1024)
    session = Session(graph, config, seed=0, meta=meta)
    response = session.run(
        EnsembleRequest(count=3, variant=variant, seed=99, jobs=1)
    )
    return response.result.results


@pytest.mark.parametrize("variant", CELLS)
def test_two_servers_match_each_other_and_local(server_pair, variant):
    request = {
        "request": "ensemble", "count": 3, "variant": variant, "seed": 99,
    }
    overrides = {"ell": 1024}

    local = local_draws(variant)
    server_a, server_b = server_pair
    batch_a = server_a.run(GRAPH, request, config=overrides).result.results
    batch_b = server_b.run(GRAPH, request, config=overrides).result.results
    streamed_b, summary = server_b.stream_collect(
        GRAPH, request, config=overrides
    )

    # The bill is the invariant: trees, per-draw round totals,
    # per-category round sums and the full raw ledger are byte-equal
    # everywhere. The ledger never depends on which engines are warm,
    # which is exactly what varies across hosts.
    def bill(results):
        return [
            (
                r.tree,
                r.rounds,
                r.rounds_by_category(),
                json.dumps(r.ledger.to_dict(), sort_keys=True),
            )
            for r in results
        ]

    reference = bill(local)
    if variant == "broadcast":
        # Every charge lands in the Broadcast CC bandwidth category --
        # the new accounting regime the registry routes this variant to.
        for _, _, categories, _ in reference:
            assert set(categories) == {"broadcast-bandwidth"}
    for label, results in (
        ("server A batch", batch_a),
        ("server B batch", batch_b),
        ("server B stream", streamed_b),
    ):
        assert bill(results) == reference, (
            f"{label} diverged from local session"
        )
    assert summary is not None and summary.degraded is False


def test_second_server_warm_starts_from_shared_volume(server_pair):
    """After the sweep, both servers see a populated shared disk tier.

    Disk hits on a server that never computed those numerics itself is
    the observable cross-process warm start (the 'two hosts, one
    volume' deployment the shard layer is built around).
    """
    server_a, server_b = server_pair
    request = {"request": "ensemble", "count": 2, "seed": 7}
    overrides = {"ell": 1024}
    _, summary_a = server_a.stream_collect(GRAPH, request, config=overrides)
    _, summary_b = server_b.stream_collect(GRAPH, request, config=overrides)
    assert summary_a is not None and summary_b is not None
    for summary in (summary_a, summary_b):
        cache = summary.cache
        assert cache, "stream summaries must carry cache counters"
        total_disk = cache.get("disk_hits", 0) + cache.get("hits", 0)
        assert total_disk > 0, cache


def local_mst(recipe: str):
    """The direct in-process MSTReport the served answers must equal."""
    task = parse_service_envelope(
        {"graph": GRAPH, "request": {"request": "mst"}}, ServiceLimits()
    )
    graph, meta = task.build_graph()
    config = preset_config("fast-bench", ell=1024)
    session = Session(graph, config, seed=0, meta=meta)
    return session.run(MSTRequest(recipe=recipe, seed=99)).result


@pytest.mark.parametrize("recipe", MST_CELLS)
def test_mst_servers_match_each_other_and_local(server_pair, recipe):
    """MST batch == stream == local, byte-identical, both servers.

    The whole report is the invariant -- forest, canonical total
    weight (byte-exact float), round bill, per-category totals, and
    the oracle verdict fields -- because MST weights derive from
    (edge order, mode, seed) alone, independent of which host answers.
    """
    request = {"request": "mst", "recipe": recipe, "seed": 99}
    overrides = {"ell": 1024}

    reference = local_mst(recipe)
    assert reference.oracle_match and len(reference.forest) == 7
    server_a, server_b = server_pair
    batch_a = server_a.run(GRAPH, request, config=overrides).result
    batch_b = server_b.run(GRAPH, request, config=overrides).result
    streamed_b, summary = server_b.stream_collect(
        GRAPH, request, config=overrides
    )
    assert batch_a == reference, "server A diverged from local session"
    assert batch_b == reference, "server B diverged from local session"
    assert streamed_b == [reference], "stream diverged from local session"
    assert summary is not None and summary.count == 1
    assert summary.degraded is False


def _bill(results):
    return [(r.tree, r.rounds, r.rounds_by_category()) for r in results]


@pytest.mark.parametrize("variant", CELLS)
def test_killed_worker_redispatch_is_byte_identical(tmp_path, variant):
    """Invariance survives a worker crash: re-dispatch changes nothing.

    The first shard task to run is SIGKILLed mid-draw; the supervisor
    respawns the pool and re-dispatches. Because every draw's randomness
    is pinned to its own spawned seed, the retried request must bill
    exactly what an uninterrupted in-process Session bills -- per
    variant. A crash that shifted even one draw's
    stream would surface here as a tree or ledger diff.
    """
    tokens = tmp_path / "tokens"
    proc, port = start_server(
        "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
        env_extra=fault_env("worker.task=kill#1", tokens),
    )
    client = ServiceClient(port=port, retries=0)
    try:
        wait_until_ready(client)
        request = {
            "request": "ensemble", "count": 3, "variant": variant,
            "seed": 99,
        }
        overrides = {"ell": 1024}
        response = client.run(GRAPH, request, config=overrides)
        assert _bill(response.result.results) == _bill(
            local_draws(variant)
        ), f"{variant} diverged after crash re-dispatch"
        counters = client.stats()["counters"]
        assert tokens_fired(tokens) == 1
        assert counters["worker_crashes"] == 1
        assert counters["redispatches"] == 1
        assert counters["degraded_batches"] == 0
    finally:
        assert stop_server(proc) == 0


def test_mst_killed_worker_redispatch_is_byte_identical(tmp_path):
    """The MST chaos cell: a mid-request SIGKILL changes nothing.

    Same harness as the ensemble cell -- the first shard task is killed
    mid-run, the supervisor respawns and re-dispatches -- but the
    retried workload is an MSTRequest. Idempotence holds for the same
    reason: the instance's weights are pinned to the request seed, so
    the re-dispatched run rebuilds the identical oracle-gated forest
    and bill.
    """
    tokens = tmp_path / "tokens"
    proc, port = start_server(
        "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
        env_extra=fault_env("worker.task=kill#1", tokens),
    )
    client = ServiceClient(port=port, retries=0)
    try:
        wait_until_ready(client)
        request = {"request": "mst", "recipe": "node-cc-msf", "seed": 99}
        response = client.run(GRAPH, request, config={"ell": 1024})
        reference = local_mst("node-cc-msf")
        assert response.result == reference, (
            "mst diverged after crash re-dispatch"
        )
        assert response.result.oracle_match
        counters = client.stats()["counters"]
        assert tokens_fired(tokens) == 1
        assert counters["worker_crashes"] == 1
        assert counters["redispatches"] == 1
        assert counters["degraded_batches"] == 0
    finally:
        assert stop_server(proc) == 0


def test_overload_sheds_instead_of_missing_deadlines(tmp_path):
    """Under overload, no accepted request misses its deadline.

    One slot, slowed workers (a delay fault pads every batch task), and
    a burst of deadline-carrying requests: the admission queue must
    split the burst into (a) accepted requests that all complete within
    their deadline and (b) shed requests answered immediately with 429 +
    Retry-After -- never a request that waits, runs, and lands late.
    """
    deadline_ms = 1000
    proc, port = start_server(
        "--workers", "1", "--max-inflight", "1", "--queue-depth", "8",
        "--cache-dir", str(tmp_path / "cache"),
        env_extra=fault_env(
            "worker.task=delay:0.3", tmp_path / "tokens"
        ),
    )
    try:
        client = ServiceClient(port=port, retries=0)
        wait_until_ready(client)
        # Warm-up: establishes the cache AND the service-time EWMA the
        # admission queue's deadline estimates are built from.
        client.run(GRAPH, {"request": "sample", "seed": 1})

        def attempt(seed: int):
            local = ServiceClient(port=port, retries=0)
            start = time.monotonic()
            try:
                response = local.run(
                    GRAPH, {"request": "sample", "seed": seed},
                    deadline_ms=deadline_ms,
                )
            except ServiceUnavailable as error:
                return ("shed", time.monotonic() - start, error)
            return ("ok", time.monotonic() - start, response)

        with ThreadPoolExecutor(max_workers=6) as pool:
            outcomes = list(pool.map(attempt, range(2, 8)))

        accepted = [o for o in outcomes if o[0] == "ok"]
        shed = [o for o in outcomes if o[0] == "shed"]
        assert accepted, "overload must not shed everything"
        assert shed, "6 bursts into a 0.3s/task single slot must shed"
        for _, elapsed, _ in accepted:
            # The property under test: accepted => completed in budget
            # (small client-side slack for connection+parse overhead).
            assert elapsed <= deadline_ms / 1000 + 0.2, (
                f"accepted request finished late: {elapsed:.3f}s"
            )
        for _, elapsed, error in shed:
            assert elapsed < deadline_ms / 1000, (
                "shedding must be prompt, not a timed-out wait"
            )
            assert error.retry_after is not None and error.retry_after > 0
        counters = client.stats()["counters"]
        assert counters["shed_deadline"] >= 1, counters
        assert counters["completed"] == 1 + len(accepted)
        assert client.stats()["inflight"] == 0
    finally:
        assert stop_server(proc) == 0
