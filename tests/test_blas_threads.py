"""The per-worker BLAS thread budget, and identity across thread counts.

Every pool the repo forks caps each worker's OpenBLAS at
``available_cpus() // workers`` threads (:mod:`repro.linalg.threads`).
Matrix entries may move in their last ulps between thread counts; the
trees and round bills must not. The identity cells here compare a
budgeted worker (1 thread per worker on a 2-core host) against the
test process at its default thread count, on the end-to-end
benchmark's two instances (complete and expander n=128, ell=1024,
rho=16, dense and sparse numerics).
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.api import Session
from repro.api.presets import preset_config
from repro.api.requests import request_from_dict
from repro.api.responses import response_from_dict
from repro.engine import EnsembleEngine
from repro.graphs.families import build_family
from repro.linalg import threads
from repro.linalg.threads import (
    available_cpus,
    blas_budget,
    limit_blas_threads,
    mapped_openblas,
)
from repro.service.pool import ShardSupervisor, init_worker, run_task
from repro.service.protocol import ServiceLimits, parse_service_envelope

# The end-to-end benchmark's instances and measured setting.
INSTANCES = {
    "complete-dense": ("complete", {"ell": 1024, "rho": 16,
                                    "linalg_backend": "dense"}),
    "expander-sparse": ("expander", {"ell": 1024, "rho": 16,
                                     "linalg_backend": "sparse"}),
}
N = 128
GRAPH_SEED = 0


def _fork_pool(workers: int, **kwargs) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        **kwargs,
    )


def thread_counts() -> dict[str, int]:
    """Every mapped OpenBLAS's own report of its thread count."""
    counts = {}
    for path in mapped_openblas():
        library = ctypes.CDLL(path)
        for setter in threads.SETTERS:
            getter = setter.replace("_set_", "_get_")
            if hasattr(library, getter):
                counts[path] = int(getattr(library, getter)())
                break
    return counts


def _instance(name: str):
    family, config = INSTANCES[name]
    graph, meta = build_family(family, N, np.random.default_rng(GRAPH_SEED))
    return graph, meta, preset_config("fast-bench", **config)


def _bill(results) -> list:
    return [(r.tree, r.rounds, r.rounds_by_category()) for r in results]


# -- the helper ---------------------------------------------------------


def test_available_cpus_follows_affinity(monkeypatch):
    assert available_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert available_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert available_cpus() == (os.cpu_count() or 1)


def test_jobs_none_sizes_from_affinity(monkeypatch):
    """A pinned process fans out over the CPUs it may use, not the host's."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert EnsembleEngine._resolve_jobs(None, 100) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert EnsembleEngine._resolve_jobs(None, 100) == 3
    assert EnsembleEngine._resolve_jobs(None, 2) == 2


def test_budget_splits_cpus(monkeypatch):
    for name in threads.OVERRIDE_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert [blas_budget(w) for w in (1, 2, 3, 4, 8)] == [4, 2, 1, 1, 1]


def _budgeted_pools():
    """Every pool the repo forks, plus the bare helper as an initializer."""
    return {
        "helper": lambda: _fork_pool(
            2, initializer=limit_blas_threads, initargs=(blas_budget(2),)
        ),
        "ensemble": lambda: EnsembleEngine._pool(2),
        "shards": lambda: ShardSupervisor(
            workers=2, cache_dir=None, session_cap=2
        ).executor(),
    }


@pytest.mark.parametrize("pool_kind", sorted(_budgeted_pools()))
def test_forked_worker_reports_the_budget(pool_kind):
    """Every mapped OpenBLAS in a budgeted worker runs at the budget.

    Under an operator override the budget is ``None`` and the worker
    keeps the thread count the parent was started with.
    """
    parent = thread_counts()
    if not parent:
        pytest.skip("no OpenBLAS mapped into this process")
    budget = blas_budget(2)
    expected = (
        parent if budget is None else {path: budget for path in parent}
    )
    with _budgeted_pools()[pool_kind]() as pool:
        reports = [pool.submit(thread_counts) for _ in range(4)]
        for report in reports:
            assert report.result() == expected
    assert thread_counts() == parent  # the submitting process is untouched


def test_operator_override_changes_nothing(monkeypatch):
    before = thread_counts()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert blas_budget(2) is None
    assert limit_blas_threads(1) == 0
    assert thread_counts() == before
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert limit_blas_threads(1) == 0
    assert thread_counts() == before


def test_no_proc_maps_is_a_noop(monkeypatch, tmp_path):
    for name in threads.OVERRIDE_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(threads, "MAPS", str(tmp_path / "no-such-maps"))
    assert mapped_openblas() == []
    assert limit_blas_threads(1) == 0
    assert limit_blas_threads(None) == 0


def test_supervisor_reports_shard_budget():
    supervisor = ShardSupervisor(workers=2, cache_dir=None, session_cap=2)
    state = supervisor.state()
    assert state["blas_threads"] == blas_budget(2)
    supervisor.shutdown()


def test_serve_budgets_the_front_end(monkeypatch):
    """``serve()`` caps its own process at one share beside its shards.

    Only the ``serve`` entry point does: an in-process ``TreeService``
    keeps its host's threads, and an exported override still wins.
    """
    from repro.service import server

    calls = []
    monkeypatch.setattr(server, "limit_blas_threads", calls.append)

    async def no_server(config):
        return 0

    monkeypatch.setattr(server, "_serve_async", no_server)
    for name in threads.OVERRIDE_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)))
    server.TreeService(server.ServerConfig(workers=2))
    assert calls == []
    assert server.serve(server.ServerConfig(workers=2)) == 0
    assert calls == [2]  # 6 cpus // (2 shards + the front end)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert server.serve(server.ServerConfig(workers=2)) == 0
    assert calls == [2, None]  # the override: limit_blas_threads no-ops


# -- identity across thread counts ---------------------------------------


@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_ensemble_jobs_identical_across_thread_counts(instance):
    """jobs=2 (budgeted workers) == jobs=1 (default threads), draw by draw."""
    graph, _, config = _instance(instance)
    engine = EnsembleEngine(graph, config)
    single = engine.sample_ensemble(6, seed=2024, jobs=1)
    multi = engine.sample_ensemble(6, seed=2024, jobs=2)
    assert not multi.degraded
    assert _bill(multi.results) == _bill(single.results)


@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_budgeted_shard_matches_local_session(instance):
    """A run_task shard under the budget answers like an in-process Session."""
    family, config = INSTANCES[instance]
    request = {"request": "sample", "seed": 31337}
    task = parse_service_envelope(
        {
            "graph": {"family": family, "n": N, "seed": GRAPH_SEED},
            "config": config,
            "request": request,
        },
        ServiceLimits(),
    )
    with _fork_pool(
        2, initializer=init_worker, initargs=(None, 2, blas_budget(2))
    ) as pool:
        served = response_from_dict(pool.submit(run_task, task).result())
    graph, meta, local_config = _instance(instance)
    local = Session(graph, local_config, seed=0, meta=meta).run(
        request_from_dict(request)
    )
    assert _bill([served.result]) == _bill([local.result])
