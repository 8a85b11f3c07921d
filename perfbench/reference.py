"""In-process ``Session`` work: the identity gate and the serial passes.

Every answer the server gives is compared with what a local
:class:`~repro.api.session.Session` under the server's configuration
produces for the same request: the tree, the billed rounds and the
rounds by ledger category (cached numerics bill one aggregated charge,
so raw ledger entries are not part of the contract).

The serial passes replay the window's requests one at a time, once
untraced and once under :mod:`tracing`, each over its own cache volume.
Their trees and full ledgers must be byte-identical to each other.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api.presets import preset_config
from repro.api.requests import request_from_dict
from repro.api.session import Session
from repro.graphs.families import build_family
from repro.graphs.spanning import is_spanning_tree

import tracing
from workloads import GRAPH_SEED, PRESET, Workload


def build_graph(workload: Workload, n: int):
    """The instance every server worker builds from the graph spec."""
    return build_family(workload.family, n, np.random.default_rng(GRAPH_SEED))


def open_session(workload: Workload, graph, meta, cache_dir: Path) -> Session:
    config = preset_config(PRESET, **workload.config, cache_dir=str(cache_dir))
    return Session(graph, config, seed=0, meta=meta)


def run_local(session: Session, request: dict, endpoint: str) -> list:
    """The draws a local session gives for one wire request."""
    typed = request_from_dict(request)
    if endpoint == "/v1/stream":
        return list(session.stream(typed))
    result = session.run(typed).result
    return list(getattr(result, "results", [result]))


def same_answer(served: list, local: list) -> bool:
    return len(served) == len(local) and all(
        a.tree == b.tree
        and a.rounds == b.rounds
        and a.rounds_by_category() == b.rounds_by_category()
        for a, b in zip(served, local)
    )


def invalid_draw(graph, result) -> str | None:
    """Why one served draw is not a well-formed answer, or None."""
    if not is_spanning_tree(graph, result.tree):
        return "not a spanning tree of the graph"
    if result.rounds <= 0 or result.rounds != sum(
        result.rounds_by_category().values()
    ):
        return "round total disagrees with its categories"
    return None


def ledger_bytes(results: list) -> list[str]:
    """Canonical bytes of each draw's tree and full ledger."""
    return [
        json.dumps({"tree": r.to_dict()["tree"], "ledger": r.ledger.to_dict()},
                   sort_keys=True)
        for r in results
    ]


def _wchar() -> int:
    """Bytes this process has passed to write() so far."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


@dataclass
class SerialPass:
    """One serial replay of the window's requests."""

    seconds: list[float] = field(default_factory=list)  # per request
    results: list = field(default_factory=list)  # per request: draws
    stats: dict = field(default_factory=dict)  # cache counter deltas
    written_bytes: int = 0

    @property
    def draws(self) -> int:
        return sum(len(r) for r in self.results)


def serial_pass(
    session: Session, requests: list[tuple[dict, str]],
    tracer: tracing.Tracer | None = None,
) -> SerialPass:
    """Run ``requests`` one by one on ``session`` (traced if given)."""
    out = SerialPass()
    before = session.cache_stats()
    written = _wchar()
    for index, (request, endpoint) in enumerate(requests):
        start = time.perf_counter()
        if tracer is None:
            out.results.append(run_local(session, request, endpoint))
        else:
            tracer.request = index
            with tracer.span("request", "request"):
                out.results.append(run_local(session, request, endpoint))
        out.seconds.append(time.perf_counter() - start)
    out.written_bytes = _wchar() - written
    after = session.cache_stats()
    out.stats = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: tracing.Tracer, traced: SerialPass, untraced: SerialPass
) -> dict[str, float]:
    """Per-layer numbers of one traced pass, per draw where timed."""
    draws = traced.draws
    own = tracer.self_times()
    spans = tracer.spans
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    count = Counter(span.name for span in spans)
    for span, seconds in zip(spans, own):
        self_by_name[span.name] += seconds
        self_by_layer[span.layer] += seconds

    def nested(child: str, parent: str) -> int:
        return sum(
            1 for span in spans
            if span.name == child and span.parent >= 0
            and spans[span.parent].name == parent
        )

    requests_total = sum(
        span.end - span.start for span in spans if span.name == "request"
    )
    work = sum(self_by_layer[layer] for layer in tracing.WORK_LAYERS)
    eliminated = [
        span.attribute for span in spans if span.name == "linalg.shortcut"
    ]
    stats = traced.stats
    lookups = stats.get("hits", 0) + stats.get("disk_hits", 0) + stats.get(
        "misses", 0
    )
    draws_list = [r for request in traced.results for r in request]
    phase_stats = [s for r in draws_list for s in r.phase_stats]
    per_draw = 1.0 / draws

    def per(name: str) -> float:
        return self_by_name[name] * per_draw

    return {
        "engine.self_s": self_by_layer["engine"] * per_draw,
        "engine.phases_per_draw": statistics.fmean(
            r.phases for r in draws_list
        ),
        "linalg.shortcut_s": per("linalg.shortcut"),
        "linalg.schur_s": per("linalg.schur"),
        "linalg.ladder_s": per("linalg.ladder"),
        "linalg.transition_s": per("linalg.transition"),
        "linalg.builds_per_draw": count["linalg.shortcut"] * per_draw,
        "linalg.eliminated_mean": (
            statistics.fmean(eliminated) if eliminated else 0.0
        ),
        "store.spill_s": per("store.spill"),
        "store.plan_spill_s": per("store.plan_spill"),
        "store.lookup_s": per("store.lookup"),
        "store.ram_insert_s": per("store.ram_insert"),
        "store.refresh_s": per("store.refresh"),
        "store.disk_mb_written_per_draw": (
            traced.written_bytes / 2**20 * per_draw
        ),
        "store.ram_hit_ratio": _ratio(stats.get("hits", 0), lookups),
        "store.disk_hit_ratio": _ratio(stats.get("disk_hits", 0), lookups),
        "store.evictions_per_draw": stats.get("evictions", 0) * per_draw,
        "walk.self_s": self_by_layer["walk"] * per_draw,
        "walk.fill_s": per("walk.fill"),
        "walk.midpoints_s": per("walk.midpoints"),
        "walk.truncation_s": per("walk.truncation"),
        "walk.placement_s": per("walk.placement"),
        "walk.levels_per_draw": sum(s.levels for s in phase_stats) * per_draw,
        "walk.extensions_per_draw": (
            sum(s.extensions for s in phase_stats) * per_draw
        ),
        "walk.fallbacks_per_draw": (
            sum(s.brute_force_fallbacks for s in phase_stats) * per_draw
        ),
        "matching.self_s": self_by_layer["matching"] * per_draw,
        "matching.dp_prepare_s": per("matching.dp_prepare"),
        "matching.dp_prepares_per_draw": (
            count["matching.dp_prepare"] * per_draw
        ),
        "matching.dp_memo_hit_ratio": 1.0 - _ratio(
            nested("matching.dp_prepare", "matching.prepared_dp"),
            count["matching.prepared_dp"],
        ),
        "firstvisit.self_s": self_by_layer["firstvisit"] * per_draw,
        "firstvisit.cold_s": per("firstvisit.cold"),
        "firstvisit.memo_hit_ratio": 1.0 - _ratio(
            nested("firstvisit.cold", "firstvisit.memo"),
            count["firstvisit.memo"],
        ),
        "api.self_s": self_by_layer["api"] * per_draw,
        "trace.request_s": requests_total * per_draw,
        "trace.remainder_frac": 1.0 - _ratio(work, requests_total),
        "trace.overhead_frac": (
            sum(traced.seconds) / sum(untraced.seconds) - 1.0
        ),
        "trace.spans_per_draw": len(spans) * per_draw,
    }
