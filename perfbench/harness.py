"""One benchmark run: one workload against a real ``repro serve``.

A run:

1. sets up a server over a fresh private cache volume: spawn ``python
   -m repro serve``, wait for ``/healthz``, then warm up (one request per
   client, which lands one request on each worker shard; the replay
   workload primes its pinned seeds instead);
2. drives the workload from a closed loop of two client threads for its
   share of ``--seconds``;
3. stops the server with SIGTERM and confirms the drain; steps 1-3 run
   ``SETUPS`` times, so set-up is timed more than once and the window
   is spread over independent servers; the last server also answers
   the identity-gate requests over the endpoint the window does not use;
4. checks that every draw is a spanning tree of the graph with a
   consistent bill, and that the set-up, identity-gate and sampled
   window answers (every answer, on the replay workload) equal a local
   ``Session`` over the final volume: tree, rounds, rounds by category;
5. with ``--trace 1``, replays the sampled window requests serially in
   process, once untraced and once with :mod:`tracing` installed, and
   derives the per-layer numbers.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``). A human summary goes to standard error, and the full
record to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

from repro.service.client import ServiceClient, wait_until_ready

import tracing
from load import closed_loop, concurrently, send
from reference import (
    build_graph, invalid_draw, layer_metrics, ledger_bytes, open_session,
    run_local, same_answer, serial_pass,
)
from server import Server, tree_bytes
from workloads import CLIENTS, WORKLOADS, RequestPlan

SETUPS = 2
DEADLINE_SECONDS = 170  # the whole run, watchdog-enforced
REQUEST_TIMEOUT = 120.0
WORK_DIR = ".perfbench-work"
# Ledger category prefixes reported as clique.rounds.<prefix>.
ROUND_CATEGORIES = ("matmul", "truncation", "placement", "midpoints")
# /stats counters that count crashes, re-dispatches, sheds and timeouts.
ERROR_COUNTERS = (
    "failed", "timeouts", "worker_crashes", "redispatches",
    "rejected_overload", "shed_deadline", "shed_queue_timeout",
)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it
    (never below the median)."""
    if count <= 20:
        return 50
    return max(50, math.floor(100.0 * (count - 10) / count))


def host_fingerprint() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
    }


class Run:
    """State of one benchmark run (one workload, one seed)."""

    def __init__(self, root: Path, args) -> None:
        self.root = root
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.n = self.workload.smoke_n if args.smoke else self.workload.n
        self.graph_spec = self.workload.graph(args.smoke)
        self.graph, self.graph_meta = build_graph(self.workload, self.n)
        self.plan = RequestPlan.make(self.workload, args.seed)
        self.work = root / WORK_DIR / f"run-{os.getpid()}"
        self.servers: list = []
        self.setup_seconds: list[float] = []
        self.outcomes: list = []  # setup and identity-gate requests
        self.windows: list[tuple[float, list]] = []  # (start, outcomes)
        self.window: list = []  # every window's outcomes
        self.rss_peak_mb = 0.0
        self.volume_bytes = 0
        self.distinct_trees = 0
        self.failures: list[str] = []
        self.bad: set[int] = set()  # ids of outcomes that failed a check
        self.details: dict = {}

    # -- server phases --------------------------------------------------

    def _setup(self, index: int):
        volume = self.work / f"cache-{index}"
        logs = self.work / f"log-{index}"
        logs.mkdir(parents=True)
        server = Server(self.root, volume, logs)
        self.servers.append(server)
        start = time.perf_counter()
        port = server.start()
        wait_until_ready(ServiceClient(port=port), timeout=60.0)
        seeds = self.plan.warmup

        def warm(client_index: int) -> list:
            client = ServiceClient(port=port, timeout=REQUEST_TIMEOUT)
            return [
                send(client, self.graph_spec,
                     {**self.workload.request, "seed": seed},
                     self.workload.config, endpoint=self.workload.endpoint,
                     phase="setup", index=client_index)
                for seed in seeds[client_index::CLIENTS]
            ]

        batches = concurrently(
            [lambda i=i: warm(i) for i in range(CLIENTS)]
        )
        self.setup_seconds.append(time.perf_counter() - start)
        for batch in batches:
            self.outcomes.extend(batch)
        return server, port

    def _identity_requests(self) -> list[tuple[dict, str]]:
        """The gate's requests over the endpoint the window does not use.

        Batch workloads add a one-draw stream on the first warm-up seed;
        the stream workload adds a batch ensemble with the same shape.
        """
        seed = self.plan.warmup[0]
        if self.workload.endpoint == "/v1/run":
            return [({"request": "ensemble", "count": 1, "jobs": 1,
                      "seed": seed}, "/v1/stream")]
        return [({**self.workload.request, "seed": seed}, "/v1/run")]

    def serve(self) -> None:
        counters: dict[str, int] = {}
        for index in range(SETUPS):
            server, port = self._setup(index)
            warm = self.outcomes[-len(self.plan.warmup):]
            client = ServiceClient(port=port, timeout=REQUEST_TIMEOUT)
            before = client.stats()["counters"]
            start, outcomes = closed_loop(
                port, self.workload, self.graph_spec, self.plan.clients,
                self.args.seconds / SETUPS, timeout=REQUEST_TIMEOUT,
            )
            after = client.stats()["counters"]
            for key in after:
                counters[key] = (
                    counters.get(key, 0) + after[key] - before.get(key, 0)
                )
            self.windows.append((start, outcomes))
            self.window.extend(outcomes)
            self.rss_peak_mb = max(self.rss_peak_mb, server.rss_peak_mb())
            self.volume_bytes += tree_bytes(server.cache_dir)
            # Distinct draws this server computed: a repeated request
            # (the replay cycle) adds nothing to its volume.
            self.distinct_trees += sum({
                json.dumps(o.request, sort_keys=True): len(o.results)
                for o in warm + outcomes
            }.values())
            if index == SETUPS - 1:
                for request, endpoint in self._identity_requests():
                    self.outcomes.append(send(
                        client, self.graph_spec, request,
                        self.workload.config, endpoint=endpoint,
                        phase="identity",
                    ))
            self._stop(server, f"server-{index}")
            if index < SETUPS - 1:
                shutil.rmtree(server.cache_dir, ignore_errors=True)
        self.final_volume = server.cache_dir
        self.details["counters_delta"] = counters
        self.details["windows"] = [
            [[o.client, o.seed, round(o.sent - start, 4), round(o.latency, 4),
              o.engine_seconds, o.service_seconds, o.error] for o in outcomes]
            for start, outcomes in self.windows
        ]

    def _stop(self, server, label: str) -> None:
        stopped = server.stop()
        self.details.setdefault("stops", {})[label] = stopped
        if not stopped["drained"] or stopped["leftover_processes"]:
            self.failures.append(f"server {label} did not drain: {stopped}")

    def kill_servers(self) -> None:
        for server in self.servers:
            server.kill()

    # -- correctness ----------------------------------------------------

    def verify(self) -> None:
        """Served answers vs a local Session over the final volume.

        Every draw must be a spanning tree of the graph with a consistent
        bill. The set-up and identity-gate answers, the :meth:`sampled`
        window answers and every answer that repeats one of those
        requests (all of them on the replay workload) must also equal
        the local Session's, draw for draw.
        """
        session = open_session(
            self.workload, self.graph, self.graph_meta, self.final_volume
        )
        expected: dict[str, list] = {}
        checked = self.outcomes + self.sampled()
        compared = 0
        for outcome in self.outcomes + self.window:
            if outcome.error is not None:
                continue
            for result in outcome.results:
                problem = invalid_draw(self.graph, result)
                if problem:
                    self._mismatch(outcome, problem)
                    break
            key = json.dumps([outcome.request, outcome.endpoint],
                             sort_keys=True)
            if key not in expected and any(o is outcome for o in checked):
                expected[key] = run_local(
                    session, outcome.request, outcome.endpoint
                )
            if key in expected:
                compared += 1
                if not same_answer(outcome.results, expected[key]):
                    self._mismatch(outcome, "differs from the local Session")
        self.details["identity_checked"] = compared

    def sampled(self) -> list:
        """The first ``serial_requests`` answered requests of client 0 in
        the last window: its own sequence, so the replay cycle is not
        doubled up, served over the volume :meth:`verify` reads."""
        __, last = self.windows[-1]
        mine = [o for o in last if o.client == 0 and o.error is None]
        return mine[: self.workload.serial_requests]

    def _mismatch(self, outcome, problem: str) -> None:
        if id(outcome) not in self.bad:
            self.bad.add(id(outcome))
            self.failures.append(
                f"{outcome.phase} {outcome.endpoint} seed={outcome.seed}: "
                f"{problem}"
            )

    def ok(self, outcome) -> bool:
        return outcome.error is None and id(outcome) not in self.bad

    # -- metrics ----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        window = self.window
        good = [o for o in window if self.ok(o)]
        latencies = [o.latency for o in good]
        tail = tail_percentile(len(latencies))
        self.details["latency_samples"] = len(latencies)
        self.details["latency_tail_percentile"] = tail
        rate = 0.0
        for client in {o.client for o in good}:
            trees = busy = 0.0
            for start, outcomes in self.windows:
                mine = [o for o in outcomes
                        if o.client == client and self.ok(o)]
                if mine:
                    trees += sum(len(o.results) for o in mine)
                    busy += max(o.done for o in mine) - start
            rate += trees / busy
        draws = [r for o in good for r in o.results]
        return {
            "latency_p50_s": percentile(latencies, 50),
            "latency_tail_s": percentile(latencies, tail),
            "first_result_p50_s": percentile(
                [o.first - o.sent for o in good], 50
            ),
            "draws_per_s": rate,
            "success_frac": len(good) / len(window) if window else 0.0,
            "setup_s": statistics.median(self.setup_seconds),
            "disk_mb_per_draw": (
                self.volume_bytes / 2**20 / max(1, self.distinct_trees)
            ),
            "rss_peak_mb": self.rss_peak_mb,
            "rounds_per_draw": (
                statistics.fmean(r.rounds for r in draws) if draws else 0.0
            ),
        }

    def service_layers(self) -> dict[str, float]:
        good = [o for o in self.window if self.ok(o)]
        delta = self.details["counters_delta"]
        admitted = max(1, delta.get("admitted", 0))
        batch = self.workload.endpoint == "/v1/run"
        overhead = [
            o.latency - (o.service_seconds if batch else o.engine_seconds)
            for o in good
        ]
        dispatch = [o.service_seconds - o.engine_seconds for o in good] \
            if batch else [0.0]
        draws = [r for o in good for r in o.results]
        rounds: dict[str, float] = {}
        for prefix in ROUND_CATEGORIES:
            rounds[f"clique.rounds.{prefix}"] = statistics.fmean(
                sum(v for k, v in r.rounds_by_category().items()
                    if k.split("/")[0] == prefix)
                for r in draws
            ) if draws else 0.0
        return {
            "service.http_overhead_s": percentile(overhead, 50),
            "service.dispatch_s": percentile(dispatch, 50),
            "service.queue_wait_ms": delta.get("queue_wait_ms", 0) / admitted,
            "service.queued_frac": delta.get("queued", 0) / admitted,
            "client.retry_frac": (
                sum(o.attempts - 1 for o in self.window)
                / max(1, len(self.window))
            ),
            "service.errors": float(
                sum(delta.get(k, 0) for k in ERROR_COUNTERS)
            ),
            "api.run_s": percentile([o.engine_seconds for o in good], 50),
            **rounds,
        }

    def traced_layers(self) -> dict[str, float]:
        """Serial in-process passes: untraced, then traced."""
        chosen = [o for o in self.sampled() if self.ok(o)]
        requests = [(o.request, o.endpoint) for o in chosen]
        seeds = self.plan.warmup[:1]
        if self.workload.pinned:
            # Warm with the whole cycle, ending just before the first
            # sampled seed: the RAM tier then holds what a shard's does
            # in steady state, and the sampled seed is the oldest entry.
            turn = self.plan.warmup.index(chosen[0].seed)
            seeds = self.plan.warmup[turn:] + self.plan.warmup[:turn]
        warm = [({**self.workload.request, "seed": seed},
                 self.workload.endpoint) for seed in seeds]
        primed = self.work / "serial-primed"

        def session_for(label: str):
            if self.workload.pinned:
                # Replay: both passes read one volume primed once with
                # every pinned seed, as the server's was.
                volume = primed
            else:
                volume = self.work / f"serial-{label}"
            session = open_session(
                self.workload, self.graph, self.graph_meta, volume
            )
            for request, endpoint in warm:
                run_local(session, request, endpoint)
            return session

        untraced = serial_pass(session_for("untraced"), requests)
        tracer = tracing.Tracer()
        session = session_for("traced")
        with tracing.installed(tracer):
            traced = serial_pass(session, requests, tracer)
        leaked = tracing.leaked_wrappers()
        if leaked:
            self.failures.append(f"tracer left wrappers behind: {leaked}")
        for index, outcome in enumerate(chosen):
            if not same_answer(outcome.results, untraced.results[index]):
                self._mismatch(outcome, "differs from the serial pass")
            if ledger_bytes(untraced.results[index]) != ledger_bytes(
                traced.results[index]
            ):
                self.failures.append(
                    f"traced pass changed the tree or ledger of seed "
                    f"{outcome.seed}"
                )
        layers = layer_metrics(tracer, traced, untraced)
        served = statistics.median(o.engine_seconds for o in chosen)
        layers["service.contention_ratio"] = served / statistics.median(
            untraced.seconds
        )
        self.details["serial"] = {
            "requests": len(requests),
            "draws": traced.draws,
            "untraced_seconds": untraced.seconds,
            "traced_seconds": traced.seconds,
            "cache_delta": traced.stats,
        }
        return layers

    # -- report -----------------------------------------------------------

    def counts(self) -> dict:
        by_phase: dict[str, dict] = {}
        for outcome in self.outcomes + self.window:
            entry = by_phase.setdefault(
                outcome.phase, {"sent": 0, "succeeded": 0, "failed": 0}
            )
            entry["sent"] += 1
            entry["succeeded" if self.ok(outcome) else "failed"] += 1
        return by_phase


def _metric_specs(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _on_deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_SECONDS} s")


def main(root: Path, args) -> int:
    """One run; prints the result line and returns the exit code."""
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    specs = _metric_specs(root)[args.trace]

    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_SECONDS)
    started = time.perf_counter()
    run = Run(root, args)
    steps = run.details["step_seconds"] = {}

    def step(name: str, action):
        mark = time.perf_counter()
        value = action()
        steps[name] = round(time.perf_counter() - mark, 3)
        return value

    try:
        step("serve", run.serve)
        step("verify", run.verify)
        if args.trace:
            metrics = {**run.service_layers(),
                       **step("serial", run.traced_layers)}
        else:
            metrics = run.end_to_end()
    except BaseException:
        run.kill_servers()
        raise
    finally:
        signal.alarm(0)
        shutil.rmtree(run.work, ignore_errors=True)

    missing = sorted(set(specs) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    counts = run.counts()
    attempted = sum(c["sent"] for c in counts.values())
    failed = sum(c["failed"] for c in counts.values())
    correct = not run.failures
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "n": run.n,
        "host": host_fingerprint(),
        "requests": counts,
        "setup_seconds": run.setup_seconds,
        "failures": run.failures,
        "wall_seconds": time.perf_counter() - started,
        "metrics": metrics,
        **run.details,
    }
    results = root / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str))
    for line in run.failures:
        print(f"FAIL {line}", file=sys.stderr)
    for key in sorted(metrics):
        print(f"{key:34s} {metrics[key]:.6g}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": float(metrics[key]), "unit": unit}
            for key, unit in specs.items()
        },
    }))
    return 0 if correct else 1
