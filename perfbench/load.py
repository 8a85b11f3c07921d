"""Client side: one request, and the closed loop of the timed window.

Each caller sends its next request only after the previous reply has
fully arrived (a closed loop, like the retrying ``ServiceClient`` used
as designed). Times are ``time.perf_counter`` readings in the client.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.service.client import ServiceClient

from workloads import CLIENTS, Workload


@dataclass
class Outcome:
    """One request as the client saw it."""

    phase: str  # "setup", "identity" or "window"
    client: int
    request: dict  # the wire request, seed included
    endpoint: str
    sent: float
    done: float = 0.0
    first: float | None = None  # first tree record received
    results: list = field(default_factory=list)  # SampleResult draws
    engine_seconds: float | None = None  # meta.seconds / summary.seconds
    service_seconds: float | None = None  # meta.service_seconds
    attempts: int = 1
    error: str | None = None

    @property
    def seed(self) -> int:
        return self.request["seed"]

    @property
    def latency(self) -> float:
        return self.done - self.sent


def send(
    client: ServiceClient, graph: dict, request: dict, config: dict, *,
    endpoint: str, phase: str, index: int = 0,
) -> Outcome:
    """Send one wire request to ``endpoint``; never raises."""
    outcome = Outcome(phase, index, request, endpoint, time.perf_counter())
    try:
        if endpoint == "/v1/run":
            response = client.run(graph, request, config=config)
            outcome.done = outcome.first = time.perf_counter()
            result = response.result
            outcome.results = list(getattr(result, "results", [result]))
            outcome.engine_seconds = response.meta.get("seconds")
            outcome.service_seconds = response.meta.get("service_seconds")
            outcome.attempts = client.last_attempts
        else:
            stream = client.stream(graph, request, config=config)
            while True:
                try:
                    __, result = next(stream)
                except StopIteration as stop:
                    summary = stop.value
                    break
                if outcome.first is None:
                    outcome.first = time.perf_counter()
                outcome.results.append(result)
            outcome.done = time.perf_counter()
            if summary is None:
                raise ReproError("stream ended without a summary record")
            outcome.engine_seconds = summary.seconds
            outcome.attempts = summary.attempts
    except (
        ReproError, OSError, http.client.HTTPException, ValueError
    ) as error:
        outcome.done = time.perf_counter()
        outcome.error = f"{type(error).__name__}: {error}"
    return outcome


def concurrently(jobs) -> list:
    """Run zero-argument callables on one thread each; results in order."""
    results: list = [None] * len(jobs)

    def body(i, job):
        results[i] = job()

    threads = [
        threading.Thread(target=body, args=(i, job), daemon=True)
        for i, job in enumerate(jobs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def closed_loop(
    port: int, workload: Workload, graph: dict, seed_streams, seconds: float,
    *, timeout: float,
) -> tuple[float, list[Outcome]]:
    """``CLIENTS`` callers loop until ``seconds`` pass; in-flight requests
    finish. Returns the window start and every outcome, in send order."""
    start = time.perf_counter()
    stop_at = start + seconds

    def caller(index: int) -> list[Outcome]:
        client = ServiceClient(port=port, timeout=timeout)
        outcomes = []
        seeds = seed_streams[index]
        while time.perf_counter() < stop_at:
            request = {**workload.request, "seed": next(seeds)}
            outcomes.append(send(
                client, graph, request, workload.config,
                endpoint=workload.endpoint, phase="window", index=index,
            ))
        return outcomes

    per_client = concurrently(
        [lambda i=i: caller(i) for i in range(CLIENTS)]
    )
    outcomes = sorted(
        (o for batch in per_client for o in batch), key=lambda o: o.sent
    )
    return start, outcomes
