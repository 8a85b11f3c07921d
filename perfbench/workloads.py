"""The benchmark's workloads and the request plans made from a seed.

Every workload talks to the same server (``--workers 2 --preset
warm-service`` over a private cache volume) and sends the measured
setting ``config = {"ell": 1024, "rho": 16}`` on every request. A run's
requests are a pure function of ``(workload, --seed)``; the server only
ever sees the generated requests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

CONFIG = {"ell": 1024, "rho": 16}
CLIENTS = 2
PRESET = "warm-service"
WORKERS = 2
GRAPH_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str
    n: int
    smoke_n: int
    endpoint: str  # "/v1/run" or "/v1/stream"
    request: dict  # the wire request, minus its seed
    config: dict = field(default_factory=lambda: dict(CONFIG))
    # > 0: the window cycles over this many pinned seeds, all drawn once
    # during set-up (the replay workload).
    pinned: int = 0
    # Requests of the window replayed by each serial in-process pass.
    serial_requests: int = 4

    def graph(self, smoke: bool = False) -> dict:
        n = self.smoke_n if smoke else self.n
        return {"family": self.family, "n": n, "seed": GRAPH_SEED}


# Sizes are set by sample count, not by the headline instance: on two
# cores a fresh complete n=384 draw takes 4-9 s under two clients, so a
# 20 s window would hold about 8 latencies. At n=128 a window holds about
# 30. The replay cycle must outgrow each shard's 64-entry RAM tier: a
# complete n=128 draw has 8 later-phase entries, so 10 pinned seeds put 80
# entries in the cycle and every later phase comes back from the disk
# tier. Ensembles of 2 keep a multi-record stream while the front end's
# single session lock serialises the two clients.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fresh-dense",
            why=(
                "headline traffic: a new seed per /v1/run sample on complete "
                "n=128 (dense), on the worker shards: ShortCut, Schur, "
                "ladder, contingency-DP prepares and disk spills every draw"
            ),
            family="complete",
            n=128,
            smoke_n=40,
            endpoint="/v1/run",
            request={"request": "sample"},
            serial_requests=4,
        ),
        Workload(
            name="fresh-sparse",
            why=(
                "a new seed per /v1/stream ensemble of 2 on expander n=128 "
                "with the sparse backend pinned: CSR kernels and the NDJSON "
                "front-end path, no shard hop"
            ),
            family="expander",
            n=128,
            smoke_n=40,
            endpoint="/v1/stream",
            request={"request": "ensemble", "count": 2, "jobs": 1},
            config={**CONFIG, "linalg_backend": "sparse"},
            serial_requests=2,
        ),
        Workload(
            name="replay-dense",
            why=(
                "/v1/run samples cycling over 10 pinned seeds drawn in set-up "
                "on complete n=128: disk-tier reads and the walk, linalg idle "
                "(BENCH_*.json are replay/cold microbenchmarks, not this)"
            ),
            family="complete",
            n=128,
            smoke_n=40,
            endpoint="/v1/run",
            request={"request": "sample"},
            pinned=10,
            serial_requests=8,
        ),
    )
}


def _seed_stream(rng: random.Random):
    while True:
        yield rng.randrange(1, 2**31)


@dataclass
class RequestPlan:
    """Every seed one run sends, derived from ``(workload, --seed)``."""

    warmup: list[int]  # sent once per client during each set-up
    clients: list  # one infinite seed iterator per window client

    @classmethod
    def make(cls, workload: Workload, seed: int) -> "RequestPlan":
        rng = random.Random(f"{workload.name}/{seed}")
        fresh = _seed_stream(rng)
        if workload.pinned:
            pinned = [next(fresh) for _ in range(workload.pinned)]
            # Both clients walk the cycle in step, so each shard meets
            # every pinned seed in turn and its RAM tier (64 entries)
            # never still holds a seed's later phases when it comes round.
            clients = [itertools.cycle(pinned) for _ in range(CLIENTS)]
            return cls(warmup=pinned, clients=clients)
        warmup = [next(fresh) for _ in range(CLIENTS)]
        clients = [
            _seed_stream(random.Random(f"{workload.name}/{seed}/client{c}"))
            for c in range(CLIENTS)
        ]
        return cls(warmup=warmup, clients=clients)
