"""Per-machine sparse/dense crossover calibration.

The ``"auto"`` linalg backend picks sparse numerics when the instance is
large (``sparse_auto_min_n``) and the graph is sparse
(``sparse_auto_density``). Those two defaults were fitted from
``BENCH_sparse_scaling`` on *one* host; BLAS builds, core counts, and
memory bandwidth move the real crossover substantially between machines.

This module fits the crossover for the machine it runs on: a short timed
probe builds the same phase-2-shaped derived-graph bundle the benchmark
uses (ShortCut + Schur + a small power ladder) with both backends,

- over a ladder of sizes on the cycle family (bounded degree, the
  sparse backend's best case) to fit ``sparse_auto_min_n``, and
- over a ladder of densities on G(n, p) at the largest probed size to
  fit ``sparse_auto_density`` (the densest graph where sparse still
  wins),

and persists the fit as ``calibration.json`` inside the same persistence
directory as the tiered derived-graph store
(:func:`repro.engine.store.resolve_cache_root`). ``auto`` resolution
(:func:`repro.linalg.backend.auto_linalg_name`) consults the persisted
profile whenever the config points at a ``cache_dir`` and the user left
the crossover knobs at their class defaults -- explicit overrides always
win. Run it via ``python -m repro calibrate``.

Calibration never touches correctness: both backends compute identical
numbers (property-tested), so a stale or missing profile only costs
wall-clock, and a corrupt profile file is ignored exactly like a corrupt
cache blob.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "CrossoverProfile",
    "PROFILE_FILENAME",
    "calibration_path",
    "load_profile",
    "save_profile",
    "profile_for_config",
    "run_calibration",
]

PROFILE_FILENAME = "calibration.json"
PROFILE_VERSION = 1

# The full probe ladder brackets the shipped defaults (min_n=192); the
# quick ladder keeps CI/test runs subsecond-ish at the cost of a coarser
# fit -- fine, since the profile only steers wall-clock.
FULL_PROBE_NS = (96, 128, 192, 256, 384)
QUICK_PROBE_NS = (48, 64, 96)
FULL_PROBE_DENSITIES = (0.05, 0.10, 0.20, 0.30, 0.40)
QUICK_PROBE_DENSITIES = (0.05, 0.20)
FULL_LADDER_ELL = 64
QUICK_LADDER_ELL = 16


@dataclass(frozen=True)
class CrossoverProfile:
    """A fitted per-host crossover plus the probe evidence behind it."""

    sparse_auto_min_n: int
    sparse_auto_density: float
    host: str = ""
    created: float = 0.0
    probe: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "version": PROFILE_VERSION,
            "sparse_auto_min_n": int(self.sparse_auto_min_n),
            "sparse_auto_density": float(self.sparse_auto_density),
            "host": str(self.host),
            "created": float(self.created),
            "probe": list(self.probe),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CrossoverProfile":
        min_n = int(payload["sparse_auto_min_n"])
        density = float(payload["sparse_auto_density"])
        if min_n < 2 or not (0.0 < density <= 1.0):
            raise ValueError(f"implausible profile ({min_n}, {density})")
        return cls(
            sparse_auto_min_n=min_n,
            sparse_auto_density=density,
            host=str(payload.get("host", "")),
            created=float(payload.get("created", 0.0)),
            probe=list(payload.get("probe", [])),
        )


def calibration_path(root: str | os.PathLike) -> Path:
    """Where a persistence directory keeps its crossover profile."""
    return Path(root) / PROFILE_FILENAME


def save_profile(root: str | os.PathLike, profile: CrossoverProfile) -> Path:
    """Atomically persist a profile under ``root``; returns its path."""
    path = calibration_path(root)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(profile.to_dict(), indent=2) + "\n")
    os.replace(tmp, path)
    return path


def load_profile(root: str | os.PathLike) -> CrossoverProfile | None:
    """The persisted profile under ``root``, or None.

    Missing, unreadable, corrupt, or implausible files are all None --
    the profile is a wall-clock hint, so degraded state must never
    propagate past backend selection.
    """
    path = calibration_path(root)
    try:
        payload = json.loads(path.read_text())
        if payload.get("version") != PROFILE_VERSION:
            return None
        return CrossoverProfile.from_dict(payload)
    except (OSError, ValueError, TypeError, KeyError):
        return None


def profile_for_config(config) -> CrossoverProfile | None:
    """The profile a config's ``cache_dir`` carries, or None."""
    cache_dir = getattr(config, "cache_dir", None)
    if cache_dir is None:
        return None
    from repro.engine.store import resolve_cache_root

    return load_profile(resolve_cache_root(cache_dir))


# ----------------------------------------------------------------------
# The timed probe
# ----------------------------------------------------------------------


def _phase2_subset(graph) -> list[int]:
    """An S shaped like phase 2's: everything but a visited BFS ball.

    Mirrors ``benchmarks/bench_sparse_scaling.py``: the first phase
    visits ~sqrt(n) vertices around the start, which phase 2 then
    eliminates (minus the walk's endpoint).
    """
    from collections import deque

    n = graph.n
    ball_size = max(2, int(np.sqrt(n)))
    ball: list[int] = []
    seen = {0}
    queue = deque([0])
    while queue and len(ball) < ball_size:
        u = queue.popleft()
        ball.append(u)
        for v in graph.neighbors(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    eliminated = set(ball) - {ball[-1]}
    return sorted(set(range(n)) - eliminated)


def _bundle_seconds(graph, backend, ladder_ell: int, repeats: int) -> float:
    """Best-of-N wall-clock for one derived-graph bundle build."""
    from repro.linalg.matpow import PowerLadder

    subset = _phase2_subset(graph)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        backend.shortcut_matrix(graph, subset)
        transition, _ = backend.schur_transition(graph, subset)
        PowerLadder(transition, ladder_ell)
        best = min(best, time.perf_counter() - start)
    return best


def run_calibration(
    *,
    ns: tuple[int, ...] | None = None,
    densities: tuple[float, ...] | None = None,
    quick: bool = False,
    repeats: int | None = None,
    seed: int = 0,
) -> CrossoverProfile:
    """Fit this machine's crossover from a short timed probe.

    ``sparse_auto_min_n`` becomes the first probed size from which the
    sparse backend wins on the cycle family through the rest of the
    ladder (falling back to past-the-probe when dense always wins);
    ``sparse_auto_density`` becomes the densest probed G(n, p) density
    at which sparse still wins (falling back to a cycle-like density
    when it never does at the gnp sizes probed).
    """
    from repro.graphs.generators import cycle_graph, erdos_renyi_graph
    from repro.linalg.backend import HAVE_SCIPY, DenseLinalg, SparseLinalg

    if not HAVE_SCIPY:
        # Without scipy there is no sparse backend to cross over to.
        return CrossoverProfile(
            sparse_auto_min_n=1 << 30,
            sparse_auto_density=1e-9,
            host=platform.node(),
            created=time.time(),
            probe=[{"note": "scipy unavailable; sparse backend disabled"}],
        )

    ns = tuple(ns if ns is not None else (QUICK_PROBE_NS if quick else FULL_PROBE_NS))
    densities = tuple(
        densities
        if densities is not None
        else (QUICK_PROBE_DENSITIES if quick else FULL_PROBE_DENSITIES)
    )
    ladder_ell = QUICK_LADDER_ELL if quick else FULL_LADDER_ELL
    repeats = repeats if repeats is not None else (1 if quick else 3)
    dense, sparse = DenseLinalg(), SparseLinalg()
    rows: list[dict] = []

    wins: list[bool] = []
    for n in sorted(ns):
        graph = cycle_graph(n)
        dense_s = _bundle_seconds(graph, dense, ladder_ell, repeats)
        sparse_s = _bundle_seconds(graph, sparse, ladder_ell, repeats)
        wins.append(sparse_s < dense_s)
        rows.append(
            {
                "probe": "size",
                "family": "cycle",
                "n": int(n),
                "dense_seconds": round(dense_s, 6),
                "sparse_seconds": round(sparse_s, 6),
                "sparse_wins": bool(sparse_s < dense_s),
            }
        )
    sorted_ns = sorted(ns)
    min_n = 2 * sorted_ns[-1]  # dense never lost: keep auto dense past the probe
    for i in range(len(sorted_ns)):
        if all(wins[i:]):
            # First size from which sparse wins consistently; a single
            # noisy win below the true crossover must not drag min_n down.
            min_n = sorted_ns[i]
            break
    min_n = max(2, int(min_n))

    n_fit = sorted_ns[-1]
    density_cut = 0.0
    rng = np.random.default_rng(seed)
    for p in sorted(densities):
        graph = erdos_renyi_graph(n_fit, p=p, rng=rng)
        dense_s = _bundle_seconds(graph, dense, ladder_ell, repeats)
        sparse_s = _bundle_seconds(graph, sparse, ladder_ell, repeats)
        if sparse_s < dense_s:
            density_cut = max(density_cut, p)
        rows.append(
            {
                "probe": "density",
                "family": "gnp",
                "n": int(n_fit),
                "density": float(p),
                "dense_seconds": round(dense_s, 6),
                "sparse_seconds": round(sparse_s, 6),
                "sparse_wins": bool(sparse_s < dense_s),
            }
        )
    if density_cut <= 0.0:
        # Sparse never won a gnp probe; cycle-like inputs may still win
        # (the size probe says so), so keep a bounded-degree-scale cut.
        density_cut = min(0.05, 4.0 / n_fit)
    density_cut = float(min(1.0, max(1e-9, density_cut)))

    return CrossoverProfile(
        sparse_auto_min_n=min_n,
        sparse_auto_density=density_cut,
        host=platform.node(),
        created=time.time(),
        probe=rows,
    )
