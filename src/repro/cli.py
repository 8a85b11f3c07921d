"""Command-line interface: thin adapters over the session API.

Usage (installed as ``python -m repro``)::

    python -m repro sample --family expander --n 32 --variant approximate
    python -m repro sample --family lollipop --n 24 --variant exact --seed 7
    python -m repro sample --family cycle --n 512 --linalg-backend sparse
    python -m repro rounds --family gnp --n 48
    python -m repro ensemble --family expander --n 32 --samples 200 --jobs 4
    python -m repro families --json
    python -m repro --version

Every subcommand follows the same shape: parse args, build the graph
from the shared family registry (:mod:`repro.graphs.families`), build a
frozen request, execute it through :class:`repro.api.Session`, and
render the uniform :class:`~repro.api.responses.Response` envelope --
as human-readable text by default, or as the envelope's JSON wire form
with ``--json`` (loadable back into typed results via
:func:`repro.api.response_from_dict`).

Families that cannot realize the requested vertex count exactly (a
4-regular expander needs even ``n``) surface the substitution in both
renderings instead of silently bumping the size; see
``response.meta["size_adjusted"]``.

Subcommands:

``sample``
    Draw one spanning tree with the chosen sampler variant and print the
    edge list plus phase/round diagnostics.
``rounds``
    Run every registered sampler variant on one graph and print a
    round-bill comparison (the quickstart's table, scriptable); the
    broadcast row is Broadcast Congested Clique rounds, a different
    bandwidth regime from the unicast rows.
``pagerank``
    Walk-based PageRank estimate vs the exact solve.
``mst``
    Minimum spanning forest over seeded random edge weights, billed
    under a registered congested-clique recipe and gated against the
    sequential Kruskal oracle before anything is printed.
``ensemble``
    Draw a batch of trees through the ensemble engine (per-draw spawned
    seeds, ``--jobs`` process fan-out) and report throughput plus the
    leverage-score marginal audit.
``audit``
    Uniformity audit against exact enumeration (engine-backed batch).
``calibrate``
    Fit this machine's sparse/dense numerics crossover with a short
    timed probe and persist it next to the tiered derived-graph store
    (``--cache-dir``, default ``auto``); ``auto`` backend resolution
    consults the persisted profile from then on.
``cache``
    Inspect or maintain a persistent derived-graph cache directory:
    show entry/byte stats, ``--prune-to BYTES`` (LRU eviction down to a
    budget), ``--prune-expired DAYS`` (TTL expiry of untouched entries),
    or ``--clear`` it entirely.
``serve``
    Run the stdlib HTTP sampling service (:mod:`repro.service`): batch
    ``POST /v1/run``, NDJSON streaming ``POST /v1/stream``, admission
    control past ``--max-inflight`` (429 + Retry-After), per-request
    budgets, and graceful SIGTERM drain. ``--port 0`` binds an
    ephemeral port and reports it on stdout.
``families``
    List the available graph families (``--json`` for the machine-
    readable registry).
``verify``
    Run the installation self-check battery.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

import numpy as np

from repro.api import (
    AuditRequest,
    EnsembleRequest,
    MSTRequest,
    PageRankRequest,
    Response,
    RoundBillRequest,
    SampleRequest,
    Session,
    preset_config,
)
from repro.core.variants import ensemble_variant_names, sample_variant_names
from repro.core.workloads import get_workload
from repro.errors import ReproError
from repro.graphs.core import WeightedGraph
from repro.graphs.families import (
    FAMILY_REGISTRY,
    build_family,
    family_catalog,
    family_names,
)

__all__ = ["main", "build_graph", "FAMILIES"]

# Back-compat view of the shared registry (the pre-session CLI exposed a
# local name -> builder dict; scripts importing it keep working).
FAMILIES: dict[str, Callable[[int, np.random.Generator], WeightedGraph]] = {
    name: spec.build for name, spec in FAMILY_REGISTRY.items()
}


def build_graph(family: str, n: int, rng: np.random.Generator) -> WeightedGraph:
    """Instantiate a named family at (roughly) n vertices."""
    graph, _ = build_family(family, n, rng)
    return graph


def _open_session(args: argparse.Namespace, ell: int | None = None) -> Session:
    """Build the graph named by ``args`` and bind a session to it."""
    rng = np.random.default_rng(args.seed)
    graph, meta = build_family(args.family, args.n, rng)
    overrides: dict = {} if ell is None else {"ell": ell}
    if getattr(args, "linalg_backend", None) is not None:
        overrides["linalg_backend"] = args.linalg_backend
    if getattr(args, "cache_dir", None) is not None:
        overrides["cache_dir"] = args.cache_dir
    config = preset_config("fast-bench", **overrides)
    return Session(graph, config, seed=args.seed, meta=meta)


def _emit(
    response: Response,
    as_json: bool,
    render: Callable[[Response], None],
) -> int:
    """Render a response: JSON envelope or the human view."""
    if as_json:
        print(response.to_json())
    else:
        if response.meta.get("size_adjusted"):
            print(
                f"note: family {response.meta['family']!r} adjusted n "
                f"{response.meta['requested_n']} -> {response.meta['n']}"
            )
        render(response)
    return 0


def _add_linalg_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the shared numerics-backend override flag."""
    parser.add_argument(
        "--linalg-backend",
        dest="linalg_backend",
        default=None,
        choices=["auto", "dense", "sparse"],
        help="numerics realization: dense numpy, scipy CSR, or "
             "auto-select by graph size/density (default: auto)",
    )


_STORE_DIR = (
    "persistent derived-graph store: spill phase numerics to DIR and "
    "warm-start from entries already there"
)


def _add_cache_dir_flag(
    parser: argparse.ArgumentParser,
    *,
    default: str | None,
    what: str = _STORE_DIR,
) -> None:
    """Attach the shared ``--cache-dir DIR`` flag.

    ``what`` says what DIR is for this subcommand; the help text adds
    the ``'auto'`` resolution and the default.
    """
    auto = "'auto' = $REPRO_CACHE_DIR or ~/.cache/repro-spanning-trees"
    parser.add_argument(
        "--cache-dir",
        dest="cache_dir",
        default=default,
        metavar="DIR",
        help=f"{what} ({auto}; default: {default or 'none'})",
    )


def _parse_byte_size(text: str) -> int:
    """Parse '500000', '256K', '1.5M', '2G' into bytes."""
    raw = text.strip()
    scale = 1
    suffixes = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if raw and raw[-1].upper() in suffixes:
        scale = suffixes[raw[-1].upper()]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a byte size: {text!r} (use e.g. 500000, 256K, 1.5M, 2G)"
        ) from None
    if not (0 <= value < float(1 << 62)):  # rejects inf/nan/negatives
        raise argparse.ArgumentTypeError(
            f"byte size must be a finite value >= 0: {text!r}"
        )
    return int(value * scale)


def _render_cache_line(meta: dict) -> str | None:
    """One compact human-readable line of tier counters, or None."""
    cache = meta.get("cache")
    if not cache:
        return None
    line = (
        f"  cache: {cache.get('hits', 0)} hits / "
        f"{cache.get('misses', 0)} misses"
    )
    if "disk_hits" in cache:
        line += (
            f"; disk {cache['disk_hits']} hits, {cache.get('spills', 0)} "
            f"spills, {cache.get('transient', 0)} transient, "
            f"{cache.get('disk_entries', 0)} entries "
            f"({cache.get('disk_bytes', 0) / 2**20:.1f} MB)"
        )
    return line


def _make_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spanning tree sampling in the simulated CongestedClique",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sample = sub.add_parser("sample", help="draw one spanning tree")
    sample.add_argument("--family", default="expander", choices=family_names())
    sample.add_argument("--n", type=int, default=32)
    sample.add_argument(
        "--variant", default="approximate",
        choices=list(sample_variant_names()),
    )
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--ell", type=int, default=1 << 12,
                        help="nominal walk length (power of two)")
    sample.add_argument("--json", action="store_true",
                        help="machine-readable output")
    _add_linalg_flag(sample)
    _add_cache_dir_flag(sample, default=None)

    rounds = sub.add_parser("rounds", help="compare sampler round bills")
    rounds.add_argument("--family", default="expander", choices=family_names())
    rounds.add_argument("--n", type=int, default=32)
    rounds.add_argument("--seed", type=int, default=0)
    rounds.add_argument("--ell", type=int, default=1 << 12)
    rounds.add_argument("--json", action="store_true",
                        help="machine-readable output")
    _add_linalg_flag(rounds)
    _add_cache_dir_flag(rounds, default=None)

    pagerank = sub.add_parser(
        "pagerank", help="walk-based PageRank vs the exact solve"
    )
    pagerank.add_argument("--family", default="wheel", choices=family_names())
    pagerank.add_argument("--n", type=int, default=32)
    pagerank.add_argument("--damping", type=float, default=0.85)
    pagerank.add_argument("--walks", type=int, default=64,
                          help="walks per vertex")
    pagerank.add_argument("--seed", type=int, default=0)
    pagerank.add_argument("--json", action="store_true",
                          help="machine-readable output")

    mst_spec = get_workload("mst")
    mst = sub.add_parser(
        "mst",
        help="oracle-gated minimum spanning forest over seeded weights",
    )
    mst.add_argument("--family", default="gnp", choices=family_names())
    mst.add_argument("--n", type=int, default=64)
    mst.add_argument(
        "--recipe", default=None,
        choices=list(mst_spec.recipe_names()),
        help="round model to bill under "
             f"(default: {mst_spec.default_recipe})",
    )
    mst.add_argument(
        "--weights", default="random",
        choices=list(mst_spec.weight_modes),
        help="instance weighting: i.i.d. uniform draws, quantized "
             "tie-prone draws, or the graph's own weights",
    )
    mst.add_argument("--seed", type=int, default=0)
    mst.add_argument("--json", action="store_true",
                     help="machine-readable output")
    _add_linalg_flag(mst)
    _add_cache_dir_flag(mst, default=None)

    ensemble = sub.add_parser(
        "ensemble",
        help="batch-sample trees via the ensemble engine; report throughput",
    )
    ensemble.add_argument("--family", default="expander", choices=family_names())
    ensemble.add_argument("--n", type=int, default=32)
    ensemble.add_argument("--samples", type=int, default=100)
    ensemble.add_argument(
        "--variant", default="approximate",
        choices=list(ensemble_variant_names()),
    )
    ensemble.add_argument("--seed", type=int, default=0)
    ensemble.add_argument("--ell", type=int, default=1 << 12)
    ensemble.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: all CPUs)",
    )
    ensemble.add_argument("--json", action="store_true",
                          help="machine-readable output")
    _add_linalg_flag(ensemble)
    _add_cache_dir_flag(ensemble, default=None)

    audit = sub.add_parser(
        "audit", help="uniformity audit against exact enumeration"
    )
    audit.add_argument("--family", default="cycle", choices=family_names())
    audit.add_argument("--n", type=int, default=6)
    audit.add_argument("--samples", type=int, default=500)
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--ell", type=int, default=1 << 10)
    audit.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sampling batch",
    )
    audit.add_argument("--json", action="store_true",
                       help="machine-readable output")
    _add_linalg_flag(audit)
    _add_cache_dir_flag(audit, default=None)

    calibrate = sub.add_parser(
        "calibrate",
        help="fit this machine's sparse/dense crossover and persist it",
    )
    _add_cache_dir_flag(
        calibrate, default="auto",
        what="persistence directory for the profile",
    )
    calibrate.add_argument(
        "--quick", action="store_true",
        help="coarse subsecond probe (small sizes, one repeat)",
    )
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.add_argument("--json", action="store_true",
                           help="machine-readable profile output")

    cache = sub.add_parser(
        "cache",
        help="inspect or maintain a persistent derived-graph cache dir",
    )
    _add_cache_dir_flag(
        cache, default="auto", what="cache directory to operate on"
    )
    cache_action = cache.add_mutually_exclusive_group()
    cache_action.add_argument(
        "--prune-to", dest="prune_to", default=None, metavar="BYTES",
        type=_parse_byte_size,
        help="evict least-recently-used entries until the store holds at "
             "most BYTES (suffixes K/M/G accepted; 0 empties it)",
    )
    cache_action.add_argument(
        "--prune-expired", dest="prune_expired", default=None, metavar="DAYS",
        type=float,
        help="evict entries not touched (read or written) within the last "
             "DAYS days, per each entry's meta.json clock; fractional days "
             "accepted, 0 expires everything not touched this instant",
    )
    cache_action.add_argument(
        "--clear", action="store_true",
        help="delete every cached entry (the calibration profile stays)",
    )
    cache.add_argument("--json", action="store_true",
                       help="machine-readable stats output")

    serve = sub.add_parser(
        "serve",
        help="run the HTTP sampling service (batch + NDJSON streaming)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8437,
        help="listen port (0 binds an ephemeral port, reported on stdout)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="batch worker processes (the shard layer)",
    )
    serve.add_argument(
        "--max-inflight", dest="max_inflight", type=int, default=8,
        help="admitted requests beyond this get 429 + Retry-After",
    )
    serve.add_argument(
        "--max-draws", dest="max_draws", type=int, default=10_000,
        help="per-request ensemble/audit draw-count cap",
    )
    serve.add_argument(
        "--max-graph-n", dest="max_graph_n", type=int, default=4096,
        help="largest graph a request may name",
    )
    serve.add_argument(
        "--max-jobs", dest="max_jobs", type=int, default=4,
        help="per-request process fan-out cap (also clamps jobs=None)",
    )
    serve.add_argument(
        "--max-body-bytes", dest="max_body_bytes", type=_parse_byte_size,
        default=1 << 20, metavar="BYTES",
        help="request body cap (suffixes K/M/G accepted)",
    )
    serve.add_argument(
        "--max-seconds", dest="max_seconds", type=float, default=None,
        help="per-request wall-clock budget (504 batch / stream error "
             "record); default: unlimited",
    )
    serve.add_argument(
        "--drain-seconds", dest="drain_seconds", type=float, default=10.0,
        help="grace period for in-flight work on SIGTERM/SIGINT",
    )
    serve.add_argument(
        "--preset", default="fast-bench",
        help="default config preset for requests that name none",
    )
    _add_cache_dir_flag(
        serve, default="auto",
        what="shared warm-start cache volume applied to every worker "
             "session; 'none' disables the override and presets decide",
    )
    serve.add_argument(
        "--session-cap", dest="session_cap", type=int, default=8,
        help="live sessions kept warm per worker process (LRU)",
    )
    serve.add_argument(
        "--queue-depth", dest="queue_depth", type=int, default=16,
        help="admission queue slots past max_inflight (0 = hard-reject "
             "with 429 instead of queueing)",
    )
    serve.add_argument(
        "--queue-wait-seconds", dest="queue_wait_seconds", type=float,
        default=30.0,
        help="longest a deadline-less request may wait in the admission "
             "queue before it is shed with 429",
    )
    serve.add_argument(
        "--max-redispatch", dest="max_redispatch", type=int, default=2,
        help="re-dispatch attempts for a batch task whose worker "
             "crashed (idempotent by the pinned-seed contract)",
    )
    serve.add_argument(
        "--breaker-threshold", dest="breaker_threshold", type=int,
        default=5,
        help="consecutive worker crashes that trip the circuit breaker "
             "(/healthz degraded, in-process serving)",
    )
    serve.add_argument(
        "--breaker-reset-seconds", dest="breaker_reset_seconds",
        type=float, default=30.0,
        help="cooldown between shard-pool probes while the breaker is "
             "open",
    )

    families = sub.add_parser("families", help="list graph families")
    families.add_argument("--json", action="store_true",
                          help="machine-readable family registry")
    sub.add_parser("verify", help="run the installation self-check battery")
    return parser


def _cmd_sample(args: argparse.Namespace) -> int:
    session = _open_session(args, ell=args.ell)
    response = session.run(
        SampleRequest(variant=args.variant, seed=args.seed)
    )

    def render(response: Response) -> None:
        meta = response.meta
        result = response.result
        print(f"{args.variant} sampler on {meta['family']} (n={meta['n']})")
        print(f"  rounds: {result.rounds}")
        if args.variant == "fastcover":
            print(f"  walk_length: {result.walk_length}")
        else:
            print(f"  phases: {result.phases}")
            for category, count in result.rounds_by_category().items():
                print(f"    {category:<26s} {count}")
        tree = [list(edge) for edge in result.tree]
        print(f"  tree: {len(tree)} edges: {tree[:6]}...")
        cache_line = _render_cache_line(meta)
        if cache_line:
            print(cache_line)

    return _emit(response, args.json, render)


def _cmd_rounds(args: argparse.Namespace) -> int:
    session = _open_session(args, ell=args.ell)
    response = session.run(RoundBillRequest(seed=args.seed))

    def render(response: Response) -> None:
        meta = response.meta
        bill = response.result
        print(f"{meta['family']} (n={meta['n']}, m={meta['m']})")
        print(f"{'variant':<14s} {'rounds':>8s} {'phases':>7s}")
        print(f"{'approximate':<14s} {bill.approximate_rounds:>8d} "
              f"{bill.approximate_phases:>7d}")
        print(f"{'exact':<14s} {bill.exact_rounds:>8d} "
              f"{bill.exact_phases:>7d}")
        print(f"{'fastcover':<14s} {bill.fastcover_rounds:>8d} {'-':>7s}")
        # Broadcast CC rounds are a different bandwidth regime from the
        # unicast rows above; shown side by side, never summed.
        print(f"{'broadcast':<14s} {bill.broadcast_rounds:>8d} "
              f"{bill.broadcast_phases:>7d}")

    return _emit(response, args.json, render)


def _cmd_pagerank(args: argparse.Namespace) -> int:
    session = _open_session(args)
    response = session.run(
        PageRankRequest(
            damping=args.damping, walks_per_vertex=args.walks, seed=args.seed
        )
    )

    def render(response: Response) -> None:
        meta = response.meta
        report = response.result
        print(f"PageRank on {meta['family']} (n={meta['n']}), "
              f"damping {report.damping}")
        print(f"walks/vertex: {report.walks_per_vertex}, "
              f"walk length: {report.walk_length}, rounds: {report.rounds}")
        print(f"L1 error vs exact solve: {report.l1_error:.4f}")
        exact = np.asarray(report.exact_scores)
        top = np.argsort(exact)[::-1][:5]
        print(f"{'vertex':>7s} {'exact':>8s} {'estimate':>9s}")
        for v in top:
            print(f"{int(v):>7d} {exact[v]:>8.4f} "
                  f"{report.scores[int(v)]:>9.4f}")

    return _emit(response, args.json, render)


def _cmd_mst(args: argparse.Namespace) -> int:
    session = _open_session(args)
    response = session.run(
        MSTRequest(recipe=args.recipe, weights=args.weights, seed=args.seed)
    )

    def render(response: Response) -> None:
        meta = response.meta
        report = response.result
        print(
            f"mst ({report.recipe}, {report.weights} weights) on "
            f"{meta['family']} (n={meta['n']}, m={meta['m']})"
        )
        print(f"  rounds: {report.rounds} ({meta['comm_model']}), "
              f"phases: {report.phases}")
        for category, count in report.rounds_by_category().items():
            print(f"    {category:<26s} {count}")
        print(f"  total weight: {report.total_weight:.6f}")
        print(
            f"  oracle ({report.oracle}): weight "
            f"{report.oracle_weight:.6f}, "
            f"match: {'yes' if report.oracle_match else 'NO'}"
        )
        forest = [list(edge) for edge in report.forest]
        print(f"  forest: {len(forest)} edges: {forest[:6]}...")

    return _emit(response, args.json, render)


def _cmd_ensemble(args: argparse.Namespace) -> int:
    session = _open_session(args, ell=args.ell)
    response = session.run(
        EnsembleRequest(
            count=args.samples,
            variant=args.variant,
            seed=args.seed,
            jobs=args.jobs,
            leverage_audit=True,
        )
    )

    def render(response: Response) -> None:
        meta = response.meta
        result = response.result
        leverage = meta["leverage"]
        print(
            f"ensemble: {result.count} {args.variant} trees on "
            f"{meta['family']} (n={meta['n']}), {result.jobs} job(s)"
        )
        print(
            f"  throughput: {result.trees_per_second():.2f} trees/s "
            f"({result.seconds:.4f}s); mean rounds {result.mean_rounds():.1f}"
        )
        print(
            f"  leverage marginals: max dev "
            f"{leverage['max_abs_deviation']:.5f} / "
            f"mean {leverage['mean_abs_deviation']:.5f} "
            f"(noise ~ {leverage['max_noise_scale']:.5f})"
        )
        cache_line = _render_cache_line(meta)
        if cache_line:
            print(cache_line)

    return _emit(response, args.json, render)


def _cmd_audit(args: argparse.Namespace) -> int:
    session = _open_session(args, ell=args.ell)
    response = session.run(
        AuditRequest(
            samples=args.samples,
            seed=args.seed,
            jobs=args.jobs,
        )
    )

    def render(response: Response) -> None:
        meta = response.meta
        report = response.result
        print(f"audit: {meta['family']} (n={meta['n']}), "
              f"{report.spanning_trees} trees, {report.samples} samples")
        print(f"TV to uniform: {report.tv_to_uniform:.4f} "
              f"(perfect-sampler noise ~ {report.noise_floor:.4f})")
        print(f"chi-square p-value: {report.chi_square_p:.3g}")
        print("verdict:", report.verdict)

    return _emit(response, args.json, render)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.engine.store import resolve_cache_root
    from repro.linalg.calibrate import run_calibration, save_profile

    root = resolve_cache_root(args.cache_dir)
    profile = run_calibration(quick=args.quick, seed=args.seed)
    path = save_profile(root, profile)
    if args.json:
        payload = profile.to_dict()
        payload["path"] = str(path)
        print(json_module.dumps(payload, indent=2))
        return 0
    print(f"calibrated sparse/dense crossover for host {profile.host!r}:")
    print(f"  sparse_auto_min_n:   {profile.sparse_auto_min_n}")
    print(f"  sparse_auto_density: {profile.sparse_auto_density}")
    print(f"{'probe':<8s} {'n':>5s} {'density':>8s} {'dense s':>9s} "
          f"{'sparse s':>9s} {'winner':>7s}")
    for row in profile.probe:
        if "dense_seconds" not in row:
            continue
        density = row.get("density")
        print(
            f"{row['probe']:<8s} {row['n']:>5d} "
            f"{'-' if density is None else f'{density:.2f}':>8s} "
            f"{row['dense_seconds']:>9.4f} {row['sparse_seconds']:>9.4f} "
            f"{'sparse' if row['sparse_wins'] else 'dense':>7s}"
        )
    print(f"profile written to {path}")
    print("sessions with linalg_backend='auto' and a cache_dir pointed at "
          "this directory now use the fitted crossover")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.engine.store import DiskTier, resolve_cache_root

    root = resolve_cache_root(args.cache_dir)
    if not root.is_dir():
        # Inspection must not litter the filesystem (DiskTier mkdirs on
        # construction) or mistake a typo'd path for an empty cache.
        if args.json:
            print(json_module.dumps(
                {"action": "stats", "root": str(root), "exists": False}
            ))
        else:
            print(f"no cache directory at {root}")
        return 0
    tier = DiskTier(root)
    evicted = None
    action = "stats"
    if args.clear:
        action = "clear"
        evicted = tier.clear()
    elif args.prune_to is not None:
        action = "prune"
        evicted = tier.prune(args.prune_to)
    elif args.prune_expired is not None:
        action = "prune-expired"
        evicted = tier.prune_expired(args.prune_expired * 86400.0)
    entries = tier.entry_count()
    total = tier.total_bytes()
    calibration = (root / "calibration.json").exists()
    if args.json:
        payload = {
            "action": action,
            "root": str(root),
            "entries": int(entries),
            "bytes": int(total),
            "calibration_profile": bool(calibration),
        }
        if evicted is not None:
            payload["evicted"] = int(evicted)
        print(json_module.dumps(payload, indent=2))
        return 0
    print(f"derived-graph cache at {root}")
    if evicted is not None:
        verb = "cleared" if action == "clear" else "pruned"
        print(f"  {verb}: {evicted} entries evicted")
    print(f"  entries: {entries}")
    print(f"  bytes:   {total} ({total / 2**20:.1f} MB)")
    print(f"  calibration profile: "
          f"{'present' if calibration else 'absent'}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here: the service layer pulls in asyncio machinery no
    # other subcommand needs.
    from repro.service.protocol import ServiceLimits
    from repro.service.server import ServerConfig, serve

    cache_dir: str | None = args.cache_dir
    if cache_dir in ("none", ""):
        cache_dir = None
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        limits=ServiceLimits(
            max_draws=args.max_draws,
            max_graph_n=args.max_graph_n,
            max_jobs=args.max_jobs,
            max_body_bytes=args.max_body_bytes,
            max_seconds=args.max_seconds,
        ),
        preset=args.preset,
        cache_dir=cache_dir,
        session_cap=args.session_cap,
        drain_seconds=args.drain_seconds,
        queue_depth=args.queue_depth,
        queue_wait_seconds=args.queue_wait_seconds,
        max_redispatch=args.max_redispatch,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_seconds=args.breaker_reset_seconds,
    )
    try:
        return serve(config)
    except OSError as error:
        # Bind failures (EADDRINUSE, bad host) are operator errors, not
        # crashes: one line on stderr, non-zero exit, no traceback.
        print(
            f"error: cannot serve on {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 2


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.selfcheck import main_cli

    return main_cli()


def _cmd_families(args: argparse.Namespace) -> int:
    if args.json:
        import json as json_module

        print(json_module.dumps(family_catalog(), indent=2))
        return 0
    for name in family_names():
        print(name)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _make_parser().parse_args(argv)
    handlers = {
        "sample": _cmd_sample,
        "rounds": _cmd_rounds,
        "pagerank": _cmd_pagerank,
        "mst": _cmd_mst,
        "ensemble": _cmd_ensemble,
        "audit": _cmd_audit,
        "calibrate": _cmd_calibrate,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "families": _cmd_families,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
