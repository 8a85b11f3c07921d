"""The service wire protocol: envelope parsing and admission budgets.

A service request is one JSON document binding the PR 2 request envelope
to the graph it should run against::

    {
      "graph":   {"family": "cycle", "n": 64, "seed": 0},
      "preset":  "fast-bench",                      # optional
      "config":  {"ell": 1024, "linalg_backend": "dense"},  # optional
      "request": {"request": "ensemble", "count": 8, "seed": 123}
    }

``graph`` names either a registered family (built deterministically from
``(family, n, seed)``, so every worker on every host constructs the
identical instance) or an explicit edge list (``{"n": ..., "edges":
[[u, v, w], ...]}``, validated with the same parse-time rules as
:func:`repro.graphs.io.graph_from_json`). ``request`` is exactly the
tagged wire form of :mod:`repro.api.requests` -- unknown fields and tags
fail loudly here, never mid-stream.

Everything a request could use to exhaust the server is bounded by
:class:`ServiceLimits` and rejected at *validation time* with a typed
:class:`ServiceError` carrying the HTTP status the front end should
return: draw counts past ``max_draws``, graphs past ``max_graph_n``,
process fan-out past ``max_jobs``, bodies past ``max_body_bytes``.
Server-owned configuration (cache placement and sizing) is not
client-reachable: ``config`` overrides naming those fields are rejected.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.api.presets import get_preset
from repro.api.requests import (
    AuditRequest,
    EnsembleRequest,
    request_from_dict,
)
from repro.core.config import SamplerConfig
from repro.errors import ConfigError, ReproError
from repro.graphs.core import WeightedGraph
from repro.graphs.families import build_family, family_names, get_family

__all__ = [
    "ServiceError",
    "ServiceLimits",
    "ServiceTask",
    "parse_service_envelope",
    "SERVER_OWNED_CONFIG_FIELDS",
]

# Configuration the *server* owns (where the cache lives, how big its
# tiers are, whether it exists). A client reaching these could point a
# worker's disk tier at an arbitrary path or flush a shared cache.
SERVER_OWNED_CONFIG_FIELDS = frozenset({
    "cache_dir",
    "cache_memory_bytes",
    "cache_disk_bytes",
    "derived_cache",
    "derived_cache_entries",
    "extra",
})

_CONFIG_FIELDS = frozenset(f.name for f in fields(SamplerConfig))


class ServiceError(ReproError):
    """A request the service refuses, tagged with its HTTP status.

    ``status`` is the response code the front end sends (400 for
    validation failures, 413 for oversized bodies, 429 for overload,
    503 while draining); ``retry_after`` is the advisory seconds for a
    ``Retry-After`` header when the condition is transient.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int = 400,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.retry_after = retry_after


@dataclass(frozen=True)
class ServiceLimits:
    """Per-request admission budgets, enforced before any work starts.

    Attributes
    ----------
    max_draws:
        Largest ensemble ``count`` / audit ``samples`` accepted per
        request (the draw-count budget).
    max_graph_n:
        Largest graph (requested or realized vertices) a request may
        bind a session to.
    max_jobs:
        Largest per-request process fan-out (``jobs``); ``None`` in a
        request is clamped to this rather than "all CPUs" -- a service
        shares its cores across requests.
    max_body_bytes:
        Largest accepted request body (the byte budget; also caps
        explicit edge-list graphs).
    max_seconds:
        Per-request wall-clock budget; ``None`` disables it. Batch
        requests past it get 504, streams are cut with an error record.
    """

    max_draws: int = 10_000
    max_graph_n: int = 4096
    max_jobs: int = 4
    max_body_bytes: int = 1 << 20
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_draws < 1:
            raise ConfigError(
                f"max_draws must be >= 1, got {self.max_draws}"
            )
        if self.max_graph_n < 2:
            raise ConfigError(
                f"max_graph_n must be >= 2, got {self.max_graph_n}"
            )
        if self.max_jobs < 1:
            raise ConfigError(f"max_jobs must be >= 1, got {self.max_jobs}")
        if self.max_body_bytes < 1:
            raise ConfigError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ConfigError(
                f"max_seconds must be > 0 (or None), got {self.max_seconds}"
            )


@dataclass(frozen=True)
class ServiceTask:
    """One validated unit of service work, ready to route to a worker.

    ``session_key`` identifies the session the task needs -- equal keys
    mean "same graph, same numerics config", so any worker holding (or
    able to warm-start) that session can serve the task. The task is
    picklable: workers rebuild the graph and config from the spec, never
    receive live sessions over the wire.
    """

    graph_spec: dict
    session_key: str
    preset: str
    overrides: dict = field(default_factory=dict)
    request: object = None
    # Client deadline for the whole request (queue wait + service) in
    # milliseconds; None means "wait as long as the server allows". An
    # admission-queue hint, deliberately excluded from session_key --
    # two requests differing only in deadline share a session.
    deadline_ms: int | None = None

    def build_graph(self) -> tuple[WeightedGraph, dict]:
        """Construct the task's graph; returns ``(graph, meta)``.

        Family specs build deterministically from ``(family, n, seed)``
        -- the same instance on every worker and host. Edge-list specs
        rebuild from the validated rows.
        """
        spec = self.graph_spec
        if "family" in spec:
            return build_family(
                spec["family"], int(spec["n"]),
                np.random.default_rng(int(spec.get("seed", 0))),
            )
        n = int(spec["n"])
        weights = np.zeros((n, n), dtype=float)
        for u, v, w in spec["edges"]:
            weights[int(u), int(v)] = float(w)
            weights[int(v), int(u)] = float(w)
        graph = WeightedGraph(weights)
        return graph, {"family": "explicit", "n": n, "requested_n": n,
                       "size_adjusted": False}

    def build_config(self, base: SamplerConfig) -> SamplerConfig:
        """The task's sampler config: server base + client overrides."""
        if not self.overrides:
            return base
        return replace(base, **self.overrides)


def _canonical_json(payload) -> str:
    """Deterministic JSON for key derivation (sorted keys, no spaces)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _require_dict(payload, what: str) -> dict:
    if not isinstance(payload, dict):
        raise ServiceError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _parse_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"{what} must be an integer, got {value!r}")
    return value


def _validate_graph_spec(spec: dict, limits: ServiceLimits) -> dict:
    """Normalize and bound a graph spec; returns the canonical dict."""
    spec = _require_dict(spec, "'graph'")
    if "family" in spec:
        unknown = set(spec) - {"family", "n", "seed"}
        if unknown:
            raise ServiceError(
                f"unknown graph field(s) {sorted(unknown)}; a family spec "
                "takes 'family', 'n', and optional 'seed'"
            )
        name = spec["family"]
        if name not in family_names():
            raise ServiceError(
                f"unknown family {name!r}; choose from {family_names()}"
            )
        n = _parse_int(spec.get("n"), "graph 'n'")
        family = get_family(name)
        if n < family.min_n:
            raise ServiceError(
                f"family {name!r} needs n >= {family.min_n}, got {n}"
            )
        if n > limits.max_graph_n:
            raise ServiceError(
                f"graph n = {n} exceeds this server's max_graph_n = "
                f"{limits.max_graph_n}"
            )
        seed = _parse_int(spec.get("seed", 0), "graph 'seed'")
        return {"family": name, "n": n, "seed": seed}
    if "edges" in spec:
        unknown = set(spec) - {"edges", "n"}
        if unknown:
            raise ServiceError(
                f"unknown graph field(s) {sorted(unknown)}; an explicit "
                "spec takes 'n' and 'edges'"
            )
        n = _parse_int(spec.get("n"), "graph 'n'")
        if n > limits.max_graph_n:
            raise ServiceError(
                f"graph n = {n} exceeds this server's max_graph_n = "
                f"{limits.max_graph_n}"
            )
        # Reuse the parse-time edge validation of the graph-IO layer
        # (duplicates, self-loops, ranges, weights) by round-tripping
        # through its document form; its FormatError carries the
        # offending edge index.
        from repro.errors import FormatError
        from repro.graphs.io import _FORMAT_GRAPH, graph_from_json

        try:
            graph = graph_from_json(json.dumps(
                {"format": _FORMAT_GRAPH, "n": n, "edges": spec["edges"]}
            ))
        except FormatError as error:
            raise ServiceError(f"bad graph edges: {error}") from None
        try:
            graph.require_connected()
        except ReproError as error:
            raise ServiceError(f"bad graph edges: {error}") from None
        edges = [
            [int(u), int(v), float(graph.weight(u, v))]
            for u, v in graph.edges()
        ]
        return {"n": n, "edges": edges}
    raise ServiceError(
        "graph spec needs either a 'family' (with 'n', optional 'seed') "
        "or an explicit 'n' + 'edges' list"
    )


def _validate_overrides(overrides: dict, base: SamplerConfig) -> dict:
    """Bound and type-check client config overrides against the base."""
    overrides = _require_dict(overrides, "'config'")
    unknown = set(overrides) - _CONFIG_FIELDS
    if unknown:
        raise ServiceError(
            f"unknown config field(s) {sorted(unknown)}"
        )
    owned = set(overrides) & SERVER_OWNED_CONFIG_FIELDS
    if owned:
        raise ServiceError(
            f"config field(s) {sorted(owned)} are server-owned (cache "
            "placement and sizing are set by the operator, not per "
            "request)"
        )
    try:
        # Construct once so SamplerConfig's own validation rejects bad
        # values here, with its error text, before any session exists.
        replace(base, **overrides)
    except ConfigError as error:
        raise ServiceError(f"bad config override: {error}") from None
    except (TypeError, ValueError) as error:
        raise ServiceError(f"bad config override: {error}") from None
    return dict(sorted(overrides.items()))


def parse_service_envelope(
    payload: dict, limits: ServiceLimits, *, default_preset: str = "fast-bench"
) -> ServiceTask:
    """Validate one service document into a routable :class:`ServiceTask`.

    Every admission decision a request body can trigger happens here --
    a task that parses is within budget and safe to run. Raises
    :class:`ServiceError` (with its HTTP status) otherwise.
    """
    payload = _require_dict(payload, "request body")
    unknown = set(payload) - {
        "graph", "preset", "config", "request", "deadline_ms"
    }
    if unknown:
        raise ServiceError(
            f"unknown envelope field(s) {sorted(unknown)}; expected "
            "'graph', 'request', optional 'preset', 'config', and "
            "'deadline_ms'"
        )
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        deadline_ms = _parse_int(deadline_ms, "'deadline_ms'")
        if deadline_ms < 1:
            raise ServiceError(
                f"'deadline_ms' must be >= 1, got {deadline_ms}"
            )
    if "graph" not in payload:
        raise ServiceError("envelope needs a 'graph' spec")
    if "request" not in payload:
        raise ServiceError("envelope needs a 'request' envelope")

    graph_spec = _validate_graph_spec(payload["graph"], limits)

    preset = payload.get("preset", default_preset)
    if not isinstance(preset, str):
        raise ServiceError(f"'preset' must be a string, got {preset!r}")
    try:
        base = get_preset(preset).config
    except ConfigError as error:
        raise ServiceError(str(error)) from None

    overrides = _validate_overrides(payload.get("config", {}), base)

    try:
        request = request_from_dict(
            _require_dict(payload["request"], "'request'")
        )
    except ConfigError as error:
        raise ServiceError(str(error)) from None
    except (TypeError, ValueError) as error:
        raise ServiceError(f"bad request envelope: {error}") from None

    # Draw-count and fan-out budgets, rejected before any session work.
    if isinstance(request, EnsembleRequest):
        if request.count > limits.max_draws:
            raise ServiceError(
                f"count = {request.count} exceeds this server's "
                f"max_draws = {limits.max_draws}"
            )
        jobs = request.jobs
        if jobs is not None and jobs > limits.max_jobs:
            raise ServiceError(
                f"jobs = {jobs} exceeds this server's max_jobs = "
                f"{limits.max_jobs}"
            )
        if jobs is None:
            # "All CPUs" is a reasonable default in-process but not on a
            # shared server: clamp to the per-request budget.
            request = replace(request, jobs=limits.max_jobs)
    elif isinstance(request, AuditRequest):
        if request.samples > limits.max_draws:
            raise ServiceError(
                f"samples = {request.samples} exceeds this server's "
                f"max_draws = {limits.max_draws}"
            )
        if request.jobs > limits.max_jobs:
            raise ServiceError(
                f"jobs = {request.jobs} exceeds this server's max_jobs = "
                f"{limits.max_jobs}"
            )

    session_key = hashlib.sha1(_canonical_json(
        {"graph": graph_spec, "preset": preset, "config": overrides}
    ).encode()).hexdigest()
    return ServiceTask(
        graph_spec=graph_spec,
        session_key=session_key,
        preset=preset,
        overrides=overrides,
        request=request,
        deadline_ms=deadline_ms,
    )
