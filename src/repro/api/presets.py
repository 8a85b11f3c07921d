"""Named configuration presets: one source for the recurring recipes.

Benchmarks, examples, and the CLI used to copy-paste the same
:class:`~repro.core.config.SamplerConfig` incantations (the paper's
nominal parameters; the demo-friendly shortened walk lengths). Each
recipe now lives here once, keyed by name, so a session can be opened as
``Session(graph, "fast-bench")`` and a benchmark tweak propagates
everywhere at once.

- ``"paper-approximate"`` -- Theorem 1 defaults: ``rho = floor(sqrt(n))``,
  the paper's nominal ``ell = Theta~(n^3)`` walk length.
- ``"paper-exact"`` -- Appendix 5 defaults: ``rho = floor(n^(1/3))``,
  per-pair multiset placement, zero distributional error.
- ``"paper-broadcast"`` -- the Anari-Haqi Broadcast Congested Clique
  sampler: one full-cover phase, rounds billed to the
  broadcast-bandwidth category (a different bandwidth regime from the
  unicast presets).
- ``"fast-bench"`` -- the demo/benchmark recipe: ``ell = 2^12`` (the
  Appendix 5.1 Las-Vegas extension keeps the output law exact).
- ``"fast-audit"`` -- the statistical-audit recipe: ``ell = 2^10`` for
  high-volume small-graph ensembles.
- ``"sparse-scale"`` -- the large-sparse-instance recipe: the fast-bench
  walk length with the scipy CSR numerics backend pinned on
  (``linalg_backend="sparse"``), for cycle/grid/bounded-degree inputs
  past the dense crossover (see ``benchmarks/bench_sparse_scaling.py``).
- ``"warm-service"`` -- the long-lived-service recipe: fast-bench walk
  length over the persistent tiered derived-graph store
  (``cache_dir="auto"`` -> ``$REPRO_CACHE_DIR`` or
  ``~/.cache/repro-spanning-trees``) with a 256 MiB RAM tier and a
  4 GiB disk tier, so restarts and ensemble workers warm-start and the
  ``auto`` backend picks up this machine's calibrated sparse crossover
  (``python -m repro calibrate``). The tiers keep phase 1's ``S = V``
  entry at once and a later phase's on its second sighting, so fresh
  seeds do not fill the budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.core.config import SamplerConfig
from repro.core.variants import get_variant
from repro.errors import ConfigError

__all__ = ["Preset", "PRESETS", "get_preset", "preset_config", "resolve_config"]


@dataclass(frozen=True)
class Preset:
    """A named recipe: sampler variant + configuration + rationale."""

    name: str
    description: str
    variant: str
    config: SamplerConfig

    def __post_init__(self) -> None:
        # A preset naming an unregistered variant would surface only on
        # first dispatch; fail at definition/deserialization time instead.
        get_variant(self.variant)


PRESETS: dict[str, Preset] = {
    preset.name: preset
    for preset in [
        Preset(
            "paper-approximate",
            "Theorem 1 as published: nominal ell, rho = floor(sqrt(n))",
            "approximate",
            SamplerConfig(),
        ),
        Preset(
            "paper-exact",
            "Appendix 5 as published: exact placement, rho = floor(n^(1/3))",
            "exact",
            SamplerConfig(),
        ),
        Preset(
            "paper-broadcast",
            "Anari-Haqi Broadcast CC sampler: one full-cover phase, "
            "polylog broadcast rounds",
            "broadcast",
            SamplerConfig(),
        ),
        Preset(
            "fast-bench",
            "demo/benchmark recipe: ell = 2^12 with Las-Vegas extension",
            "approximate",
            SamplerConfig(ell=1 << 12),
        ),
        Preset(
            "fast-audit",
            "statistical-audit recipe: ell = 2^10 for high-volume ensembles",
            "approximate",
            SamplerConfig(ell=1 << 10),
        ),
        Preset(
            "sparse-scale",
            "large sparse instances: fast-bench walk length + CSR numerics",
            "approximate",
            SamplerConfig(ell=1 << 12, linalg_backend="sparse"),
        ),
        Preset(
            "warm-service",
            "long-lived service: persistent tiered cache + calibrated auto "
            "backend",
            "approximate",
            SamplerConfig(
                ell=1 << 12,
                cache_dir="auto",
                cache_memory_bytes=256 * 2**20,
                cache_disk_bytes=4 * 2**30,
            ),
        ),
    ]
}


def get_preset(name: str) -> Preset:
    """Look up a preset; raises :class:`ConfigError` on unknown names."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None


def preset_config(name: str, **overrides) -> SamplerConfig:
    """A preset's config with field overrides applied.

    ``preset_config("fast-bench", ell=1 << 10)`` is the supported way to
    vary one knob without restating the whole recipe. An override that
    names no ``SamplerConfig`` field raises :class:`ConfigError`.
    """
    config = get_preset(name).config
    unknown = sorted(set(overrides) - {f.name for f in fields(config)})
    if unknown:
        raise ConfigError(f"unknown config field(s) {unknown}")
    return replace(config, **overrides)


def resolve_config(config: SamplerConfig | str | None) -> SamplerConfig:
    """Normalize a config argument: instance, preset name, or None."""
    if config is None:
        return SamplerConfig()
    if isinstance(config, str):
        return get_preset(config).config
    return config
