"""The variant registry: one source of truth for sampler dispatch.

Every layer that used to hardwire ``("approximate", "exact")`` -- the
engine's constructor check, ``resolve_rho``'s boolean, the request
classes' ``_*_VARIANTS`` tuples, the CLI's ``choices=[...]`` lists --
now derives its view from :data:`VARIANTS`. A :class:`VariantSpec`
records what actually distinguishes the samplers:

- **rho policy** -- the per-phase distinct-vertex quota as a function of
  n (``floor(sqrt n)`` for Theorem 1, ``floor(n^(1/3))`` for Appendix 5,
  the full vertex set for the broadcast sampler's single phase);
- **placement discipline** -- matching-based midpoints vs the appendix's
  per-pair multisets;
- **communication model** -- which bandwidth regime the round bill is
  honest in. ``"unicast"`` variants charge Lenzen-routed message loads
  (n words in and out per machine per round);  ``"broadcast"`` variants
  live in the Broadcast Congested Clique, where each machine broadcasts
  one word per round that *everyone* sees -- an aggregate budget of n
  words per round with no private lanes. Broadcast charges land in the
  dedicated :data:`BROADCAST_BANDWIDTH` ledger category so unicast and
  broadcast rounds are never summed as if they were the same resource;
- **driver shape** -- whether :class:`~repro.engine.runner.SamplerEngine`
  runs the variant (phase loop + derived-graph cache) or a standalone
  function does (fast-cover's doubling walks).

Registering a fourth variant means adding one :class:`VariantSpec` here;
request validation, session dispatch, CLI choices, and the service
envelope pick it up without edits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from repro.errors import ConfigError

__all__ = [
    "BROADCAST_BANDWIDTH",
    "VariantSpec",
    "VARIANTS",
    "get_variant",
    "variant_names",
    "sample_variant_names",
    "ensemble_variant_names",
    "engine_variant_names",
]

# The ledger category every Broadcast Congested Clique charge bills to.
# Deliberately distinct from the "broadcast" category that
# CongestedClique.broadcast() uses for *unicast-model* one-to-all sends:
# that is n-words-per-machine Lenzen bandwidth, this is the
# one-word-per-machine-seen-by-all budget of the broadcast model.
BROADCAST_BANDWIDTH = "broadcast-bandwidth"

CommModel = Literal["unicast", "broadcast"]
RhoPolicy = Literal["sqrt", "cbrt", "full"]


@dataclass(frozen=True)
class VariantSpec:
    """Everything the stack needs to know about one sampler variant.

    Attributes
    ----------
    name:
        The wire/CLI identifier (``variant="..."`` everywhere).
    description:
        One-line human summary (CLI help, round-bill tables).
    paper_ref:
        Which result the variant implements.
    rounds_formula:
        The headline O~ round bound, as prose for docs and reports.
    rho_policy:
        Per-phase distinct-vertex quota: ``"sqrt"`` = floor(sqrt(n)),
        ``"cbrt"`` = floor(n^(1/3)), ``"full"`` = n (the walk covers the
        whole vertex set in one phase).
    exact_placement:
        Appendix 5 per-pair multiset placement (no matching sampler, no
        distributional error) instead of Lemma 3-4 matching placement.
    comm_model:
        ``"unicast"`` (Lenzen-routed Congested Clique) or
        ``"broadcast"`` (Broadcast Congested Clique).
    bandwidth_category:
        Ledger category for model-specific bandwidth charges; ``None``
        for unicast variants (their steps carry per-step categories
        through the Lenzen conversion), :data:`BROADCAST_BANDWIDTH` for
        broadcast ones.
    engine_driven:
        True when :class:`~repro.engine.runner.SamplerEngine` runs the
        variant; False for standalone drivers (fast-cover).
    ensemble:
        True when :class:`~repro.engine.ensemble.EnsembleEngine` can fan
        the variant out across worker processes.
    """

    name: str
    description: str
    paper_ref: str
    rounds_formula: str
    rho_policy: RhoPolicy
    exact_placement: bool
    comm_model: CommModel
    bandwidth_category: str | None
    engine_driven: bool
    ensemble: bool

    def resolve_rho(self, n: int) -> int:
        """The variant's default per-phase distinct-vertex quota."""
        if self.rho_policy == "sqrt":
            return max(2, int(math.isqrt(n)))
        if self.rho_policy == "cbrt":
            return max(2, int(round(n ** (1.0 / 3.0))))
        return max(2, int(n))


VARIANTS: dict[str, VariantSpec] = {
    spec.name: spec
    for spec in [
        VariantSpec(
            name="approximate",
            description="Theorem 1: matching-based placement, TV <= eps",
            paper_ref="Pemmaraju-Roy-Sobel Theorem 1",
            rounds_formula="O~(n^{1/2+alpha})",
            rho_policy="sqrt",
            exact_placement=False,
            comm_model="unicast",
            bandwidth_category=None,
            engine_driven=True,
            ensemble=True,
        ),
        # Appendix 5 removes all three error sources of the approximate
        # sampler, at O~(n^{2/3 + alpha}) = O(n^0.824) rounds:
        # 1. quota failures (5.1): walks are extended from their
        #    endpoints until the quota is met (Las Vegas), the phase
        #    walk's default ``on_failure="extend"``;
        # 2. approximate probabilities (5.2): midpoint normalizers are
        #    checked against the 1/n^c floor, and a failure triggers the
        #    collect-everything brute-force fallback (repro.core.phase);
        # 3. approximate matching sampling (5.3): each M_{p,q} ships its
        #    per-pair multiset instead; a pair's midpoints are
        #    exchangeable, so a uniform order per pair is an exact
        #    placement. Bandwidth forces rho = floor(n^(1/3)) (n^{2/3}
        #    pair machines ship n^{1/3} words each, O(n) in total), which
        #    raises the phase count to O(n^{2/3}).
        VariantSpec(
            name="exact",
            description="Appendix 5: per-pair multiset placement, zero error",
            paper_ref="Pemmaraju-Roy-Sobel Appendix 5",
            rounds_formula="O~(n^{2/3+alpha})",
            rho_policy="cbrt",
            exact_placement=True,
            comm_model="unicast",
            bandwidth_category=None,
            engine_driven=True,
            ensemble=True,
        ),
        VariantSpec(
            name="fastcover",
            description="Corollary 1: doubling walks for small cover time",
            paper_ref="Pemmaraju-Roy-Sobel Corollary 1",
            rounds_formula="O~(tau/n)",
            rho_policy="full",
            exact_placement=False,
            comm_model="unicast",
            bandwidth_category=None,
            engine_driven=False,
            ensemble=False,
        ),
        VariantSpec(
            name="broadcast",
            description=(
                "Anari-Haqi Broadcast Congested Clique sampler: one "
                "full-cover phase, polylog broadcast rounds"
            ),
            paper_ref="Anari-Haqi (arXiv:2603.25018)",
            rounds_formula="O~(log^4 n) broadcast rounds",
            rho_policy="full",
            exact_placement=False,
            comm_model="broadcast",
            bandwidth_category=BROADCAST_BANDWIDTH,
            engine_driven=True,
            ensemble=True,
        ),
    ]
}


def get_variant(name: str) -> VariantSpec:
    """Look up a variant spec; raises :class:`ConfigError` when unknown."""
    try:
        return VARIANTS[name]
    except KeyError:
        raise ConfigError(
            f"unknown variant {name!r}; choose from {variant_names()}"
        ) from None


def variant_names() -> tuple[str, ...]:
    """All registered variant names, in registration order."""
    return tuple(VARIANTS)


def sample_variant_names() -> tuple[str, ...]:
    """Variants a single-draw (sample) request may name: all of them."""
    return tuple(VARIANTS)


def ensemble_variant_names() -> tuple[str, ...]:
    """Variants the multi-process ensemble path can fan out."""
    return tuple(name for name, spec in VARIANTS.items() if spec.ensemble)


def engine_variant_names() -> tuple[str, ...]:
    """Variants driven by the phase-loop SamplerEngine."""
    return tuple(
        name for name, spec in VARIANTS.items() if spec.engine_driven
    )
