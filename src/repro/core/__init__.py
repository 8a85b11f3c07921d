"""The paper's primary contribution: sublinear-round tree sampling.

Public entry points:

- :func:`~repro.core.sampler.sample_spanning_tree` /
  :class:`~repro.core.sampler.CongestedCliqueTreeSampler` -- Theorem 1's
  O~(n^{1/2 + alpha})-round approximate sampler;
- :class:`~repro.core.exact.ExactTreeSampler` -- the appendix's
  O~(n^{2/3 + alpha})-round exact sampler;
- :func:`~repro.core.fastcover.sample_tree_fast_cover` -- Corollary 1's
  O~(tau / n)-round sampler for small-cover-time graphs;
- :class:`~repro.core.config.SamplerConfig` -- every tunable;
- :mod:`repro.core.variants` -- the :class:`~repro.core.variants.VariantSpec`
  registry every layer derives its variant lists from (including the
  Anari-Haqi ``"broadcast"`` Broadcast Congested Clique sampler);
- :mod:`repro.core.rounds` -- the closed-form round bounds the
  benchmarks regress against.
"""

from repro.core.config import SamplerConfig
from repro.core.direction4 import Direction4Result, Direction4Sampler
from repro.core.exact import (
    ExactTreeSampler,
    exact_sample_with_diagnostics,
    sample_spanning_tree_exact,
)
from repro.core.fastcover import FastCoverResult, sample_tree_fast_cover
from repro.core.phase import PhaseStats, run_phase_walk
from repro.core.rounds import (
    broadcast_variant_rounds,
    corollary1_rounds,
    exact_variant_rounds,
    expected_phases,
    fitted_exponent,
    theorem1_rounds,
    theorem2_rounds,
)
from repro.core.variants import (
    BROADCAST_BANDWIDTH,
    VARIANTS,
    VariantSpec,
    engine_variant_names,
    ensemble_variant_names,
    get_variant,
    sample_variant_names,
    variant_names,
)
from repro.core.sampler import (
    CongestedCliqueTreeSampler,
    SampleResult,
    sample_spanning_tree,
)

__all__ = [
    "SamplerConfig",
    "Direction4Result",
    "Direction4Sampler",
    "ExactTreeSampler",
    "exact_sample_with_diagnostics",
    "sample_spanning_tree_exact",
    "FastCoverResult",
    "sample_tree_fast_cover",
    "PhaseStats",
    "run_phase_walk",
    "BROADCAST_BANDWIDTH",
    "VARIANTS",
    "VariantSpec",
    "engine_variant_names",
    "ensemble_variant_names",
    "get_variant",
    "sample_variant_names",
    "variant_names",
    "broadcast_variant_rounds",
    "corollary1_rounds",
    "exact_variant_rounds",
    "expected_phases",
    "fitted_exponent",
    "theorem1_rounds",
    "theorem2_rounds",
    "CongestedCliqueTreeSampler",
    "SampleResult",
    "sample_spanning_tree",
]
