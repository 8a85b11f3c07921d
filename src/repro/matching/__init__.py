"""Weighted perfect matching sampling (Sections 1.8 and 2.1.3).

The sampler's walk-reconstruction step reduces to sampling a perfect
matching of a complete bipartite graph B with probability proportional to
the product of the matching's edge weights; the sum of all matching weights
is the permanent of B's biadjacency matrix. The paper invokes the
Jerrum-Sinclair-Vigoda permanent FPRAS [46] plus the Jerrum-Valiant-
Vazirani sampling-from-counting reduction [47].

Three interchangeable samplers stand in for that pipeline:

- :func:`~repro.matching.sampler.sample_matching_exact` -- exact
  self-reducible sampling with Ryser permanents (small instances);
- :class:`~repro.matching.sampler.ClassifiedBipartite` +
  :func:`~repro.matching.sampler.sample_assignment_by_classes` -- exact
  sampling exploiting B's class structure (rows/columns with identical
  weight profiles) by a contingency-table DP;
- :func:`~repro.matching.sampler.sample_matching_mcmc` -- a Metropolis
  chain over permutations, the polynomial-time approximate stand-in that
  exercises the paper's "approximate sampler + union bound" analysis
  (Lemma 4).

They are oracles, not a runtime path: the simulator already holds the
true placement, which follows the same law (the README's "Walk-layer
placement" section gives the argument), and
:func:`repro.core.placement.resample_placement` runs these samplers
against it.
"""

from repro.matching.permanent import (
    permanent_class_dp,
    permanent_exact,
    permanent_ryser,
)
from repro.matching.sampler import (
    ClassifiedBipartite,
    expand_table_to_assignment,
    prepare_contingency_dp,
    sample_assignment_by_classes,
    sample_contingency_table,
    sample_matching_exact,
    sample_matching_mcmc,
)

__all__ = [
    "permanent_class_dp",
    "permanent_exact",
    "permanent_ryser",
    "ClassifiedBipartite",
    "expand_table_to_assignment",
    "prepare_contingency_dp",
    "sample_assignment_by_classes",
    "sample_contingency_table",
    "sample_matching_exact",
    "sample_matching_mcmc",
]
