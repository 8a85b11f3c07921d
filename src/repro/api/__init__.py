"""The session-based public API: the one way in for every workload.

This package is the service-facing surface the ROADMAP's production story
builds on (and the CLI's only backend):

- :class:`~repro.api.session.Session` -- a long-lived binding of one
  graph to shared execution state (derived-graph cache, per-variant
  engines, RNG lineage);
- :mod:`~repro.api.requests` -- frozen, JSON-serializable request
  dataclasses (:class:`SampleRequest`, :class:`EnsembleRequest`,
  :class:`AuditRequest`, :class:`RoundBillRequest`,
  :class:`PageRankRequest`, :class:`MSTRequest`);
- :mod:`~repro.api.responses` -- the uniform :class:`Response` envelope
  with lossless ``to_dict``/:func:`response_from_dict` JSON round trips
  for every result type;
- :mod:`~repro.api.presets` -- the named configuration recipes
  (``"paper-approximate"``, ``"paper-exact"``, ``"paper-broadcast"``,
  ``"fast-bench"``, ``"fast-audit"``, ...).

Variant validation everywhere in this package derives from the
:mod:`repro.core.variants` registry -- registering a new
:class:`~repro.core.variants.VariantSpec` makes it addressable from
requests, presets, sessions, the CLI, and the service envelope without
further edits. Workload routing (which request kinds exist, which of
them stream) likewise derives from the :mod:`repro.core.workloads`
registry.

The two one-call functions (:func:`repro.sample_spanning_tree`,
:func:`repro.engine.ensemble.sample_tree_ensemble`) run the same
:class:`~repro.engine.runner.SamplerEngine` a session drives.
"""

from repro.api.presets import (
    PRESETS,
    Preset,
    get_preset,
    preset_config,
    resolve_config,
)
from repro.api.requests import (
    REQUEST_TYPES,
    AuditRequest,
    EnsembleRequest,
    MSTRequest,
    PageRankRequest,
    RoundBillRequest,
    SampleRequest,
    request_from_dict,
)
from repro.api.responses import (
    RESULT_TYPES,
    AuditReport,
    FastCoverReport,
    MSTReport,
    PageRankReport,
    Response,
    RoundBillReport,
    response_from_dict,
)
from repro.api.session import Session

__all__ = [
    "Session",
    "SampleRequest",
    "EnsembleRequest",
    "AuditRequest",
    "RoundBillRequest",
    "PageRankRequest",
    "MSTRequest",
    "request_from_dict",
    "REQUEST_TYPES",
    "Response",
    "AuditReport",
    "RoundBillReport",
    "FastCoverReport",
    "PageRankReport",
    "MSTReport",
    "response_from_dict",
    "RESULT_TYPES",
    "Preset",
    "PRESETS",
    "get_preset",
    "preset_config",
    "resolve_config",
]
