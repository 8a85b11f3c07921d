"""Outside-in span tracer: wraps the public entry points of each layer.

Nothing under ``src/`` knows it is being traced. :func:`installed` swaps
each target in :data:`TARGETS` for a timing wrapper, and puts every
original back on exit. Names bound by ``from x import y`` are patched in
the module that calls them (``repro.engine.runner.PowerLadder``, not
``repro.linalg.matpow.PowerLadder``); methods are patched on their class.

Each span records its name, layer, start, end, parent span, request id
and an optional integer attribute. Spans stay in memory until the pass
ends. A span's self time is its duration minus the durations of its
direct children; the traced code runs on one thread, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute path, layer, span name). Layers are the self-time
# buckets the per-layer metrics sum over.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.api.session", "Session.run", "api", "api.run"),
    ("repro.engine.runner", "SamplerEngine.run", "engine", "engine.run"),
    ("repro.engine.runner", "PowerLadder", "linalg", "linalg.ladder"),
    ("repro.linalg.backend", "DenseLinalg.shortcut_matrix", "linalg",
     "linalg.shortcut"),
    ("repro.linalg.backend", "DenseLinalg.schur_transition", "linalg",
     "linalg.schur"),
    ("repro.linalg.backend", "DenseLinalg.transition_matrix", "linalg",
     "linalg.transition"),
    ("repro.linalg.backend", "SparseLinalg.shortcut_matrix", "linalg",
     "linalg.shortcut"),
    ("repro.linalg.backend", "SparseLinalg.schur_transition", "linalg",
     "linalg.schur"),
    ("repro.linalg.backend", "SparseLinalg.transition_matrix", "linalg",
     "linalg.transition"),
    ("repro.engine.cache", "DerivedGraphCache.lookup", "store",
     "store.lookup"),
    ("repro.engine.cache", "DerivedGraphCache.store", "store",
     "store.ram_insert"),
    ("repro.engine.cache", "DerivedGraphCache.refresh", "store",
     "store.refresh"),
    ("repro.engine.store", "TieredPhaseStore.lookup", "store",
     "store.lookup"),
    ("repro.engine.store", "TieredPhaseStore.store", "store", "store.spill"),
    ("repro.engine.store", "TieredPhaseStore.store_plan", "store",
     "store.plan_spill"),
    ("repro.engine.store", "TieredPhaseStore.refresh", "store",
     "store.refresh"),
    ("repro.engine.runner", "run_phase_walk", "walk", "walk.fill"),
    ("repro.core.phase", "MidpointBank", "walk", "walk.midpoints"),
    ("repro.core.phase", "find_truncation_index_fast", "walk",
     "walk.truncation"),
    ("repro.core.phase", "place_midpoints", "walk", "walk.placement"),
    ("repro.core.phase", "place_by_pair_multisets", "walk", "walk.placement"),
    ("repro.core.placement_plan", "PlacementPlan.prepared_dp", "matching",
     "matching.prepared_dp"),
    ("repro.core.placement_plan", "prepare_contingency_dp", "matching",
     "matching.dp_prepare"),
    ("repro.core.placement_plan", "PlacementPlan.first_visit", "firstvisit",
     "firstvisit.memo"),
    ("repro.engine.runner", "first_visit_edge_distribution", "firstvisit",
     "firstvisit.cold"),
)

# Layers whose self times should account for a traced request.
WORK_LAYERS = ("engine", "linalg", "store", "walk", "matching", "firstvisit")


def _eliminated(args) -> int:
    """|V \\ S| of a ``shortcut_matrix(self, graph, subset, ...)`` call."""
    graph, subset = args[1], args[2]
    return int(graph.n) - len(subset)


# Span name -> attribute recorded from the call's positional arguments.
_ATTRIBUTES = {"linalg.shortcut": _eliminated}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    request: int | None
    attribute: int | None = None


@dataclass
class Tracer:
    """In-memory span recorder for one traced pass (single thread)."""

    spans: list[Span] = field(default_factory=list)
    request: int | None = None
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, layer: str, attribute: int | None = None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, layer, time.perf_counter(), 0.0, parent,
                      self.request, attribute)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, original, name: str, layer: str):
        attribute_of = _ATTRIBUTES.get(name)

        @functools.wraps(original, updated=())
        def traced(*args, **kwargs):
            attribute = attribute_of(args) if attribute_of else None
            with self.span(name, layer, attribute):
                return original(*args, **kwargs)

        traced.perfbench_traced = True
        return traced

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus direct children's."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.end - span.start
        return own


def _resolve(module_name: str, path: str):
    """(owner, attribute name, original object) for one target."""
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    # Read the class __dict__ directly so a method is restored as the
    # plain function it was, never as a bound or inherited attribute.
    original = (
        vars(owner)[attribute] if isinstance(owner, type)
        else getattr(owner, attribute)
    )
    return owner, attribute, original


def current_targets() -> dict[tuple[str, str], object]:
    """The current object behind every target (for leak checks)."""
    return {
        (module, path): _resolve(module, path)[2]
        for module, path, __, __ in TARGETS
    }


@contextmanager
def installed(tracer: Tracer):
    """Install wrappers on every target; restore them all on exit."""
    patched = []
    try:
        for module, path, layer, name in TARGETS:
            owner, attribute, original = _resolve(module, path)
            setattr(owner, attribute, tracer.wrap(original, name, layer))
            patched.append((owner, attribute, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


def leaked_wrappers() -> list[str]:
    """Targets still bound to a tracing wrapper (should be empty)."""
    return [
        f"{module}.{path}"
        for (module, path), current in current_targets().items()
        if getattr(current, "perfbench_traced", False)
    ]
