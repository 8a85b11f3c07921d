"""Every benchmark and example module loads against this tree.

Tier-1 runs few of the ``benchmarks/bench_*.py`` modules and
``examples/*.py`` scripts, and lint does not flag an import of a name
the package no longer exports. Loading each module (without running
it: every example keeps its work behind a ``__main__`` guard, and the
benchmarks are pytest modules) fails here instead of in a nightly job.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("benchmarks/bench_*.py")) + sorted(
    ROOT.glob("examples/*.py")
)


def test_scripts_found():
    assert len(SCRIPTS) > 20


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS]
)
def test_module_loads(path):
    name = f"script_under_test_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their module through sys.modules while the
    # class body runs.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
