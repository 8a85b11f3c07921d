"""Fresh-seed service benchmark: one workload against a real ``repro serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fresh-dense --seed 1 --seconds 20 \\
        --trace 0

See :mod:`harness` for what a run does and prints. A directory without
``src/repro`` (one that holds only the benchmark) exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny graphs, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import harness

    return harness.main(root, args)


if __name__ == "__main__":
    sys.exit(main())
