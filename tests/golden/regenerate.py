"""Rewrite every golden output under tests/golden/ from the current code.

    python tests/golden/regenerate.py

Run it from any directory; the package is imported from ``src/``.  Commit
the rewritten files with the change that moved them.
"""

import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from golden_cases import CASES, path_of, render  # noqa: E402


def main() -> None:
    for name in CASES:
        path_of(name).write_text(render(name), encoding="utf-8")
        print(path_of(name).relative_to(TESTS.parent))


if __name__ == "__main__":
    main()
