"""Every pinned CLI output against its golden file under ``tests/golden/``.

The files are written by ``python tests/golden/regenerate.py``, never by
this test; ``golden_cases`` holds the cases and the comparison rules.
"""

import pytest

from golden_cases import CASES, mismatches, path_of, render


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_its_golden(name):
    expected = path_of(name).read_text(encoding="utf-8")
    problems = mismatches(name, expected, render(name))
    assert not problems, f"{name} differs from {path_of(name).name}:\n" + "\n".join(problems)
