"""Smoke tests: every example script must stay runnable.

Examples are documentation that executes; a refactor that breaks one is a
regression even if the library tests pass.  The slow sweep example
(scalability_study) is exercised through its underlying harness functions
elsewhere and skipped here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "byzantine_equivocation.py",
    "wan_prototype.py",
    "smr_service.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_all_examples_enumerated():
    """A new example must be added to the smoke list (or explicitly skipped
    here with a reason)."""
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    known = set(FAST_EXAMPLES) | {"scalability_study.py"}  # slow: sweep-covered
    assert on_disk == known, f"unaccounted examples: {on_disk ^ known}"


@pytest.mark.parametrize("script", FAST_EXAMPLES + ["scalability_study.py"])
def test_example_has_docstring_and_main(script):
    text = (EXAMPLES / script).read_text()
    assert text.lstrip().startswith(('"""', "#!")), script
    assert '__name__ == "__main__"' in text, script
