"""Every ``repro.…`` dotted path the documentation names must resolve.

A backticked path in a reference doc (the top-level docs in ``REFERENCE``
or ``docs/*.md``) is read as a module, optionally followed by attributes
(``repro.harness.parallel.run_sweep``) or a ``.*`` wildcard
(``repro.dag.*``).  The change logs (``CHANGES.md``, ``ROADMAP.md``,
``docs/history/``) record paths as they were and are not checked.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ("README.md", "PAPER.md", "DESIGN.md", "EXPERIMENTS.md")
PATH_RE = re.compile(r"`(repro(?:\.\w+)+)")


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix, then walk the rest as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_doc_module_paths_resolve():
    docs = [ROOT / name for name in REFERENCE] + sorted((ROOT / "docs").glob("*.md"))
    checked, broken = 0, []
    for doc in docs:
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for dotted in PATH_RE.findall(line):
                checked += 1
                if not _resolves(dotted):
                    broken.append(f"{doc.name}:{lineno}: {dotted}")
    assert checked > 50
    assert broken == []
