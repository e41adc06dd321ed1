#!/usr/bin/env python
"""Fail if the docs cite a ``repro.…`` name that no longer resolves.

README, DESIGN, EXPERIMENTS and the docs/ pages name modules, classes and
functions in backticks (`` `repro.attacks.build_attack` ``).  Deleting or
renaming one of them leaves the citation pointing at nothing; the CI lint
job runs this script so the docs follow the code.

A name resolves when its longest importable module prefix imports and
every remaining dotted part is an attribute of it.

Usage: ``PYTHONPATH=src python scripts/check_doc_names.py`` (from
anywhere; paths resolve relative to the repository root).  Exit code 0
when every cited name resolves, 1 otherwise (unresolved names are
listed).
"""

from __future__ import annotations

import glob
import importlib
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A backtick followed by a dotted name rooted at ``repro``; anything after
# the name (call parentheses, arguments) is ignored.
_CITATION = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")


def _doc_files() -> list:
    files = [
        os.path.join(REPO_ROOT, name)
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
    ]
    files.extend(
        sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
    )
    return [path for path in files if os.path.isfile(path)]


def resolves(name: str) -> bool:
    """True when ``name`` is an importable module or an attribute path
    below one."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def main() -> int:
    cited = {}
    for doc in _doc_files():
        with open(doc, encoding="utf-8") as handle:
            for name in _CITATION.findall(handle.read()):
                cited.setdefault(name, os.path.relpath(doc, REPO_ROOT))
    unresolved = [
        f"{doc} -> {name}"
        for name, doc in sorted(cited.items())
        if not resolves(name)
    ]
    if unresolved:
        print("names cited by the docs that do not resolve:")
        for line in unresolved:
            print(f"  {line}")
        return 1
    print(f"ok: {len(cited)} cited repro name(s) all resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
