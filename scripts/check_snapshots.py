#!/usr/bin/env python
"""Fail if the docs reference a benchmark snapshot that does not exist.

The README and the docs/ pages cite committed artefacts under
``benchmarks/results/`` (speedup gates, rendered tables).  A renamed or
deleted snapshot silently turns those citations into dead links; the CI
lint job runs this script to catch that at review time.

Beyond resolving every citation, the gate snapshots listed in
``REQUIRED_SNAPSHOTS`` must both exist *and* be cited from at least one
doc page — they are the committed evidence for the performance claims
the docs make, so dropping the citation (not just the file) is a
failure too.

Usage: ``python scripts/check_snapshots.py`` (from anywhere; paths resolve
relative to the repository root).  Exit code 0 when every referenced
snapshot exists, 1 otherwise (missing paths are listed).
"""

from __future__ import annotations

import glob
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# benchmarks/results/<file> with a real extension; tolerates the reference
# being wrapped in backticks, parentheses or markdown links.
_REFERENCE = re.compile(r"benchmarks/results/[\w.\-]+\.\w+")

# Speedup/overhead gate snapshots: each must exist and be cited by a doc.
REQUIRED_SNAPSHOTS = (
    "benchmarks/results/hotpath_speedup.txt",
    "benchmarks/results/telemetry_overhead.txt",
    "benchmarks/results/profiler_overhead.txt",
    "benchmarks/results/serving_throughput.txt",
    "benchmarks/results/streaming_throughput.txt",
)


def _doc_files() -> list:
    files = [os.path.join(REPO_ROOT, "README.md")]
    files.extend(
        sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
    )
    return [path for path in files if os.path.isfile(path)]


def main() -> int:
    missing = []
    checked = 0
    cited = set()
    for doc in _doc_files():
        with open(doc, encoding="utf-8") as handle:
            text = handle.read()
        for reference in sorted(set(_REFERENCE.findall(text))):
            checked += 1
            cited.add(reference)
            if not os.path.isfile(os.path.join(REPO_ROOT, reference)):
                missing.append(
                    f"{os.path.relpath(doc, REPO_ROOT)} -> {reference}"
                )
    for required in REQUIRED_SNAPSHOTS:
        if not os.path.isfile(os.path.join(REPO_ROOT, required)):
            missing.append(f"required gate snapshot absent: {required}")
        elif required not in cited:
            missing.append(f"required gate snapshot uncited: {required}")
    if missing:
        print("missing benchmark snapshots referenced by the docs:")
        for line in missing:
            print(f"  {line}")
        return 1
    print(
        f"ok: {checked} snapshot reference(s) all resolve, "
        f"{len(REQUIRED_SNAPSHOTS)} required gate snapshot(s) cited"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
