#!/usr/bin/env python
"""Fail if the docs cite a file path that does not exist.

The README, DESIGN.md, EXPERIMENTS.md and the docs/ pages cite files of
the repository in backticks: benchmark snapshots under
``benchmarks/results/``, test files, examples, modules.  A renamed or
deleted file silently turns those citations into dead links; the CI lint
job runs this script to catch that at review time.

A citation is a backticked path with a directory part that names a file
(its last component has an extension) or a directory (it ends in ``/``),
optionally followed by a ``:line`` or ``::test`` suffix.  It resolves if
it exists under the repository root, ``src/`` or ``src/repro/`` (so
``repro/cli.py`` and ``attacks/loop.py`` both resolve).  Globs, URL paths
and MIME types are not citations.

Beyond resolving every citation, the gate snapshots listed in
``REQUIRED_SNAPSHOTS`` must both exist *and* be cited from at least one
doc page — they are the committed evidence for the performance claims
the docs make, so dropping the citation (not just the file) is a
failure too.

Usage: ``python scripts/check_snapshots.py`` (from anywhere; paths resolve
relative to the repository root).  Exit code 0 when every cited path
exists, 1 otherwise (missing paths are listed).
"""

from __future__ import annotations

import glob
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# `dir/file.ext`, `dir/sub/`, with an optional `:12-34` or `::test` suffix.
_CITATION = re.compile(
    r"`([\w.\-]+(?:/[\w.\-]+)*(?:/|/[\w\-]*\.\w+))(?::[^`\s]*)?`"
)

# Citations resolve under these roots, in order.
_ROOTS = ("", "src", os.path.join("src", "repro"))

# Speedup/overhead gate snapshots: each must exist and be cited by a doc.
REQUIRED_SNAPSHOTS = (
    "benchmarks/results/hotpath_speedup.txt",
    "benchmarks/results/telemetry_overhead.txt",
    "benchmarks/results/profiler_overhead.txt",
    "benchmarks/results/serving_throughput.txt",
    "benchmarks/results/streaming_throughput.txt",
)


def _doc_files() -> list:
    files = [
        os.path.join(REPO_ROOT, name)
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
    ]
    files.extend(
        sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
    )
    return [path for path in files if os.path.isfile(path)]


def _resolves(path: str) -> bool:
    return any(
        os.path.exists(os.path.join(REPO_ROOT, root, path)) for root in _ROOTS
    )


def main() -> int:
    missing = []
    checked = 0
    cited = set()
    for doc in _doc_files():
        with open(doc, encoding="utf-8") as handle:
            text = handle.read()
        for path in sorted(set(_CITATION.findall(text))):
            checked += 1
            cited.add(path)
            if not _resolves(path):
                missing.append(f"{os.path.relpath(doc, REPO_ROOT)} -> {path}")
    for required in REQUIRED_SNAPSHOTS:
        if not os.path.isfile(os.path.join(REPO_ROOT, required)):
            missing.append(f"required gate snapshot absent: {required}")
        elif required not in cited:
            missing.append(f"required gate snapshot uncited: {required}")
    if missing:
        print("missing files cited by the docs:")
        for line in missing:
            print(f"  {line}")
        return 1
    print(
        f"ok: {checked} cited path(s) all resolve, "
        f"{len(REQUIRED_SNAPSHOTS)} required gate snapshot(s) cited"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
