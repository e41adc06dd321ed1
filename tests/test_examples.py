"""Sanity checks for the example scripts.

Each example must compile and answer ``--help`` in a subprocess (which
resolves every import, so an example naming a deleted symbol fails); the
cheapest one also runs end-to-end to guard the public-API usage they
demonstrate.
"""

import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))
SRC_DIR = EXAMPLES_DIR.parent / "src"


def test_examples_exist():
    names = {path.name for path in EXAMPLE_FILES}
    assert "quickstart.py" in names
    assert len(EXAMPLE_FILES) >= 3


@pytest.mark.parametrize(
    "path", EXAMPLE_FILES, ids=[p.name for p in EXAMPLE_FILES]
)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize(
    "path", EXAMPLE_FILES, ids=[p.name for p in EXAMPLE_FILES]
)
def test_example_help_runs(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(path), "--help"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout


def test_attack_gallery_runs_end_to_end(tmp_path):
    """The fastest example: trains a few epochs and runs every attack."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "attack_gallery.py"),
         "--epochs", "3"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert "attack comparison" in result.stdout
    assert "BIM" in result.stdout
