"""Dependency guard: ``src/repro`` imports only the stdlib and numpy.

numpy is the only dependency ``pyproject.toml`` declares, so any other
third-party import — even one behind a function body — would fail on a
clean install.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


def imported_roots(path):
    """Top-level package of every absolute import statement in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_stdlib_and_numpy():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno}: {root}"
        for path in modules
        for lineno, root in imported_roots(path)
        if root not in ALLOWED
    ]
    assert offenders == []


def test_guard_sees_function_level_imports(tmp_path):
    module = tmp_path / "lazy.py"
    module.write_text("def blur(x):\n    import scipy.ndimage\n")
    assert list(imported_roots(module)) == [(2, "scipy")]
