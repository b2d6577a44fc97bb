"""Every statlen name the demos and the README tour use is public, and every demo and the tour run.

A deletion from the package that would break a demo or the README's
library tour fails here instead of silently.
"""
import ast
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import statlen

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = DEMOS + [ROOT / "README.md"]


def _python_of(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".md":
        return "\n".join(re.findall(r"```python\n(.*?)```", text, re.DOTALL))
    return text


def _statlen_names(source: str) -> set:
    """Names taken from statlen: ``from statlen import X`` and ``<alias>.X``."""
    tree = ast.parse(source)
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "statlen":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "statlen")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            names.add(node.attr)
    return names


def test_library_logger_has_a_null_handler():
    handlers = logging.getLogger("statlen").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)
    assert "logging" not in statlen.__all__


def test_every_demo_and_the_readme_are_checked():
    assert len(SOURCES) == 6
    assert _python_of(ROOT / "README.md").strip()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_names_used_are_in_all(path):
    used = _statlen_names(_python_of(path))
    assert used, f"{path.name} uses no statlen names"
    missing = sorted(used - set(statlen.__all__))
    assert not missing, f"{path.name} uses names outside statlen.__all__: {missing}"


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "statlen").glob("*.py")), ids=lambda p: p.name)
def test_package_reads_no_environment(path):
    """Every setting of the package is a constant or an argument; no caps move with the environment."""
    reads = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name) and node.value.id == "os")
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and {a.name for a in node.names} & {"environ", "getenv"})
    ]
    assert not reads, f"{path.name} reads the environment on lines {reads}"


def _run_python(*args) -> subprocess.CompletedProcess:
    """Run python on ``args`` from the repository root, with src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         "-W", "error::PendingDeprecationWarning", "-W", "error::FutureWarning", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    done = _run_python(str(path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_readme_tour_runs():
    done = _run_python("-c", _python_of(ROOT / "README.md"))
    assert done.returncode == 0, done.stderr
