"""The public surface of statlen is pinned; the demos and the README tour use only it, and run.

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
from types import ModuleType

import pytest

import statlen

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = DEMOS + [ROOT / "README.md"]
PACKAGE = sorted((ROOT / "src" / "statlen").glob("*.py"))


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


PUBLIC = {
    # exceptions
    "BadRank", "DimensionCapExceeded", "DimensionMismatch", "InfiniteYield", "NotHermitian",
    "NotNormalized", "NotPositive", "RankCollapse", "RankDeficient", "StatlenError",
    "SupportViolation", "ValidationError",
    # states
    "SpectralDecomposition", "State", "TangentPerturbation", "add_ridge", "entropy",
    "random_distribution", "random_state", "spectral", "tangent_classical", "tangent_quantum",
    "validate_density", "validate_distribution",
    # geometry
    "StatePath", "TransportSchedule", "even_schedule", "geodesic_bound", "geodesic_length_bures",
    "geodesic_length_fisher", "geodesic_path", "kubo_mori_element", "linear_mixture_path",
    "metric_element", "state_fidelity",
    # transport
    "ExpansionProbe", "expansion_probe", "relative_entropy", "run_transport",
    # reservoir
    "ReservoirScanResult", "convergence_scan", "step_entropy_production",
    # pathopt
    "PathOptimizationResult", "minimize_path",
}


def test_all_is_exactly_the_public_surface():
    assert isinstance(statlen.__all__, list)
    assert len(statlen.__all__) == len(set(statlen.__all__)) == len(PUBLIC) == 44
    assert set(statlen.__all__) == PUBLIC
    assert not [name for name in statlen.__all__ if isinstance(getattr(statlen, name), ModuleType)]


@pytest.mark.parametrize(
    "name",
    ["discrete_path_length", "PathLengthReport", "min_entropy_production", "hellinger_element", "TransportReport"],
)
def test_removed_names_have_no_alias(name):
    for module in (statlen, statlen.geometry, statlen.transport):
        assert not hasattr(module, name)


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from statlen import *", namespace)
    bound = {name for name in namespace if name != "__builtins__"}
    assert bound == PUBLIC
    assert not [name for name in bound if isinstance(namespace[name], ModuleType)]


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


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
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


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_keeps_no_unused_import(path):
    """An imported name is read in the module or re-exported through ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    unused = sorted((line, name) for name, line in imported.items() if name not in used | exported)
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def _places_calling(name: str) -> set:
    """``module.function`` of every top-level definition in the package that names ``name``."""
    places = set()
    for path in PACKAGE:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == name
                        or isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.alias) and node.name == name):
                    places.add(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    return places


def test_eigh_is_taken_in_one_place():
    """``states.spectral`` is the one eigendecomposition of states: validation takes
    it and hands it to the amplitudes and the yields, and the reservoir step reads
    sigma's eigenbasis from it in eigh's ascending order, which fixes the
    Gelfand-Tsetlin basis of its blocks."""
    assert _places_calling("eigh") == {"states.spectral"}


def test_svd_is_taken_in_two_places():
    """The chord kernel ``geometry._uhlmann`` takes the SVD of every step; the
    optimizer's rank check takes the singular values of its iterate on its own,
    only when the chord SVD cannot clear it."""
    assert _places_calling("svd") == {"geometry._uhlmann", "pathopt._chain"}


def test_refusals_are_reported_in_one_place():
    """``cli.main`` alone writes to stderr: every refusal of a run leaves it through
    one ``except`` per exit status, as one ``statlen: `` line."""
    assert _places_calling("stderr") == {"cli.main"}


def test_files_are_opened_and_json_encoded_only_in_serialize():
    """``serialize`` owns every byte the package reads or writes: ``_read_json`` and
    ``write_records`` open the files, and only it encodes JSON, so ``cli`` opens no
    file and writes no record of its own."""
    assert _places_calling("open") == {"serialize._read_json", "serialize.write_records"}
    assert _places_calling("dump") | _places_calling("dumps") == {"serialize._canonical", "serialize.write_records"}


def test_json_is_decoded_in_one_place():
    """Configs and state files are read through ``serialize._read_json``, which turns
    a file that does not decode into a ValidationError."""
    assert _places_calling("load") | _places_calling("loads") == {"serialize._read_json"}


# Hot kernels, by module (None: every function of it), that take no numpy wrapper.
HOT_KERNELS = {
    "pathopt": None,
    "states": ("_entropy_of_weights", "_validate_rows"),
    "geometry": ("_step_entropies", "even_schedule"),
    "reservoir": ("_runs", "_block_spectrum"),
}
NUMPY_WRAPPERS = ("sum", "all", "real", "repeat", "cumsum", "trace", "diagonal", "ptp", "r_")


def test_search_loop_takes_no_reduction_wrappers():
    """The optimizer and the hot kernels of validation, step yields, schedules and
    reservoir steps run their reductions and reshapes through the ndarray methods
    (``.sum()``, ``.real``, ``.repeat``, ``.cumsum()``, ``.trace``, ``.diagonal()``)
    or plain arithmetic: the ``np.sum``/``np.real``/``np.repeat``/... wrappers, and
    ``np.ptp`` and ``np.r_``, apply the same operations at a higher cost per call
    than the few-dozen-entry arithmetic of these loops."""
    calls = []
    for module, names in HOT_KERNELS.items():
        tree = ast.parse((ROOT / "src" / "statlen" / f"{module}.py").read_text(encoding="utf-8"))
        tops = [top for top in tree.body if names is None or getattr(top, "name", None) in names]
        assert names is None or len(tops) == len(names), f"{module}.py lacks one of {names}"
        calls += [
            (module, node.lineno, node.attr)
            for top in tops for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr in NUMPY_WRAPPERS
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        ]
    assert not calls, f"hot kernels take numpy wrappers: {calls}"


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
