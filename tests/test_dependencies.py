"""The imports of the package and its tests are declared.

Every module-level import under ``src/repro/`` names the standard
library, ``repro`` or a runtime dependency in ``pyproject.toml``; under
``tests/`` it may also name the ``tests`` package or a distribution of
the ``test`` extra.  Imports inside functions are lazy, optional ones
(matplotlib for ``--plot``) and are out of scope.  ``repro`` also
imports and evaluates with networkx unimportable.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = (ROOT / "pyproject.toml").read_text()
#: Deliberate rule violations for the checker's tests; one does not parse.
FIXTURES = ROOT / "tests" / "check" / "fixtures"


def declared(key: str) -> set[str]:
    """Import names of the requirement list ``key = [...]`` in
    ``pyproject.toml``, read as text (Python 3.10 has no ``tomllib``)."""
    match = re.search(rf"^{key} = \[(.*?)\]", PYPROJECT, re.M | re.S)
    assert match, f"no {key} list in pyproject.toml"
    return {
        re.split(r"[^A-Za-z0-9_.-]", req)[0].lower().replace("-", "_")
        for req in re.findall(r'"([^"]+)"', match.group(1))
    }


def module_level_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports that run when ``path``
    is imported (function bodies excluded)."""
    names = set()
    nodes = [ast.parse(path.read_text(), filename=str(path))]
    while nodes:
        for child in ast.iter_child_nodes(nodes.pop()):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names.update(alias.name.split(".")[0] for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names.add(child.module.split(".")[0])
            nodes.append(child)
    return names


RUNTIME = set(sys.stdlib_module_names) | {"repro"} | declared("dependencies")
TESTING = RUNTIME | {"tests"} | declared("test")


@pytest.mark.parametrize(
    "tree, allowed", [("src/repro", RUNTIME), ("tests", TESTING)], ids=["src", "tests"]
)
def test_module_level_imports_are_declared(tree, allowed):
    undeclared = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted((ROOT / tree).rglob("*.py"))
        if FIXTURES not in path.parents
        for name in module_level_imports(path) - allowed
    }
    assert not undeclared, sorted(undeclared)


def test_runs_without_networkx():
    """``import repro.cli`` and one evaluation succeed, and load no
    networkx module, when networkx cannot be imported."""
    code = """
import sys
sys.modules["networkx"] = None
import repro.cli
from repro import DepthFirstEngine, DFStrategy, get_accelerator, get_workload
from repro.mapping import SearchConfig
engine = DepthFirstEngine(
    get_accelerator("meta_proto_like_df"), SearchConfig(lpf_limit=5, budget=40)
)
result = engine.evaluate(get_workload("resnet18"), DFStrategy(tile_x=16, tile_y=18))
assert result.energy_pj > 0
assert not [m for m in sys.modules if m.startswith("networkx.")]
"""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
